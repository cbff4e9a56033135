"""Metric evaluation in coordinates: g, its inverse, Christoffels, Riemann.

A MetricSpec is a single chart: coordinate names with open intervals, a
symmetric array of component expressions (only i <= j stored), a declared
signature, and an optional Killing vector field.  The file format is a
UTF-8 key/value format (grammar in README.md); parsing is byte-deterministic.

Curvature sign convention, used everywhere downstream:

    R(X,Y)Z = nab_X nab_Y Z - nab_Y nab_X Z - nab_[X,Y] Z
    Rm(X,Y,Z,W) = <R(X,Y)Z, W>

so the round 3-sphere has Rm(X,Y,X,Y) = -1 in an orthonormal frame and its
curvature operator (assembled with a minus sign in curvature_ops) is +I.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ChartDomainError, EvalDomainError, NearSingularError, SpecFormatError, SignatureError
from .expr import Expression, eval_jet_batch, parse_expression
from .linalg import gauss_inverse, jacobi_eigh
from .tolerances import DEFAULT, Tolerances

SIGNATURES = ("riemannian", "lorentzian")
DEFAULT_MARGIN = 1e-3

_KEY_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class KillingField:
    components: tuple[Expression, ...]
    unit: bool


@dataclass(frozen=True)
class MetricSpec:
    coords: tuple[str, ...]
    intervals: tuple[tuple[float, float], ...]
    margin: float
    signature: str
    entries: tuple[tuple[int, int, Expression], ...]  # i <= j, nonzero only
    killing: KillingField | None = None

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @cached_property
    def expression_matrix(self) -> tuple[tuple[Expression, ...], ...]:
        n = self.dimension
        zero = Expression.constant(0.0, self.coords)
        grid = [[zero] * n for _ in range(n)]
        for i, j, e in self.entries:
            grid[i][j] = e
            grid[j][i] = e
        return tuple(tuple(row) for row in grid)

    def interior_linspace(self, sizes) -> list[np.ndarray]:
        """Per-coordinate sample values, endpoints pulled in by the margin."""
        if isinstance(sizes, int):
            sizes = [sizes] * self.dimension
        if len(sizes) != self.dimension:
            raise ValueError("one grid size per coordinate required")
        axes = []
        for m, (lo, hi) in zip(sizes, self.intervals):
            if m == 0:
                axes.append(np.empty(0))
            elif m == 1:
                axes.append(np.array([(lo + hi) / 2.0]))
            else:
                axes.append(np.linspace(lo + self.margin, hi - self.margin, m))
        return axes

    def to_text(self) -> str:
        lines = ["[chart]", f"coords = {', '.join(self.coords)}"]
        for name, (lo, hi) in zip(self.coords, self.intervals):
            lines.append(f"{name} = {lo!r}, {hi!r}")
        lines.append(f"margin = {self.margin!r}")
        lines += ["", "[metric]"]
        for i, j, e in self.entries:
            lines.append(f'g_{i}_{j} = "{e.unparse()}"')
        lines += ["", "[signature]", f"kind = {self.signature}"]
        if self.killing is not None:
            lines += ["", "[killing]"]
            for i, e in enumerate(self.killing.components):
                lines.append(f'T_{i} = "{e.unparse()}"')
            lines.append(f"unit = {'true' if self.killing.unit else 'false'}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MetricAtPoint:
    """g and its jets at one point; dg[k,i,j] = d_k g_ij, d2g[k,l,i,j] = d_k d_l g_ij."""

    point: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray
    det: float


@dataclass(frozen=True)
class RiemannTensor:
    """Lowered curvature 4-tensor; comps[a,b,c,d] = Rm(E_a,E_b,E_c,E_d)."""

    point: np.ndarray
    frame: str  # "coordinate" | "orthonormal"
    comps: np.ndarray


# --- spec file parsing -------------------------------------------------------

def _parse_sections(text: str):
    sections: dict[str, list[tuple[str, str, int]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise SpecFormatError(f"line {lineno}: malformed section header '{raw.strip()}'")
            name = line[1:-1].strip()
            if name in sections:
                raise SpecFormatError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = []
            current = name
            continue
        if current is None:
            raise SpecFormatError(f"line {lineno}: content before any section header")
        if "=" not in line:
            raise SpecFormatError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        sections[current].append((key.strip(), value.strip(), lineno))
    return sections


def _as_mapping(pairs, section):
    out = {}
    for key, value, lineno in pairs:
        if key in out:
            raise SpecFormatError(f"line {lineno}: duplicate key '{key}' in [{section}]")
        out[key] = (value, lineno)
    return out


def _unquote(value: str, lineno: int) -> str:
    if len(value) < 2 or value[0] != '"' or value[-1] != '"':
        raise SpecFormatError(f"line {lineno}: expression values must be double-quoted")
    return value[1:-1]


def _parse_float(value: str, lineno: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise SpecFormatError(f"line {lineno}: expected a number, found '{value}'") from None


def load_spec(data) -> MetricSpec:
    """Parse spec file contents (bytes or str) into a MetricSpec."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    sections = _parse_sections(data)
    for required in ("chart", "metric", "signature"):
        if required not in sections:
            raise SpecFormatError(f"missing section [{required}]")
    unknown = set(sections) - {"chart", "metric", "signature", "killing"}
    if unknown:
        raise SpecFormatError(f"unknown sections: {sorted(unknown)}")

    chart = _as_mapping(sections["chart"], "chart")
    if "coords" not in chart:
        raise SpecFormatError("[chart] is missing the 'coords' key")
    coords = tuple(name.strip() for name in chart["coords"][0].split(","))
    if any(not _KEY_RE.match(name) for name in coords):
        raise SpecFormatError(f"invalid coordinate names {coords}")
    if len(set(coords)) != len(coords):
        raise SpecFormatError("duplicate coordinate names")
    n = len(coords)
    if n < 2:
        raise SpecFormatError("dimension must be at least 2")

    margin = DEFAULT_MARGIN
    if "margin" in chart:
        margin = _parse_float(*chart["margin"])
        if margin <= 0:
            raise SpecFormatError("margin must be positive")
    intervals = []
    for name in coords:
        if name not in chart:
            raise SpecFormatError(f"[chart] is missing the interval for '{name}'")
        value, lineno = chart[name]
        parts = value.split(",")
        if len(parts) != 2:
            raise SpecFormatError(f"line {lineno}: interval must be 'lo, hi'")
        lo, hi = (_parse_float(p.strip(), lineno) for p in parts)
        if not lo < hi or hi - lo <= 2 * margin:
            raise SpecFormatError(f"line {lineno}: interval for '{name}' too narrow for the margin")
        intervals.append((lo, hi))
    extra = set(chart) - {"coords", "margin", *coords}
    if extra:
        raise SpecFormatError(f"unknown [chart] keys: {sorted(extra)}")

    signature = _as_mapping(sections["signature"], "signature")
    if set(signature) != {"kind"}:
        raise SpecFormatError("[signature] must contain exactly the 'kind' key")
    kind = signature["kind"][0]
    if kind not in SIGNATURES:
        raise SpecFormatError(f"invalid signature tag '{kind}'")

    raw_entries: dict[tuple[int, int], Expression] = {}
    for key, value, lineno in sections["metric"]:
        m = re.match(r"g_(\d+)_(\d+)\Z", key)
        if not m:
            raise SpecFormatError(f"line {lineno}: metric keys look like g_i_j, found '{key}'")
        i, j = int(m.group(1)), int(m.group(2))
        if i >= n or j >= n:
            raise SpecFormatError(f"line {lineno}: index out of range in '{key}' (dimension {n})")
        expr = parse_expression(_unquote(value, lineno), coords)
        lo, hi = min(i, j), max(i, j)
        if (lo, hi) in raw_entries:
            if raw_entries[(lo, hi)].root != expr.root:
                raise SpecFormatError(
                    f"line {lineno}: g_{i}_{j} conflicts with its symmetric partner"
                )
        else:
            raw_entries[(lo, hi)] = expr
    entries = tuple(
        (i, j, e) for (i, j), e in sorted(raw_entries.items()) if not e.is_zero()
    )

    killing = None
    if "killing" in sections:
        km = _as_mapping(sections["killing"], "killing")
        if set(km) != {f"T_{i}" for i in range(n)} | {"unit"}:
            raise SpecFormatError(f"[killing] must define T_0..T_{n-1} and 'unit'")
        comps = tuple(
            parse_expression(_unquote(*km[f"T_{i}"]), coords) for i in range(n)
        )
        unit_text = km["unit"][0]
        if unit_text not in ("true", "false"):
            raise SpecFormatError("killing 'unit' must be true or false")
        killing = KillingField(comps, unit_text == "true")

    return MetricSpec(coords, tuple(intervals), margin, kind, entries, killing)


def load_spec_file(path) -> MetricSpec:
    with open(path, "rb") as fh:
        return load_spec(fh.read())


# --- evaluation --------------------------------------------------------------

def require_interior(spec: MetricSpec, pts: np.ndarray) -> None:
    lo = np.array([iv[0] for iv in spec.intervals]) + spec.margin
    hi = np.array([iv[1] for iv in spec.intervals]) - spec.margin
    slack = 1e-12
    if np.any(pts < lo - slack) or np.any(pts > hi + slack):
        bad = pts[np.any((pts < lo - slack) | (pts > hi + slack), axis=1)][0]
        raise ChartDomainError(
            f"point {bad.tolist()} is not interior to the chart by the margin {spec.margin}"
        )


def metric_fields(spec: MetricSpec, pts, cache: dict | None = None):
    """Batched (g, dg, d2g) with shapes (B,n,n), (B,n,n,n), (B,n,n,n,n).

    ``cache`` is a jet cache valid for exactly these points; sharing one
    across the component loop (and with the flipped metric) evaluates
    common subexpressions once.
    """
    pts = np.asarray(pts, dtype=float)
    batch, n = pts.shape
    cache = {} if cache is None else cache
    g = np.zeros((batch, n, n))
    dg = np.zeros((batch, n, n, n))
    d2g = np.zeros((batch, n, n, n, n))
    for i, j, expr in spec.entries:
        val, grad, hess = eval_jet_batch(expr, pts, cache)
        g[:, i, j] = val
        dg[:, :, i, j] = grad
        d2g[:, :, :, i, j] = hess
        if i != j:
            g[:, j, i] = val
            dg[:, :, j, i] = grad
            d2g[:, :, :, j, i] = hess
    if not np.all(np.isfinite(g)) or not np.all(np.isfinite(dg)) or not np.all(np.isfinite(d2g)):
        raise EvalDomainError("non-finite metric component", "metric evaluation")
    return g, dg, d2g


def check_signature(spec: MetricSpec, g: np.ndarray, tol: Tolerances) -> None:
    vals, _ = jacobi_eigh(g)
    size = np.abs(vals)
    if np.any(size.min(axis=-1) < tol.near_singular * size.max(axis=-1)):
        raise NearSingularError(f"smallest |eigenvalue| of g below {tol.near_singular} times the largest")
    negatives = np.count_nonzero(vals < 0.0, axis=-1)
    expected = 1 if spec.signature == "lorentzian" else 0
    if np.any(negatives != expected):
        raise SignatureError(
            f"eigenvalue signs disagree with declared signature '{spec.signature}'"
        )


def metric_batch(spec: MetricSpec, pts, tol: Tolerances = DEFAULT, cache: dict | None = None):
    """Validated batched metric data: (g, g_inv, dg, d2g, det)."""
    pts = np.asarray(pts, dtype=float)
    require_interior(spec, pts)
    g, dg, d2g = metric_fields(spec, pts, cache)
    g_inv, det = gauss_inverse(g)
    check_signature(spec, g, tol)
    return g, g_inv, dg, d2g, det


def metric_at(spec: MetricSpec, point, tol: Tolerances = DEFAULT) -> MetricAtPoint:
    point = np.asarray(point, dtype=float)
    g, g_inv, dg, d2g, det = metric_batch(spec, point[None, :], tol)
    return MetricAtPoint(point, g[0], g_inv[0], dg[0], d2g[0], float(det[0]))


def _sym_derivative(dg: np.ndarray) -> np.ndarray:
    # sym[b,i,j,l] = d_i g_jl + d_j g_il - d_l g_ij   (dg[b,k,i,j] = d_k g_ij)
    return dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)


def christoffel_batch(g_inv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Levi-Civita symbols Gamma[b,k,i,j] = 1/2 g^{kl}(d_i g_jl + d_j g_il - d_l g_ij)."""
    return 0.5 * np.einsum("bkl,bijl->bkij", g_inv, _sym_derivative(dg))


def christoffel(m: MetricAtPoint) -> np.ndarray:
    """Gamma^k_ij at one point, symmetric in (i, j)."""
    return christoffel_batch(m.g_inv[None], m.dg[None])[0]


def riemann_batch(g, g_inv, dg, d2g) -> np.ndarray:
    """Lowered Riemann tensor Rm[b,i,j,k,l] = g(R(d_i,d_j)d_k, d_l)."""
    gamma = christoffel_batch(g_inv, dg)
    sym = _sym_derivative(dg)
    # dsym[b,m,i,j,l] = d_m(d_i g_jl + d_j g_il - d_l g_ij), d2g[b,m,k,i,j] = d_m d_k g_ij
    dsym = d2g + d2g.transpose(0, 1, 3, 2, 4) - d2g.transpose(0, 1, 3, 4, 2)
    dg_inv = -np.einsum("bka,bmac,bcl->bmkl", g_inv, dg, g_inv)
    dgamma = 0.5 * (
        np.einsum("bmkl,bijl->bmkij", dg_inv, sym)
        + np.einsum("bkl,bmijl->bmkij", g_inv, dsym)
    )
    # dgamma[b,m,k,i,j] = d_m Gamma^k_ij; then
    # up[b,l,i,j,k] = d_i Gamma^l_jk - d_j Gamma^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik
    up = (
        np.einsum("biljk->blijk", dgamma)
        - np.einsum("bjlik->blijk", dgamma)
        + np.einsum("blim,bmjk->blijk", gamma, gamma)
        - np.einsum("bljm,bmik->blijk", gamma, gamma)
    )
    return np.einsum("blm,bmijk->bijkl", g, up)


def riemann_coordinate(spec: MetricSpec, point, tol: Tolerances = DEFAULT) -> RiemannTensor:
    """Curvature 4-tensor in coordinates under the sign convention above."""
    point = np.asarray(point, dtype=float)
    g, g_inv, dg, d2g, _ = metric_batch(spec, point[None, :], tol)
    comps = riemann_batch(g, g_inv, dg, d2g)[0]
    return RiemannTensor(point, "coordinate", comps)


def frame_components_batch(comps: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Contract coordinate components (B,n,n,n,n) against frames (B,n,n) (rows = vectors)."""
    return np.einsum("bai,bcj,bdk,bel,bijkl->bacde", frames, frames, frames, frames, comps)


def frame_components(tensor: RiemannTensor, frame_vectors) -> RiemannTensor:
    """Push a coordinate tensor to frame components; frame rows are the vectors."""
    e = np.asarray(frame_vectors, dtype=float)
    _, det = gauss_inverse(e)
    if abs(float(det)) < DEFAULT.near_singular:
        raise NearSingularError("rank-deficient frame")
    comps = frame_components_batch(tensor.comps[None], e[None])[0]
    return RiemannTensor(tensor.point, "orthonormal", comps)


def riemann_residuals(comps: np.ndarray) -> dict[str, float]:
    """Max residuals of the algebraic curvature identities (any frame)."""
    first = float(np.abs(comps + comps.swapaxes(-4, -3)).max())
    second = float(np.abs(comps + comps.swapaxes(-2, -1)).max())
    pair = float(np.abs(comps - comps.transpose(*range(comps.ndim - 4), -2, -1, -4, -3)).max())
    lead = tuple(range(comps.ndim - 4))
    bianchi = float(
        np.abs(
            comps
            + comps.transpose(*lead, -4, -2, -1, -3)
            + comps.transpose(*lead, -4, -1, -3, -2)
        ).max()
    )
    return {
        "antisymmetry_first_pair": first,
        "antisymmetry_second_pair": second,
        "pair_symmetry": pair,
        "first_bianchi": bianchi,
    }
