"""Metric evaluation in coordinates: g, its inverse, Christoffels, Riemann on pairs.

A MetricSpec is a single chart: coordinate names with open intervals, a
symmetric array of component expressions (only i <= j stored), a declared
signature, and an optional Killing vector field.  The file format is a
UTF-8 key/value format (grammar in README.md); parsing is byte-deterministic.

Curvature sign convention, used everywhere downstream:

    R(X,Y)Z = nab_X nab_Y Z - nab_Y nab_X Z - nab_[X,Y] Z
    Rm(X,Y,Z,W) = <R(X,Y)Z, W>

so the round 3-sphere has Rm(X,Y,X,Y) = -1 in an orthonormal frame and its
curvature operator (assembled with a minus sign in curvature_ops) is +I.

In coordinates the lowered tensor is built from the first-kind symbols
Gamma_{m,ij} = 1/2 (d_i g_jm + d_j g_im - d_m g_ij) and Gamma^m_ij = g^{mk} Gamma_{k,ij}:

    Rm_ijkl = 1/2 (d_i d_k g_jl - d_i d_l g_jk - d_j d_k g_il + d_j d_l g_ik)
              + Gamma_{m,jl} Gamma^m_ik - Gamma_{m,il} Gamma^m_jk

``riemann_batch`` evaluates it only with (i, j) and (k, l) pairs of the
Lambda^2 basis (N^2 = (n(n-1)/2)^2 values, which fix the tensor), and
``lambda2.pair_components`` takes those into a frame.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ChartDomainError, EvalDomainError, NearSingularError, SpecFormatError, SignatureError
from .expr import Expression, _parse_interned, _unparse, eval_jet_batch
from .lambda2 import Lambda2Basis
from .linalg import eigvalsh, invert
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
        # One unparse memo for every g_i_j and T_i, as load_spec shares one
        # node table: a subexpression shared anywhere in the spec is written
        # out in full at each use but its text is built once.
        memo: dict = {}
        lines = ["[chart]", f"coords = {', '.join(self.coords)}"]
        for name, (lo, hi) in zip(self.coords, self.intervals):
            lines.append(f"{name} = {lo!r}, {hi!r}")
        lines.append(f"margin = {self.margin!r}")
        lines += ["", "[metric]"]
        for i, j, e in self.entries:
            lines.append(f'g_{i}_{j} = "{_unparse(e.root, 0, memo)}"')
        lines += ["", "[signature]", f"kind = {self.signature}"]
        if self.killing is not None:
            lines += ["", "[killing]"]
            for i, e in enumerate(self.killing.components):
                lines.append(f'T_{i} = "{_unparse(e.root, 0, memo)}"')
            lines.append(f"unit = {'true' if self.killing.unit else 'false'}")
        return "\n".join(lines) + "\n"


# --- spec file parsing -------------------------------------------------------
# The file text is read in place: lines, sections, keys and values are found
# by offset, and each expression is parsed between its quotes, never copied.

_METRIC_KEY_RE = re.compile(r"g_([0-9]+)_([0-9]+)\Z")
# str.splitlines ends a line at each of these, and at "\r\n" as one break
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _lines(text: str):
    """(start, stop) of each line of ``text.splitlines()``, found with ``str.find``."""
    # the next offset at or after ``start`` of each break character text holds
    ahead = {c: at for c in _BREAKS if (at := text.find(c)) >= 0}
    start = 0
    while len(ahead) > 1:
        stop = min(ahead.values())
        yield start, stop
        start = stop + (2 if text.startswith("\r\n", stop) else 1)
        for c, at in list(ahead.items()):
            if at < start:
                at = text.find(c, start)
                if at < 0:
                    del ahead[c]
                else:
                    ahead[c] = at
    for c, stop in ahead.items():  # one break character is left
        while stop >= 0:
            yield start, stop
            start = stop + 1
            stop = text.find(c, start)
    if start < len(text):
        yield start, len(text)


def _parse_sections(text: str):
    """Section name -> [(key, start, end, lineno)], one per 'key = value' line.

    ``text[start:end]`` is the value: the line up to any '#', after the
    first '=', stripped of whitespace.  Lines are numbered as by
    ``str.splitlines``; blank and comment-only lines count but hold nothing.
    """
    sections: dict[str, list[tuple[str, int, int, int]]] = {}
    current = None
    for lineno, (start, stop) in enumerate(_lines(text), start=1):
        cut = text.find("#", start, stop)
        if cut < 0:
            cut = stop
        first = start
        while first < cut and text[first].isspace():
            first += 1
        if first == cut:
            continue
        last = cut  # text[first] is no space, so this stops after it
        while text[last - 1].isspace():
            last -= 1
        if text[first] == "[":
            if text[last - 1] != "]":
                raise SpecFormatError(f"line {lineno}: malformed section header '{text[start:stop].strip()}'")
            name = text[first + 1 : last - 1].strip()
            if name in sections:
                raise SpecFormatError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = []
            current = name
            continue
        if current is None:
            raise SpecFormatError(f"line {lineno}: content before any section header")
        eq = text.find("=", first, last)
        if eq < 0:
            raise SpecFormatError(f"line {lineno}: expected 'key = value'")
        value = eq + 1
        while value < last and text[value].isspace():
            value += 1
        sections[current].append((text[first:eq].strip(), value, last, lineno))
    return sections


def _as_mapping(pairs, section):
    """key -> (start, end, lineno) of one section's pairs; a key may appear once."""
    out = {}
    for key, start, end, lineno in pairs:
        if key in out:
            raise SpecFormatError(f"line {lineno}: duplicate key '{key}' in [{section}]")
        out[key] = (start, end, lineno)
    return out


def _quoted(text: str, start: int, end: int, lineno: int) -> tuple[int, int]:
    """(start, end) of the expression inside the value ``text[start:end]``'s double quotes."""
    if end - start < 2 or text[start] != '"' or text[end - 1] != '"':
        raise SpecFormatError(f"line {lineno}: expression values must be double-quoted")
    return start + 1, end - 1


def _parse_float(value: str, lineno: int) -> float:
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    # float() also reads non-ASCII digits and '_' digit separators
    if "_" in value or not (value.isascii() and math.isfinite(number)):
        raise SpecFormatError(f"line {lineno}: expected a finite number, found '{value}'")
    return number


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

    def value(entry):
        """(text, lineno) of a short value, one that is no expression."""
        start, end, lineno = entry
        return data[start:end], lineno

    chart = _as_mapping(sections["chart"], "chart")
    if "coords" not in chart:
        raise SpecFormatError("[chart] is missing the 'coords' key")
    coords = tuple(name.strip() for name in value(chart["coords"])[0].split(","))
    if any(not _KEY_RE.match(name) for name in coords):
        raise SpecFormatError(f"invalid coordinate names {coords}")
    if len(set(coords)) != len(coords):
        raise SpecFormatError("duplicate coordinate names")
    n = len(coords)
    if n < 2:
        raise SpecFormatError("dimension must be at least 2")

    margin = DEFAULT_MARGIN
    if "margin" in chart:
        margin = _parse_float(*value(chart["margin"]))
        if margin <= 0:
            raise SpecFormatError("margin must be positive")
    intervals = []
    for name in coords:
        if name not in chart:
            raise SpecFormatError(f"[chart] is missing the interval for '{name}'")
        interval, lineno = value(chart[name])
        parts = interval.split(",")
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
    kind = value(signature["kind"])[0]
    if kind not in SIGNATURES:
        raise SpecFormatError(f"invalid signature tag '{kind}'")

    # One node table for every g_i_j and T_i: equal subexpressions anywhere in
    # the file become one object, which the id-keyed jet cache evaluates once.
    nodes: dict = {}
    raw_entries: dict[tuple[int, int], Expression] = {}
    for key, start, end, lineno in sections["metric"]:
        m = _METRIC_KEY_RE.match(key)
        if not m:
            raise SpecFormatError(f"line {lineno}: metric keys look like g_i_j, found '{key}'")
        i, j = int(m.group(1)), int(m.group(2))
        if i >= n or j >= n:
            raise SpecFormatError(f"line {lineno}: index out of range in '{key}' (dimension {n})")
        expr = _parse_interned(data, coords, nodes, *_quoted(data, start, end, lineno))
        lo, hi = min(i, j), max(i, j)
        if (lo, hi) in raw_entries:
            if raw_entries[(lo, hi)].root is not expr.root:
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
            _parse_interned(data, coords, nodes, *_quoted(data, *km[f"T_{i}"])) for i in range(n)
        )
        unit_text = value(km["unit"])[0]
        if unit_text not in ("true", "false"):
            raise SpecFormatError("killing 'unit' must be true or false")
        killing = KillingField(comps, unit_text == "true")

    return MetricSpec(coords, tuple(intervals), margin, kind, entries, killing)


def load_spec_file(path) -> MetricSpec:
    with open(path, "rb") as fh:
        return load_spec(fh.read())


# --- evaluation --------------------------------------------------------------

def outside_chart(spec: MetricSpec, pts: np.ndarray) -> np.ndarray:
    """Mask (B,) of the points (B, n) not interior to the chart by the margin."""
    lo = np.array([iv[0] for iv in spec.intervals]) + spec.margin
    hi = np.array([iv[1] for iv in spec.intervals]) - spec.margin
    slack = 1e-12
    inside = (pts >= lo - slack) & (pts <= hi + slack)  # NaN is outside
    # reduced along B as (n, B) rows: .all(axis=-1) over a short last axis runs row by row
    return ~np.ascontiguousarray(inside.T).all(axis=0)


def require_interior(spec: MetricSpec, pts: np.ndarray) -> None:
    outside = outside_chart(spec, pts)
    if outside.any():
        bad = pts[outside][0]
        raise ChartDomainError(
            f"point {bad.tolist()} is not interior to the chart by the margin {spec.margin}"
        )


def metric_fields(spec: MetricSpec, pts, cache: dict | None = None):
    """Batched (g, dg, d2g) with shapes (B,n,n), (B,n,n,n), (B,n,n,n,n).

    One ``expr.eval_jet_batch`` call, one iterative walk over the DAG,
    evaluates the row-major ``expression_matrix`` (symmetric partners and
    zeros are shared objects, evaluated once), so g, dg[b,k,i,j] = d_k g_ij
    and d2g[b,k,l,i,j] = d_k d_l g_ij are reshapes of its arrays.  ``cache``
    is a jet cache valid for exactly these points; sharing one with the
    Killing field's components evaluates their common subexpressions once.
    Derivatives off an entry's support are exact zeros.
    """
    pts = np.asarray(pts, dtype=float)
    batch, n = pts.shape
    val, grad, hess = eval_jet_batch([e for row in spec.expression_matrix for e in row], pts, cache)
    g = val.reshape(batch, n, n)
    dg = grad.reshape(batch, n, n, n)
    d2g = hess.reshape(batch, n, n, n, n)
    require_finite(g, dg, d2g)
    return g, dg, d2g


def require_finite(g: np.ndarray, dg: np.ndarray, d2g: np.ndarray) -> None:
    """Raise EvalDomainError unless the metric and its derivatives are all finite."""
    if not np.isfinite(g).all() or not np.isfinite(dg).all() or not np.isfinite(d2g).all():
        raise EvalDomainError("non-finite metric component", "metric evaluation")


def check_signature(signature: str, g: np.ndarray, tol: Tolerances) -> None:
    """Raise unless every g (B, n, n) is non-singular with the eigenvalue signs of ``signature``."""
    vals = eigvalsh(g)
    size = np.abs(vals)
    # <=, so that an all-zero g, where both sides are 0, counts as singular
    if (size.min(axis=-1) <= tol.near_singular * size.max(axis=-1)).any():
        raise NearSingularError(f"smallest |eigenvalue| of g below {tol.near_singular} times the largest")
    negatives = (vals < 0.0).sum(axis=-1)
    expected = 1 if signature == "lorentzian" else 0
    if (negatives != expected).any():
        raise SignatureError(f"eigenvalue signs disagree with declared signature '{signature}'")


def metric_batch(spec: MetricSpec, pts, tol: Tolerances = DEFAULT, cache: dict | None = None):
    """Validated batched metric data: (g, g_inv, dg, d2g)."""
    pts = np.asarray(pts, dtype=float)
    require_interior(spec, pts)
    g, dg, d2g = metric_fields(spec, pts, cache)
    g_inv = invert(g)
    check_signature(spec.signature, g, tol)
    return g, g_inv, dg, d2g


def first_kind(dg: np.ndarray) -> np.ndarray:
    """First-kind symbols Gamma_{m,ij} as [b,m,i,j], from dg[b,k,i,j] = d_k g_ij.

    Built once per metric: ``christoffel_batch`` raises them and
    ``riemann_batch`` pairs them with the raised ones.
    """
    return 0.5 * (dg.transpose(0, 3, 1, 2) + dg.transpose(0, 2, 3, 1) - dg)


def christoffel_batch(g_inv: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Levi-Civita symbols Gamma[b,k,i,j] = g^{km} Gamma_{m,ij}, one batched matmul.

    ``first`` holds the first-kind symbols, ``first_kind(dg)``.
    """
    b, n = first.shape[:2]
    return (g_inv @ first.reshape(b, n, n * n)).reshape(b, n, n, n)


def riemann_batch(gamma: np.ndarray, first: np.ndarray, d2g: np.ndarray) -> np.ndarray:
    """Rm on coordinate pairs, Rc[b, A, C] = g(R(d_i,d_j)d_k, d_l) for A = (i, j), C = (k, l), (B, N, N).

    The pairs are those of ``Lambda2Basis.standard(n)`` read as coordinate
    indices; ``gamma`` = ``christoffel_batch(g_inv, first)``,
    ``first`` = ``first_kind(dg)`` and d2g[b,i,k,j,l] = d_i d_k g_jl.  With

    Rm_ijkl = 1/2 (d_i d_k g_jl - d_i d_l g_jk - d_j d_k g_il + d_j d_l g_ik)
              + Gamma_{m,jl} Gamma^m_ik - Gamma_{m,il} Gamma^m_jk

    differentiating the lowered symbols needs no derivative of g^-1 and no
    final lowering by g.  Rm_ijkl = S_ijkl - S_jikl, where
    S_ijkl = Q[ik, jl] + 1/2 (d_i d_k g_jl - d_i d_l g_jk) and
    Q[b,ik,jl] = Gamma^m_ik Gamma_{m,jl} is one batched product.  Only the
    N^2 entries on pairs are read out of Q and d2g, by ``take`` on their
    flat layout at ``Lambda2Basis.riemann_gathers``, so no n^4 Riemann tensor
    is built; each entry goes through the same operations as in the full
    tensor, so it holds the same bits.
    """
    b, n = gamma.shape[:2]
    basis = Lambda2Basis.standard(n)
    size = basis.size
    q_at, h_at = basis.riemann_gathers
    q = (gamma.reshape(b, n, n * n).swapaxes(1, 2) @ first.reshape(b, n, n * n)).reshape(b, n**4)
    # one take per array: at n = 8 it runs about 1.6x faster than a take per block
    q = q.take(q_at, axis=1).reshape(b, 2, size * size)  # Q at [i,k,j,l], [j,k,i,l]
    h = d2g.reshape(b, n**4).take(h_at, axis=1).reshape(b, 4, size * size)
    rc = q[:, 0] + 0.5 * (h[:, 0] - h[:, 1])
    rc -= q[:, 1] + 0.5 * (h[:, 2] - h[:, 3])
    return rc.reshape(b, size, size)


def frame_components_batch(comps: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Contract coordinate components (B,n,n,n,n) against frames (B,n,n) (rows = vectors).

    out[b,a,c,d,e] = E[b,a,i] E[b,c,j] E[b,d,k] E[b,e,l] comps[b,i,j,k,l], taken
    one frame index at a time as four batched matrix products, O(B n^5) in
    all (the unordered five-operand form is O(B n^8)).
    """
    b, n = frames.shape[:2]
    t = comps.reshape(b, n**3, n) @ frames.swapaxes(1, 2)  # [b, ijk, e]
    t = frames[:, None] @ t.reshape(b, n * n, n, n)  # [b, ij, d, e]
    t = frames[:, None] @ t.reshape(b, n, n, n * n)  # [b, i, c, de]
    return (frames @ t.reshape(b, n, n**3)).reshape(b, n, n, n, n)  # [b, a, cde]
