"""Grid scans, k-positivity of curvature-operator spectra, and the Betti verdict logic.

A symmetric operator is k-positive when the sum of its k smallest
eigenvalues is strictly positive.  For an n-manifold whose symmetric matrix
is (n-p)-positive at every point, 1 <= p <= floor(n/2):

  * odd n:   b_1 = ... = b_p = 0 and b_{n-p} = ... = b_{n-1} = 0;
  * even n = 2m, p = m: impossible (chi(M) = 0 cannot hold), reported as a
    contradiction between the input and realizability as a closed
    stationary spacetime;
  * even n = 2m, p < m: the same vanishing set, except that in dimensions
    4, 8, 12, ... the case p = m - 1 is also contradictory, while in
    dimensions 6, 10, 14, ... the case p = m - 1 pins the middle Betti
    number to 2 via chi(M) = 0.

A grid verdict is evidence, not proof: positivity is sampled, so every
result carries the minimal margin and a point that attains it: the first
grid point whose margin is within a relative ``tol.identity`` of the
minimum (``near_argmin``).

Every grid goes through one driver, ``chunked``: it computes one point per
orbit of the coordinates no expression reads (``orbits``), runs a step on
chunks of at most ``CHUNK`` of those points, re-localizes a failure to its
grid point, and spreads the step's arrays back over the grid.
``scan_points`` (the spectra ``analyze`` reads), ``verify_points`` (the
identity table of ``verify``, one column per ``VERIFY_LINES`` check), both
in the completions of ``frames.checked_completions``, and the CLI's
``export`` records (adapted-frame matrices) all run through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature_ops import CurvatureOperatorMatrix, operator_arrays
from .errors import GridPointError, StatcurvError
from .frames import checked_completions, orthonormal_completions
from .lambda2 import Lambda2Basis
from .linalg import eigvalsh
from .metric import outside_chart
from .stationary import (
    StationaryStructure,
    conformal_normalize,
    connection_residual_batch,
    curvature_residual_batch,
    structure_data,
)
from .tolerances import DEFAULT, Tolerances

CHUNK = 2048

REASON_NONE = "no conclusion: positivity is sufficient, not necessary"
REASON_MIDDLE = (
    "no closed stationary Lorentzian manifold can satisfy this: "
    "chi(M) = 0 forces a negative middle Betti number"
)
REASON_PARITY = (
    "input not realizable as a closed stationary spacetime / numerical "
    "hypothesis violated: chi(M) = 0 forces a negative middle Betti number"
)


@dataclass(frozen=True)
class BettiVerdict:
    dimension: int
    p: int
    holds_everywhere: bool
    vanishing: tuple[int, ...]
    middle_betti: int | None
    contradiction: bool
    reason: str


@dataclass(frozen=True)
class GridScanResult:
    """One p's verdict over a grid; ``points`` (B, n) and ascending ``eigenvalues`` (B, N) by row."""

    verdict: BettiVerdict
    grid_sizes: tuple[int, ...]
    min_margin: float
    argmin_point: tuple[float, ...]
    max_identity_residual: float
    points: np.ndarray
    eigenvalues: np.ndarray


def k_positivity(matrix, k: int, tol: Tolerances = DEFAULT) -> tuple[float, bool]:
    """Sum of the k smallest eigenvalues and whether it is strictly positive."""
    if isinstance(matrix, CurvatureOperatorMatrix):
        if matrix.flavor == "lorentzian":
            raise ValueError("k-positivity is undefined for the non-symmetric lorentzian flavor")
        entries = matrix.entries
    else:
        entries = np.asarray(matrix, dtype=float)
    # relative to the largest entry alone, so a rescaled matrix passes or fails alike
    scale = float(np.abs(entries).max(initial=0.0))
    if float(np.abs(entries - entries.T).max()) > tol.identity * scale:
        raise ValueError("k-positivity requires a symmetric matrix")
    vals = eigvalsh(0.5 * (entries + entries.T))
    if not 1 <= k <= vals.size:
        raise ValueError(f"k = {k} outside 1..{vals.size}")
    total = float(vals[:k].sum())
    return total, total > tol.positivity


def admissible_p(n: int) -> range:
    return range(1, n // 2 + 1)


def betti_conclusions(n: int, p: int, holds_everywhere: bool) -> BettiVerdict:
    """Pure decision logic mapping an (n-p)-positivity scan to conclusions."""
    if n < 3:
        raise ValueError("dimension must be at least 3")
    if p not in admissible_p(n):
        raise ValueError(f"p = {p} outside 1..floor(n/2) = {n // 2}")
    if not holds_everywhere:
        return BettiVerdict(n, p, False, (), None, False, REASON_NONE)
    vanishing = tuple(sorted(set(range(1, p + 1)) | set(range(n - p, n))))
    if n % 2 == 1:
        return BettiVerdict(n, p, True, vanishing, None, False, "")
    m = n // 2
    if p == m:
        return BettiVerdict(n, p, True, (), None, True, REASON_MIDDLE)
    if m % 2 == 0 and p == m - 1:  # dimensions 4, 8, 12, ...
        return BettiVerdict(n, p, True, (), None, True, REASON_PARITY)
    middle = 2 if (m % 2 == 1 and p == m - 1) else None  # dimensions 6, 10, 14, ...
    return BettiVerdict(n, p, True, vanishing, middle, False, "")


def build_grid(spec, sizes) -> tuple[np.ndarray, tuple[int, ...]]:
    """Cartesian interior grid; returns points (B, n) in row-major point order."""
    axes = spec.interior_linspace(sizes)
    shape = tuple(len(a) for a in axes)
    if 0 in shape:
        return np.empty((0, len(axes))), shape
    n = len(axes)
    pts = np.empty(shape + (n,))
    for i, a in enumerate(axes):  # axis i varies along grid dimension i, as np.meshgrid "ij" lays it
        pts[..., i] = a.reshape((len(a),) + (1,) * (n - 1 - i))
    return pts.reshape(math.prod(shape), n), shape


def orbits(s: StationaryStructure, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One row of ``pts`` (B, n) per orbit of the coordinates that no expression reads.

    Translation along a coordinate that no g_L entry and no T component
    reads is an isometry preserving T, and a point's coordinates reach the
    pipeline only through the jets of what it reads, so every array computed
    at a point is bitwise the same along that coordinate.  Returns ``first``,
    the rows that represent the orbits, in order of first occurrence, and
    ``inverse`` (B,), the orbit of each row: ``values[inverse]`` spreads
    values computed at ``pts[first]`` back over ``pts``.  Scanning the rows
    in that order, the first failing one is the first failing row of
    ``pts``, and first-occurrence argmins and argmaxes land where a scan of
    every row puts them.

    Rows are grouped by the bits of the coordinates read, so 0.0 and -0.0
    stay apart.  The chart-interior check reads every coordinate, so each
    row outside the chart is an orbit of its own and is checked itself.

    The key columns are the int64 bits of each coordinate read and the
    row number of a row outside the chart (-1 inside).  One stable
    ``np.lexsort`` over them brings equal keys together, each run starting
    at its first row; ``tests/oracles.py`` ``orbits_by_unique``, the same
    keys grouped by ``np.unique(axis=0)``, pins ``first`` and ``inverse``
    to this bit for bit.
    """
    batch = len(pts)
    outside = np.where(outside_chart(s.spec, pts), np.arange(batch), -1)
    columns = [pts[:, i].view(np.int64) for i in s.read_coordinates] + [outside]
    perm = np.lexsort(columns)
    opens = np.zeros(batch, dtype=bool)  # sorted position that opens a run of equal keys
    opens[:1] = True
    for column in columns:
        ordered = column[perm]
        opens[1:] |= ordered[1:] != ordered[:-1]
    heads = perm[opens]  # the first row of each run
    is_first = np.zeros(batch, dtype=bool)
    is_first[heads] = True
    rank = is_first.cumsum() - 1  # at a first row: its orbit's number in order of occurrence
    inverse = np.empty(batch, dtype=np.intp)
    inverse[perm] = rank[heads][opens.cumsum() - 1]
    return is_first.nonzero()[0], inverse


def chunked(s: StationaryStructure, pts: np.ndarray, step) -> tuple[np.ndarray, ...]:
    """``step``'s arrays at every row of ``pts`` (B, n), computed once per orbit.

    ``step`` takes a chunk of points (C, n) and returns a tuple of arrays
    with C rows each.  It runs on consecutive chunks of at most ``CHUNK``
    orbit representatives (see ``orbits``), and the arrays come back
    concatenated and spread over ``pts``.  An empty ``pts`` runs one empty
    chunk, so the arrays keep their trailing shapes.  A failure is
    re-localized to the first point that fails on its own and re-raised as
    GridPointError with the coordinates attached.
    """
    first, inverse = orbits(s, pts)
    reps = pts[first]
    out = []
    for start in range(0, max(len(reps), 1), CHUNK):
        chunk = reps[start : start + CHUNK]
        try:
            out.append(step(chunk))
        except StatcurvError:
            for row in chunk:
                try:
                    step(row[None, :])
                except StatcurvError as exc:
                    raise GridPointError(row, exc) from exc
            raise
    return tuple(np.concatenate(column)[inverse] for column in zip(*out))


def scan_points(
    s: StationaryStructure, pts: np.ndarray, tol: Tolerances = DEFAULT
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending spectra (B, N) of the symmetrized matrices and central-identity residuals (B,).

    Both are read in the completions of T (``checked_completions``), with no
    eigenvector, clustering or pairing; the adapted frames of ``operators_at``
    give the same spectra up to rounding.  Only one point per orbit (see
    ``orbits``) is computed, and each chunk's matrices are reduced to these
    two arrays before the next chunk is built.
    """

    def step(chunk):
        data = structure_data(s, chunk, tol)
        vectors, omega, _, _, _ = checked_completions(data, tol)
        basis = Lambda2Basis.standard(s.dimension)
        _, m_s, central, _ = operator_arrays(data, vectors, omega, basis)
        return eigvalsh(m_s), central

    return chunked(s, np.asarray(pts, dtype=float), step)


# one column of ``verify_points`` per line: the check's label and the
# Tolerances field that bounds its residual.  The last three are read in the checked
# completions: the part of nab T no rotation-block frame takes up (T block, symmetric
# part), the positive part of the top squared-map eigenvalue, and max |m_s - m_r|
VERIFY_LINES = (
    ("connection nabla_T_T", "pairing"),
    ("connection nabla_X_T", "pairing"),
    ("connection nabla_X_X", "pairing"),
    ("connection nabla_T_X", "pairing"),
    ("curvature  mixed", "oracle"),
    ("curvature  timelike", "oracle"),
    ("curvature  spatial", "oracle"),
    ("frame      rotation_blocks", "pairing"),
    ("frame      eigen_nonpositive", "eigen_nonpositive"),
    ("operator   central_identity", "pairing"),
)


def verify_points(s: StationaryStructure, pts: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Residual table (B, 10), one column per line of ``VERIFY_LINES``.

    The connection and curvature identities are checked for ``s`` in
    frames that complete T at its own length; the frame and operator checks
    read ``checked_completions`` of ``s`` itself when T is declared unit (one
    completion then serves every column) and of its conformal normalization
    otherwise.  Only one point per orbit is computed.
    """
    unit = s if s.unit else conformal_normalize(s)

    def step(chunk):
        data = structure_data(s, chunk, tol)
        data_u = data if unit is s else structure_data(unit, chunk, tol)
        vectors, omega, _, vals, residual = checked_completions(data_u, tol)
        frames = vectors if unit is s else orthonormal_completions(data, tol)
        central = operator_arrays(data_u, vectors, omega, Lambda2Basis.standard(s.dimension))[2]
        top = vals[:, -1]
        identities = (connection_residual_batch(data, frames), curvature_residual_batch(data, frames))
        return (np.column_stack([*identities, residual, np.where(top > 0.0, top, 0.0), central]),)

    return chunked(s, np.asarray(pts, dtype=float), step)[0]


def near_argmin(values: np.ndarray, window: float) -> int:
    """First row whose value is within ``window`` of the minimum.

    Values that tie to rounding (all S3 margins equal 2 to within 1e-10)
    would otherwise put the exact argmin wherever the last rounding error falls.
    """
    return int(np.argmax(values <= values.min() + window))


def grid_scans(
    s: StationaryStructure, grid_sizes, ps, tol: Tolerances = DEFAULT
) -> list[GridScanResult]:
    """One scan of the grid, one (n-p)-positivity result per p in ``ps``.

    The spectra do not depend on p, so every result shares them.
    """
    n = s.dimension
    for p in ps:
        if p not in admissible_p(n):
            raise ValueError(f"p = {p} outside 1..floor(n/2) = {n // 2}")
    pts, shape = build_grid(s.spec, grid_sizes)
    if pts.shape[0] == 0:
        raise ValueError("empty grid")
    vals, central = scan_points(s, pts, tol)
    residual = float(central.max())
    results = []
    for p in ps:
        margins = _margins(vals, n - p)
        min_margin = float(margins.min()) + 0.0  # folds -0.0 into 0.0
        verdict = betti_conclusions(n, p, bool(min_margin > tol.positivity))
        window = tol.identity * float(np.abs(margins).max())
        argmin_point = tuple(float(x) for x in pts[near_argmin(margins, window)])
        results.append(GridScanResult(verdict, shape, min_margin, argmin_point, residual, pts, vals))
    return results


def _margins(vals: np.ndarray, k: int) -> np.ndarray:
    """Sum (B,) of the first k entries of each row of ``vals`` (B, N), added left to
    right, so the bits of ``vals.cumsum(axis=1)[:, k - 1]``; a cumsum along a
    short last axis runs row by row, about 8x slower at B = 1000."""
    total = vals[:, 0].copy()
    for j in range(1, k):
        total += vals[:, j]
    return total


def grid_scan(
    s: StationaryStructure, grid_sizes, p: int, tol: Tolerances = DEFAULT
) -> GridScanResult:
    """Completion frame -> symmetrized matrix -> (n-p)-positivity over a grid."""
    return grid_scans(s, grid_sizes, [p], tol)[0]


_QUANTILES = (0.0, 0.25, 0.5, 0.75, 1.0)


def _linear_quantiles(rows: np.ndarray) -> np.ndarray:
    """``_QUANTILES`` (R, 5) of each row of ``rows`` (R, m), m >= 1, by numpy's default 'linear' rule.

    One sort, then numpy's own arithmetic: quantile q sits at the virtual
    index v = (m - 1) q between a = sorted[floor v] and b = sorted[floor v + 1]
    with weight gamma = v - floor v, and is a + (b - a) gamma, or
    b - (b - a)(1 - gamma) where gamma >= 0.5.  At v >= m - 1 numpy takes
    a = b = the maximum with gamma = v + 1, and a row holding NaN gives its
    NaN.  So the result is ``np.quantile(rows, _QUANTILES, axis=1).T`` up to the
    sign of a zero (a sort and numpy's partition may order 0.0 and -0.0
    apart); ``tests/oracles.py`` ``quantiles_by_numpy`` pins it, with
    ``+ 0.0`` applied to both.
    """
    ordered = np.sort(rows, axis=1)
    last = ordered.shape[1] - 1
    picks = []  # (index of a, index of b, gamma) per quantile
    for q in _QUANTILES:  # Python floats round as numpy's float64 arrays do
        v = last * q
        if v < last:
            below = math.floor(v)
            picks.append((below, below + 1, v - below))
        else:  # numpy reads the maximum (its index -1) for both, with gamma = v - (-1)
            picks.append((last, last, v + 1))
    lo, hi, gamma = zip(*picks)
    gamma = np.array(gamma)
    a, b = ordered[:, lo], ordered[:, hi]
    diff = b - a
    out = np.where(gamma >= 0.5, b - diff * (1.0 - gamma), a + diff * gamma)
    nan_rows = np.isnan(ordered[:, -1])
    out[nan_rows] = ordered[nan_rows, -1:]
    return out


def margin_quantiles(result: GridScanResult) -> dict[str, list[float]]:
    """Grid quantiles (min/quartiles/max) of the margin and extreme eigenvalues.

    ``_linear_quantiles`` of the three rows, the values ``np.quantile`` gives.
    """
    k = result.verdict.dimension - result.verdict.p
    margins = _margins(result.eigenvalues, k)
    rows = np.stack([margins, result.eigenvalues[:, 0], result.eigenvalues[:, -1]])
    # + 0.0 folds -0.0 into 0.0, as grid_scans does for min_margin
    quantiles = (_linear_quantiles(rows) + 0.0).tolist()
    return dict(zip(("margin", "smallest_eigenvalue", "largest_eigenvalue"), quantiles))


def verdict_json_dict(result: GridScanResult) -> dict:
    """The documented JSON verdict schema (version 1)."""
    v = result.verdict
    return {
        "schema_version": 1,
        "dimension": v.dimension,
        "p": v.p,
        "N": result.eigenvalues.shape[1],
        "grid": list(result.grid_sizes),
        "min_margin": result.min_margin,
        "argmin_point": list(result.argmin_point),
        "holds_everywhere": v.holds_everywhere,
        "vanishing_betti": list(v.vanishing),
        "middle_betti": v.middle_betti,
        "contradiction": v.contradiction,
        "reason": v.reason,
        "max_identity_residual": result.max_identity_residual,
        "eigenvalue_quantiles": margin_quantiles(result),
        "sampling_caveat": "grid verdicts are evidence, not proof, of pointwise positivity",
    }
