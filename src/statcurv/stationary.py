"""The pair (g_L, T): Killing checks, the metric flip, and identity verification.

A ``StationaryStructure`` is its Lorentzian spec alone: T and its unit flag
are read from the [killing] section, without which it is not built.

Given a Lorentzian metric with a timelike Killing field T, the flip

    g = g_L - 2 (T_flat (x) T_flat) / g_L(T,T),        T_flat = g_L(T, .)

produces a Riemannian metric sharing T as a Killing field; applied twice it
returns g_L.  ``flip_spec`` composes the flip as expressions; the pipeline
instead builds g, dg and d2g in arrays (``_flipped_metric``) from the jets of
g_L and T it already holds, by the product rule on g = g_L + u theta theta^T,
theta = g_L T, u = -2/g_L(T,T), along the coordinates that g_L and T read
(``StationaryStructure.read_coordinates``).  T must be timelike before the
flip, and g passes the checks a spec's metric passes: finite values and
derivatives, an inverse and the Riemannian signature.  ``counterpart_spec``
stays as the composed flip, the tests' oracle for the arrays.

Four connection identities relate the two Levi-Civita connections; they are
checked from the coordinate Christoffels of g and g_L.

The three curvature identity classes are written once, in
``flipped_curvature``: ``curvature_residual_batch`` checks its prediction
against Rm_g, and ``curvature_ops`` builds the symmetrized operator from it.
Both work on the Lambda^2 pair components of the curvature tensors,
N^2 = (n(n-1)/2)^2 values per point instead of n^4: ``StructureData`` holds
Rm_L and Rm_g on coordinate pairs (``metric.riemann_batch``), and each
consumer takes both into its frames with one compound matrix
(``lambda2.pair_components``).

Contractions are written as batched ``@`` products on reshaped views, such
as ``gamma.reshape(B, n * n, n) @ t[:, :, None]``: numpy runs an ``einsum``
without ``optimize`` in one generic sum-of-products loop over every index,
several times slower here than its matmul kernels.  The identity checks read
``dgtt``, ``cov_t_g``, the Lie derivative of ``_lie_defect`` and
``connection_residuals``, all written so; ``tests/oracles.py`` keeps their
einsum forms as oracles.  ``structure_data``'s g_L(T,T) and nab^L T keep
einsum: they feed the frames, and there the matmul forms round differently
enough to move report bytes (on the n = 5 golden spec, the export report
for g_L(T,T), and the analyze, export and verify reports for nab^L T).

Frame-level quantities never require differentiating frame fields: the
identities below only involve connection *differences* (where the frame
derivative cancels), covariant derivatives of T (a genuine vector field with
known jets), and directional derivatives of the scalar g_L(T,T).

The Killing defect max|Lie_T g_L| is a function of g_L, T and their first
derivatives, all fields of ``StructureData``.  ``structure_data`` remembers,
on the structure, the points and tolerances of the data it last returned
(through a weak reference, so the data lives no longer than its caller's
reference to it), and ``killing_defect_batch`` reads ``StructureData.killing``
from that data while it is alive and was built for the same point bytes and
the same tolerances; otherwise from a new ``structure_data``.  There is one
route to the defect, and every input it accepts has passed the flip.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import NonTimelikeError, SpecFormatError
from .expr import Expression, coordinates_read, eval_jet_batch
from .lambda2 import Lambda2Basis, compound, pair_components
from .linalg import invert
from .metric import (
    KillingField,
    MetricSpec,
    check_signature,
    christoffel_batch,
    first_kind,
    metric_batch,
    require_finite,
    riemann_batch,
)
from .tolerances import DEFAULT, Tolerances


def _require_timelike(gtt: Expression, signature: str) -> None:
    """NonTimelikeError if g(T,T) folds to a constant of the wrong sign for ``signature``
    (T null or spacelike by the algebra of constants alone): >= 0 for a
    Lorentzian metric, <= 0 for a Riemannian one."""
    value = gtt.constant_value()
    lorentzian = signature == "lorentzian"
    if value is not None and (value >= 0.0 if lorentzian else value <= 0.0):
        sign = "g_L(T,T) >= 0" if lorentzian else "g(T,T) <= 0"
        raise NonTimelikeError(f"{sign} everywhere: it folds to the constant {value!r}")


def flip_spec(spec: MetricSpec) -> MetricSpec:
    """Symbolic metric flip g_L - 2 T_flat (x) T_flat / g_L(T,T), with T read from
    ``spec.killing``; swaps the declared signature tag and keeps the [killing] section.

    Each sum takes only its terms with no literally zero factor, in index
    order, and an entry (i, j) with T_flat_i or T_flat_j zero is g_L's own
    entry.  A zero factor folds its term to 0, and x + 0 and 0 + x to x, so
    these are the trees of the dense sums term by term, without the zero
    products.  2 T_flat_i is built once per row.  ``_require_timelike``
    refuses a g(T,T) that folds to a constant before any division.
    """
    t_exprs = spec.killing.components
    n = spec.dimension
    grid = spec.expression_matrix
    zero = Expression.constant(0.0, spec.coords)
    t_flat = [
        sum(
            (grid[i][k] * t_exprs[k] for k in range(n) if not (grid[i][k].is_zero() or t_exprs[k].is_zero())),
            zero,
        )
        for i in range(n)
    ]
    gtt = sum(
        (t_exprs[i] * t_flat[i] for i in range(n) if not (t_exprs[i].is_zero() or t_flat[i].is_zero())), zero
    )
    _require_timelike(gtt, spec.signature)
    entries = []
    for i in range(n):
        twice = 2.0 * t_flat[i]
        for j in range(i, n):
            if t_flat[i].is_zero() or t_flat[j].is_zero():
                e = grid[i][j]
            else:
                e = grid[i][j] - twice * t_flat[j] / gtt
            if not e.is_zero():
                entries.append((i, j, e))
    signature = "riemannian" if spec.signature == "lorentzian" else "lorentzian"
    return replace(spec, signature=signature, entries=tuple(entries))


@dataclass(frozen=True)
class StationaryStructure:
    """A Lorentzian MetricSpec whose [killing] section holds the timelike Killing
    field T and whether it is declared unit; both are read from there."""

    spec: MetricSpec

    def __post_init__(self):
        if self.spec.signature != "lorentzian":
            raise SpecFormatError("stationary structures require a lorentzian spec")
        if self.spec.killing is None:
            raise SpecFormatError("spec has no [killing] section")

    @classmethod
    def from_spec(cls, spec: MetricSpec) -> "StationaryStructure":
        return cls(spec)

    @property
    def t(self) -> tuple[Expression, ...]:
        return self.spec.killing.components

    @property
    def unit(self) -> bool:
        return self.spec.killing.unit

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    @cached_property
    def counterpart_spec(self) -> MetricSpec:
        """The flipped (Riemannian) metric as composed expressions."""
        return flip_spec(self.spec)

    @cached_property
    def read_coordinates(self) -> tuple[int, ...]:
        """Sorted indices of the coordinates that some g_L entry or T component reads."""
        return coordinates_read([e for _, _, e in self.spec.entries] + list(self.t))

    @cached_property
    def gtt_expression(self) -> Expression:
        """g_L(T,T) as the sum over i, j of g_L_ij T_i T_j, in row-major order,
        of the terms with no literally zero factor (see ``flip_spec``)."""
        grid = self.spec.expression_matrix
        t = self.t
        n = self.dimension
        return sum(
            (
                grid[i][j] * t[i] * t[j]
                for i in range(n)
                if not t[i].is_zero()
                for j in range(n)
                if not (t[j].is_zero() or grid[i][j].is_zero())
            ),
            Expression.constant(0.0, self.spec.coords),
        )


def conformal_normalize(s: StationaryStructure) -> StationaryStructure:
    """Rescale g_L by 1/(-g_L(T,T)) so T becomes unit length.

    Every entry is divided by one shared divisor node -g_L(T,T), once
    ``_require_timelike`` has refused a constant g_L(T,T) >= 0.
    """
    gtt = s.gtt_expression
    _require_timelike(gtt, s.spec.signature)
    divisor = -gtt
    entries = tuple((i, j, e / divisor) for i, j, e in s.spec.entries)
    return StationaryStructure(replace(s.spec, entries=entries, killing=KillingField(s.t, True)))


def flipped_curvature(p_l: np.ndarray, omega: np.ndarray, gtt, basis: Lambda2Basis) -> np.ndarray:
    """Rm_g(pair_a; pair_c) (B, N, N) that the flip's curvature identities predict.

    ``p_l`` (B, N, N) holds Rm_L(pair_a; pair_c) over ``basis`` (see
    ``lambda2.pair_components``) in frames {T, X_1..X_{n-1}}, the X_i
    orthonormal for g and g_L; ``gtt`` is g_L(T,T) (scalar or (B,)) and
    w = ``omega`` holds g_L(nab^L_{X_i} T, X_j) at [b, i, j], row and column
    0 zero.  For T of any length, every component touching T changes sign and

        Rm_g(T,X,T,Y) = -Rm_L(T,X,T,Y) - 2 (w w^T)_XY,
        Rm_g(X,Y,Z,W) = Rm_L(X,Y,Z,W) + (2/gtt) (w_XW w_YZ - w_XZ w_YW - 2 w_XY w_ZW).

    On pairs (X,Y), (Z,W) the bracket is minus the 2x2 minor w(XY; ZW) and
    minus twice w_XY w_ZW; it vanishes on pairs touching T.
    """
    iv, iw = basis.legs
    w_pair = omega[:, iv, iw]  # w_XY of each pair
    # every step writes into pred or the one scratch array term: at n = 8, a
    # fresh (B, N, N) temporary per step made the call about three times slower
    pred = compound(basis, omega)
    term = np.empty_like(pred)
    pred += np.multiply(2.0 * w_pair[:, :, None], w_pair[:, None, :], out=term)
    pred *= (-2.0 / np.asarray(gtt))[..., None, None]
    x, sign = basis.t_legs
    spatial = sign == 0.0
    pred += np.multiply(p_l, np.where(spatial[:, None] & spatial[None, :], 1.0, -1.0), out=term)
    tt = -2.0 * omega @ omega.swapaxes(1, 2)
    n = omega.shape[1]
    np.take(tt.reshape(len(tt), n * n), x[:, None] * n + x, axis=1, out=term)
    term *= sign[:, None] * sign[None, :]
    pred += term
    return pred


# --- batched geometric data --------------------------------------------------

@dataclass(frozen=True)
class StructureData:
    """Everything the identity checks and operators need, batched over points.

    Index conventions: dg[b,k,i,j] = d_k g_ij; d2g[b,i,k,j,l] = d_i d_k g_jl;
    first_*[b,m,i,j] = Gamma_{m,ij} (first kind); gamma_*[b,k,i,j] =
    Gamma^k_ij; dt[b,i,k] = d_i T^k; dgtt[b,k] = d_k g_L(T,T);
    cov_*[b,k,i] = (nab_{d_i} T)^k; rm_*[b,A,C] = Rm(d_i, d_j, d_k, d_l)
    on the coordinate pairs A = (i, j), C = (k, l) of
    ``Lambda2Basis.standard(n)``, (B, N, N).  ``dgtt``, ``cov_t_g`` and the
    rm_* are built on first read from the stored jets and symbols.
    """

    points: np.ndarray
    gl: np.ndarray
    gl_inv: np.ndarray
    dgl: np.ndarray
    d2gl: np.ndarray
    first_l: np.ndarray
    gamma_l: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray
    first_g: np.ndarray
    gamma_g: np.ndarray
    t: np.ndarray
    dt: np.ndarray
    gtt: np.ndarray
    cov_t_l: np.ndarray

    @cached_property
    def dgtt(self) -> np.ndarray:
        b, n = self.t.shape
        t = self.t[:, :, None]
        dgl_t = (self.dgl.reshape(b, n * n, n) @ t).reshape(b, n, n)  # [b,k,i] = d_k g_ij T^j
        return (dgl_t @ t)[:, :, 0] + 2.0 * (self.dt @ (self.gl @ t))[:, :, 0]

    @cached_property
    def cov_t_g(self) -> np.ndarray:
        b, n = self.t.shape
        gamma_t = (self.gamma_g.reshape(b, n * n, n) @ self.t[:, :, None]).reshape(b, n, n)
        return self.dt.transpose(0, 2, 1) + gamma_t

    @cached_property
    def rm_l(self) -> np.ndarray:
        return riemann_batch(self.gamma_l, self.first_l, self.d2gl)

    @cached_property
    def rm_g(self) -> np.ndarray:
        return riemann_batch(self.gamma_g, self.first_g, self.d2g)

    @cached_property
    def killing(self) -> np.ndarray:
        """max_ij |(Lie_T g_L)_ij| per point (B,)."""
        return _lie_defect(self.gl, self.dgl, self.t, self.dt)


def _lie_defect(gl, dgl, t, dt) -> np.ndarray:
    """max_ij |(Lie_T g_L)_ij| (B,) from g_L, T and their first derivatives.

    (Lie_T g_L)_ij = T^k d_k g_ij + (dt g_L)_ij + (dt g_L)_ji, the last
    term by the symmetry of g_L.
    """
    b, n = t.shape
    dt_gl = dt @ gl  # [b,i,j] = d_i T^k g_kj
    lie = (t[:, None, :] @ dgl.reshape(b, n, n * n)).reshape(b, n, n) + dt_gl + dt_gl.swapaxes(1, 2)
    return np.abs(lie).max(axis=(1, 2))


def _jet_product(x, y, mul=np.matmul):
    """Jet of the batched product ``mul(x, y)`` from the jets of x and y.

    A jet is (value (B,p,q), first (B,k,p,q), second (B,k,k,p,q)) with
    derivatives along k coordinates; ``mul`` is a matrix product, or an
    elementwise one when x is a scalar jet of shape (B,1,1).  By the product rule

        d_a (xy) = (d_a x) y + x (d_a y),
        d_a d_c (xy) = (d_a d_c x) y + x (d_a d_c y) + (d_a x)(d_c y) + (d_c x)(d_a y),

    each term one broadcast product, summed left to right as
    ``expr._Jet.__mul__`` sums them; on S3 that reproduces the composed
    flip's bits.  With derivatives along one coordinate, the jets of x x^T
    are exactly symmetric in (i, j).
    """
    x0, x1, x2 = x
    y0, y1, y2 = y
    cross = mul(x1[:, :, None], y1[:, None])  # [b,a,c] = (d_a x)(d_c y)
    return (
        mul(x0, y0),
        mul(x1, y0[:, None]) + mul(x0[:, None], y1),
        mul(x2, y0[:, None, None]) + mul(x0[:, None, None], y2) + cross + cross.swapaxes(1, 2),
    )


def _flip_factor(gtt):
    """Jet of u = -2 / g_L(T,T) from the jet of g_L(T,T): u' = 2/x^2, u'' = -4/x^3."""
    x0, x1, x2 = gtt
    inv = 1.0 / x0
    d1 = 2.0 * inv * inv
    d2 = -2.0 * d1 * inv
    return (
        -2.0 * inv,
        d1[:, None] * x1,
        d1[:, None, None] * x2 + d2[:, None, None] * (x1[:, :, None] * x1[:, None]),
    )


def _flipped_metric(gl, dgl, d2gl, t, dt, d2t, read):
    """The flip g = g_L + u theta theta^T, theta = g_L T, u = -2/g_L(T,T), with dg and d2g.

    Built by ``_jet_product`` from the jets of g_L and T, with derivatives
    taken only along ``read``, the coordinates g_L and T read; off them dg
    and d2g are exact zeros.  Layouts as in ``StructureData``, with
    d2t[b,i,j,k] = d_i d_j T^k.
    """
    batch, n = t.shape
    r = np.array(read, dtype=int)
    g_l = (gl, dgl[:, r], d2gl[:, r[:, None], r])
    t_col = (t[:, :, None], dt[:, r, :, None], d2t[:, r[:, None], r, :, None])
    theta = _jet_product(g_l, t_col)  # (B, n, 1)
    u = _flip_factor(_jet_product(tuple(a.swapaxes(-1, -2) for a in t_col), theta))  # (B, 1, 1)
    outer = _jet_product(theta, tuple(a.swapaxes(-1, -2) for a in theta))  # (B, n, n)
    g, dg_r, d2g_r = (a + b for a, b in zip(g_l, _jet_product(u, outer, np.multiply)))
    require_finite(g, dg_r, d2g_r)
    dg = np.zeros((batch, n, n, n))
    d2g = np.zeros((batch, n, n, n, n))
    dg[:, r] = dg_r
    d2g[:, r[:, None], r] = d2g_r
    return g, dg, d2g


def _as_batch(pts) -> np.ndarray:
    """Points as a float (B, n) array; one point (n,) becomes a (1, n) batch."""
    pts = np.asarray(pts, dtype=float)
    return pts[None, :] if pts.ndim == 1 else pts


# The slot on a StationaryStructure instance (frozen, so written to its
# __dict__ as cached_property does) that remembers the last StructureData:
# (tol, points shape, points bytes, weakref to the data).
_LAST_DATA = "_last_structure_data"


def _live_data(s: StationaryStructure, pts: np.ndarray, tol: Tolerances) -> StructureData | None:
    """The data ``structure_data(s, pts, tol)`` last returned, if still alive and
    built for these tolerances and these point bytes (a copy taken then, so
    points changed in place since do not match)."""
    slot = s.__dict__.get(_LAST_DATA)
    if slot is None:
        return None
    last_tol, shape, raw, ref = slot
    if last_tol != tol or shape != pts.shape or raw != pts.tobytes():
        return None
    return ref()


def structure_data(s: StationaryStructure, pts, tol: Tolerances = DEFAULT) -> StructureData:
    pts = _as_batch(pts)
    cache: dict = {}  # one jet cache for these points, shared by g_L and T
    gl, gl_inv, dgl, d2gl = metric_batch(s.spec, pts, tol, cache)
    t, dt, d2t = eval_jet_batch(s.t, pts, cache)  # dt[b,i,k] = d_i T^k
    gtt = np.einsum("bij,bi,bj->b", gl, t, t)
    if (gtt >= 0.0).any():  # checked before the flip, which divides by g_L(T,T)
        raise NonTimelikeError("g_L(T,T) >= 0 at a sampled point")
    g, dg, d2g = _flipped_metric(gl, dgl, d2gl, t, dt, d2t, s.read_coordinates)
    g_inv = invert(g)
    check_signature("riemannian", g, tol)
    first_l = first_kind(dgl)
    first_g = first_kind(dg)
    gamma_l = christoffel_batch(gl_inv, first_l)
    gamma_g = christoffel_batch(g_inv, first_g)
    cov_l = dt.transpose(0, 2, 1) + np.einsum("bkim,bm->bki", gamma_l, t)
    data = StructureData(
        pts, gl, gl_inv, dgl, d2gl, first_l, gamma_l,
        g, g_inv, dg, d2g, first_g, gamma_g, t, dt, gtt, cov_l,
    )
    s.__dict__[_LAST_DATA] = (tol, pts.shape, pts.tobytes(), weakref.ref(data))
    return data


def nabla_t_form(data: StructureData, frames: np.ndarray) -> np.ndarray:
    """w[b, i, j] = g_L(nab^L_{E_i} T, E_j) (B, n, n), frames (B, n, n) as rows."""
    return frames @ data.cov_t_l.swapaxes(1, 2) @ data.gl @ frames.swapaxes(1, 2)


# --- pointwise operations ----------------------------------------------------

def killing_defect_batch(s: StationaryStructure, pts, tol: Tolerances = DEFAULT) -> np.ndarray:
    """max_ij |(Lie_T g_L)_ij| per point, ``StructureData.killing``; one point (n,) is a (1, n) batch.

    Read from the data ``structure_data(s, pts, tol)`` last returned for this
    structure object while it is still referenced and was built for the same
    point bytes and an equal ``tol``, otherwise from a new ``structure_data``:
    either way the input has passed the checks of ``structure_data``.
    """
    pts = _as_batch(pts)
    return (_live_data(s, pts, tol) or structure_data(s, pts, tol)).killing.copy()


# --- identity verification ---------------------------------------------------

def connection_residuals(data: StructureData, frames: np.ndarray):
    """The four connection identities' residual arrays for per-point frames.

    With X_a = ``frames[:, a]`` (a >= 1), u[b,k,a] = (nab_{X_a} T)^k,
    Delta = Gamma_g - Gamma_L and l_a = X_a(g_L(T,T)) / g_L(T,T):

        r1[b,k]     = (nab^g_T T + nab^L_T T)^k,
        r2[b,k,a]   = (u_g + u_L)^k_a - T^k l_a,
        r3[b,k,a,c] = Delta^k(X_a, X_c),
        r4[b,k,a]   = Delta^k(T, X_a) + 2 u_L^k_a - T^k l_a.

    Each contraction is one batched matmul; Delta X^T is formed once and
    read by r3 and r4.
    """
    b, n = data.t.shape
    t = data.t[:, :, None]
    x = frames[:, 1:, :]
    x_t = x.swapaxes(1, 2)  # (B, n, n-1), column a is X_a
    dln = (x @ data.dgtt[:, :, None])[:, :, 0] / data.gtt[:, None]
    t_dln = t * dln[:, None, :]
    u_l = data.cov_t_l @ x_t
    r1 = ((data.cov_t_g + data.cov_t_l) @ t)[:, :, 0]
    r2 = data.cov_t_g @ x_t + u_l - t_dln
    delta_x = ((data.gamma_g - data.gamma_l).reshape(b, n * n, n) @ x_t).reshape(b, n, n, n - 1)
    r3 = x[:, None] @ delta_x
    r4 = (t.swapaxes(1, 2)[:, None] @ delta_x)[:, :, 0] + 2.0 * u_l - t_dln
    return r1, r2, r3, r4


def connection_residual_batch(data: StructureData, frames: np.ndarray) -> np.ndarray:
    """Residuals (B, 4) of the connection identities for per-point frames:
    the largest |entry| of each of ``connection_residuals``."""
    return np.stack(
        [np.abs(r).max(axis=tuple(range(1, r.ndim))) for r in connection_residuals(data, frames)],
        axis=1,
    )


def curvature_residual_batch(data: StructureData, frames: np.ndarray) -> np.ndarray:
    """Residuals (B, 3) of the curvature identity classes for per-point frames.

    Class-wise max of |Rm_g - flipped_curvature| over the pairs of basis
    bivectors: spatial x T (mixed, the (X,Y,T,Z) components), T x T
    (timelike, (T,X,T,Y)) and spatial x spatial (spatial, (X,Y,Z,W)).  An
    algebraic curvature tensor is fixed by these values, so the check is
    complete; the components it skips are signed copies of these, or ones
    like Rm(X,X,.,.), which are zero up to rounding.
    """
    basis = Lambda2Basis.standard(frames.shape[1])
    p_l, p_g = pair_components((data.rm_l, data.rm_g), frames, basis)
    omega = nabla_t_form(data, frames)
    omega[:, 0] = omega[:, :, 0] = 0.0
    res = np.abs(p_g - flipped_curvature(p_l, omega, data.gtt, basis))
    t = basis.t_legs[1].nonzero()[0]
    x = (basis.t_legs[1] == 0.0).nonzero()[0]
    return np.stack(
        [
            res[:, x[:, None], t].max(axis=(1, 2)),
            res[:, t[:, None], t].max(axis=(1, 2)),
            res[:, x[:, None], x].max(axis=(1, 2)),
        ],
        axis=1,
    )
