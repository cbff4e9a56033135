"""Orthonormal frames containing T, the checks on nab T, and the adapted frames with rotation blocks.

The map v -> nab_{nab_v T} T (computed with the flipped Riemannian metric g,
for which T is also Killing) is g-self-adjoint with nonpositive eigenvalues,
and its nonzero eigenspaces are even-dimensional.  Pairing unit eigenvectors
v with w = -nab^L_v T / |nab^L_v T| produces the rotation-block frame

    nab^L_{X_i} T = f X_{i+1},     nab^L_{X_{i+1}} T = -f X_i,     f < 0,

with the kernel directions fixed (nab^L_{X_j} T = 0).  Construction is
deterministic: LAPACK eigenvectors with fixed signs, pairs sorted by
|f| descending and assigned the lowest spatial indices, kernel last.

Every frame handed out, completion or adapted, passes ``check_orthonormal``, so
consumers read nab^L T (``stationary.nabla_t_form``) and the Lambda^2 Grams with no solve.

A completion is an array and keeps T at its own length; ``checked_completions``
is the one gate for the hypotheses, unit length of T first.  ``analyze`` and
``verify`` read every row in its completions, which build no eigenvector;
``adapted_frames_batch``, which of the CLI commands only ``export`` reads,
starts from them and takes its eigenvectors from the squared maps it checked.

Every point of a batch goes through the same array operations, in the
operation order of a single-point construction, so a frame does not depend
on the batch it was built in.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import EigenstructureError, FrameError
from .linalg import eigvalsh, jacobi_eigh
from .stationary import StationaryStructure, StructureData, nabla_t_form, structure_data
from .tolerances import DEFAULT, Tolerances


@dataclass(frozen=True)
class FramePair:
    """Indices (i, j) of one rotation block and its coefficient f < 0."""

    i: int
    j: int
    f: float


class BatchRow:
    """Row b of a batch: holds only (batch, b) and reads each field when it is accessed."""

    __slots__ = ("batch", "b")

    def __init__(self, batch, b: int):
        self.batch, self.b = batch, b


def row_field(name: str, convert=lambda x: x) -> property:
    """A BatchRow property: ``convert`` of row b of the batch array ``name``."""
    return property(lambda row: convert(getattr(row.batch, name)[row.b]))


class FrameRow(BatchRow):
    """Row b of a FrameBatch: frame rows ``vectors`` (E_0 = T, then spatial), rotation
    blocks ``pairing``, kernel rows ``fixed_indices`` and the ascending squared-map
    spectrum ``nabla_sq_eigenvalues`` (the T direction contributes the exact zero)."""

    __slots__ = ()
    point = row_field("points")
    vectors = row_field("vectors")
    timelike_norm = row_field("timelike_norm", float)
    rotation_residual = row_field("rotation_residual", float)
    nabla_sq_eigenvalues = row_field("nabla_sq_eigenvalues", lambda x: tuple(x.tolist()))

    @property
    def dimension(self) -> int:
        return self.batch.vectors.shape[1]

    @property
    def f_values(self) -> tuple[float, ...]:
        return tuple(p.f for p in self.pairing)

    @property
    def pairing(self) -> tuple[FramePair, ...]:
        fs = self.batch.f[self.b, : self.batch.pair_count[self.b]].tolist()
        return tuple(FramePair(2 * t + 1, 2 * t + 2, f) for t, f in enumerate(fs))

    @property
    def fixed_indices(self) -> tuple[int, ...]:
        return tuple(range(2 * int(self.batch.pair_count[self.b]) + 1, self.batch.vectors.shape[1]))


@dataclass(frozen=True, eq=False)
class FrameBatch(Sequence):
    """Adapted frames at B points as arrays; ``batch[b]`` is the FrameRow view of row b.

    Row b pairs (X_1, X_2), (X_3, X_4), ... with ``f[b, :pair_count[b]]``
    (|f| descending, zero past the pair count) and fixes the spatial rows
    after the last pair.  A row holds only the batch and its index, so
    iterating the batch builds nothing until a row's field is read.
    """

    points: np.ndarray  # (B, n)
    vectors: np.ndarray  # (B, n, n), frame vectors as rows
    f: np.ndarray  # (B, (n - 1) // 2)
    pair_count: np.ndarray  # (B,)
    rotation_residual: np.ndarray  # (B,)
    nabla_sq_eigenvalues: np.ndarray  # (B, n), ascending
    timelike_norm: np.ndarray  # (B,)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def __getitem__(self, b: int) -> FrameRow:
        # IndexError past the end ends Sequence iteration; negative b counts from the end
        return FrameRow(self, range(len(self))[b])


def rotation_blocks(f: np.ndarray, pair_count: np.ndarray, n: int) -> np.ndarray:
    """Omega (B, n, n), Omega[b, i, j] = g_L(nab^L_{X_i} T, X_j) of the standard pairing."""
    omega = np.zeros((f.shape[0], n, n))
    t = np.arange(f.shape[1])
    paired = t < pair_count[:, None]
    omega[:, 2 * t + 1, 2 * t + 2] = np.where(paired, f, 0.0)
    omega[:, 2 * t + 2, 2 * t + 1] = np.where(paired, -f, 0.0)
    return omega


# Row-wise products spelled as stacked matmuls: each row then goes through the
# same BLAS call, on the same memory layout, as the one-point expression in
# the docstring, so batched results equal single-point ones bit for bit.

def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[r] @ b[r]`` for every row r of (B, m) arrays."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _form(a: np.ndarray, m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[r] @ m[r] @ b[r]`` for every row r."""
    return _dot((a[:, None, :] @ m)[:, 0], b)


def _project_off(x: np.ndarray, basis: np.ndarray, count: np.ndarray, coef) -> np.ndarray:
    """x[r] - coef(x, j)[r] * basis[r, j] for j = 0, 1, ... below count[r], in order."""
    for j in range(int(count.max(initial=0))):
        x = np.where((j < count)[:, None], x - coef(x, j)[:, None] * basis[:, j], x)
    return x


def orthonormal_completions(data: StructureData, tol: Tolerances) -> np.ndarray:
    """Frames (B, n, n) {T, X_1..X_{n-1}} orthonormal for g and g_L, one per row of ``data``.

    T keeps its own length.  Modified Gram-Schmidt against g over the whole
    batch: rows T, then unit spatial vectors from the coordinate axes,
    skipping an axis already spanned; the loop runs over the axes, never
    over the points.
    """
    g, t = data.g, data.t
    batch, n = t.shape
    basis = np.zeros((batch, n, n))
    basis[:, 0] = t
    norms = np.ones((batch, n))
    norms[:, 0] = _form(t, g, t)
    count = np.ones(batch, dtype=int)  # rows accepted so far
    for axis in range(n):
        if (count == n).all():
            break
        cand = np.zeros((batch, n))
        cand[:, axis] = 1.0
        cand = _project_off(cand, basis, count, lambda x, j: _form(x, g, basis[:, j]) / norms[:, j])
        norm_sq = _form(cand, g, cand)
        accept = (count < n) & ~(norm_sq <= 1e-24 * g[:, axis, axis])
        cand = cand / np.sqrt(np.where(accept, norm_sq, 1.0))[:, None]
        rows = accept.nonzero()[0]
        basis[rows, count[rows]] = cand[rows]
        count += accept
    if (count < n).any():
        raise FrameError("rank-deficient seed basis: could not complete the frame")
    check_orthonormal(basis, data, tol)
    return basis


def check_orthonormal(frames: np.ndarray, data: StructureData, tol: Tolerances) -> None:
    """FrameError unless each E (B, n, n) has E g_L E^T = diag(g_L(T,T), 1, ..., 1), entry by entry."""
    off = frames @ data.gl @ frames.swapaxes(1, 2) - np.eye(frames.shape[1])
    off[:, 0, 0] -= data.gtt - 1.0
    off = np.abs(off).max(axis=(1, 2))
    bad = off > tol.antisymmetry * np.maximum(1.0, np.abs(data.gtt))
    if bad.any():
        raise FrameError(f"frame failed the orthonormality check (residual {float(off[np.argmax(bad)])})")


def orthonormal_completion(s: StationaryStructure, point, tol: Tolerances = DEFAULT) -> np.ndarray:
    """The completion (n, n) at one point: row 0 of ``orthonormal_completions``."""
    return orthonormal_completions(structure_data(s, point, tol), tol)[0]


def spatial_nabla_t(data: StructureData, frames: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, ...]:
    """``nabla_t_form`` of ``frames`` (B, n, n), its T row and column zeroed, and their max |entry| (B,).

    EigenstructureError unless nab^L T annihilates the T direction: every
    entry of that row and column within ``tol.pairing`` of zero.
    """
    omega = nabla_t_form(data, frames)
    t_block = np.maximum(np.abs(omega[:, 0, :]).max(axis=1), np.abs(omega[:, :, 0]).max(axis=1))
    if (t_block > tol.pairing).any():
        first = float(t_block[np.argmax(t_block > tol.pairing)])
        raise EigenstructureError(f"nab T does not annihilate the T direction (residual {first})")
    omega[:, 0] = omega[:, :, 0] = 0.0
    return omega, t_block


def squared_map(spatial: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The symmetrized squared map (B, m, m) of ``spatial`` (B, m, m), whose
    column i holds the components of nab^L_{X_i} T along the spatial rows.

    EigenstructureError unless the square is self-adjoint to ``tol.antisymmetry``
    of its largest entry (at least 1).
    """
    squared = spatial @ spatial
    asym = np.abs(squared - squared.swapaxes(1, 2)).max(axis=(1, 2))
    skew = asym > tol.antisymmetry * np.maximum(1.0, np.abs(squared).max(axis=(1, 2)))
    if skew.any():
        raise EigenstructureError(
            f"squared map is not self-adjoint (residual {float(asym[np.argmax(skew)])}); "
            "Killing or unit-length precondition broken"
        )
    return 0.5 * (squared + squared.swapaxes(1, 2))


def check_nonpositive(vals: np.ndarray, tol: Tolerances) -> None:
    """EigenstructureError if a squared-map spectrum (B, m) has an eigenvalue above ``tol.eigen_error``."""
    positive = (vals > tol.eigen_error).any(axis=1)
    if positive.any():
        raise EigenstructureError(
            f"positive eigenvalue {float(vals[np.argmax(positive)].max())} of the squared map "
            "(Killing or unit-length precondition broken)"
        )


def check_rotation_residual(residual: np.ndarray, tol: Tolerances) -> None:
    """FrameError if a residual (B,) of nab^L T against rotation blocks exceeds ``tol.pairing``."""
    bad = residual > tol.pairing
    if bad.any():
        first = float(residual[np.argmax(bad)])
        raise FrameError(f"adapted frame residual {first} above tolerance {tol.pairing}")


def checked_completions(data: StructureData, tol: Tolerances) -> tuple[np.ndarray, ...]:
    """Completions (B, n, n) of unit T, their ``spatial_nabla_t``, the checked squared
    maps (B, n - 1, n - 1), their ascending spectra and the rotation residuals (B,).

    The one gate for the hypotheses: T unit (to ``tol.unit_timelike``), nab^L T
    annihilating T, a self-adjoint squared map, no positive eigenvalue (by
    ``eigvalsh``) and a rotation residual within ``tol.pairing``, checked at
    every point and in that order; ``analyze``, ``verify`` and
    ``adapted_frames_batch`` all pass through it.  A skew spatial block is
    block-diagonal in some orthonormal frame, so no rotation-block frame
    takes up the T block or the symmetric part of omega: the larger is the
    rotation residual.
    """
    off = np.abs(data.gtt + 1.0) > tol.unit_timelike
    if off.any():
        raise FrameError(f"T is not unit at this point: g_L(T,T) = {float(data.gtt[np.argmax(off)])}")
    completions = orthonormal_completions(data, tol)
    omega, t_block = spatial_nabla_t(data, completions, tol)
    squared = squared_map(omega[:, 1:, 1:].swapaxes(1, 2), tol)
    vals = eigvalsh(squared)
    check_nonpositive(vals, tol)
    residual = np.maximum(t_block, 0.5 * np.abs(omega + omega.swapaxes(1, 2)).max(axis=(1, 2)))
    check_rotation_residual(residual, tol)
    return completions, omega, squared, vals, residual


def _cluster_starts(vals: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Kernel mask and cluster-start flags (B, m) of ascending squared-map spectra (B, m).

    The kernel is a suffix; the rest is an ascending prefix of negative
    eigenvalues, and a cluster starts wherever the gap to the previous value
    exceeds ``cluster_rel`` times that value.
    """
    # the kernel cut is on f^2, so it is the square of the cut on |f| that the
    # parallel-T fallback and the rotation-block residual use
    zero_cut = np.maximum(tol.pairing**2, tol.cluster_rel * np.abs(vals[:, :1]))
    kernel = vals >= -zero_cut
    starts = np.ones(vals.shape, dtype=bool)
    starts[:, 1:] = np.abs(vals[:, 1:] - vals[:, :-1]) > tol.cluster_rel * np.abs(vals[:, :-1])
    return kernel, starts & ~kernel


def _pair_clusters(vecs: np.ndarray, spatial: np.ndarray, kernel, starts):
    """Rotation-block pairs of every point: v, w (B, P, m), f (B, P) and pair counts (B,).

    Inside each eigenspace the eigenvectors are taken in order.  Each is
    projected off the vectors already chosen in its eigenspace and skipped
    when less than half of it is left; otherwise it becomes v and is paired
    with w = -nab^L_v T / |nab^L_v T|, made orthogonal to the chosen vectors
    and to v.  Pairs come out in eigenspace order.
    """
    batch, m, _ = vecs.shape
    ids = starts.cumsum(axis=1)
    sizes = ((ids[:, :, None] == ids[:, None, :]) & ~kernel[:, None, :]).sum(axis=2)
    odd = (starts & (sizes % 2 == 1)).any(axis=1)
    if odd.any():
        b = np.argmax(odd)
        raise EigenstructureError(
            f"odd-dimensional nonzero eigenspace (cluster sizes {sizes[b][starts[b]].tolist()}); "
            "eigenvalue clustering failed"
        )
    chosen = np.zeros((batch, m, m))  # rows: the vectors chosen in the current eigenspace
    taken = np.zeros(batch, dtype=int)
    v_out, w_out = np.zeros((2, batch, m // 2, m))
    f_out = np.zeros((batch, m // 2))
    count = np.zeros(batch, dtype=int)
    along = lambda x, c: _dot(chosen[:, c], x)
    for i in range(m):
        taken[starts[:, i]] = 0
        live = ~kernel[:, i] & (taken < sizes[:, i])
        if not live.any():
            continue
        within = np.where(live, taken, 0)
        # a contiguous copy: a strided column would take another dot kernel
        v = _project_off(vecs[:, :, i].copy(), chosen, within, along)
        nrm = np.sqrt(_dot(v, v))
        live &= nrm >= 0.5
        v = v / np.where(live, nrm, 1.0)[:, None]
        u = (spatial @ v[:, :, None])[:, :, 0]
        nrm_u = np.sqrt(_dot(u, u))
        if (live & (nrm_u == 0.0)).any():
            raise EigenstructureError("vanishing image inside a nonzero eigenspace")
        w = _project_off(-u / np.where(live, nrm_u, 1.0)[:, None], chosen, within, along)
        w = w - _dot(v, w)[:, None] * v
        w = w / np.sqrt(np.where(live, _dot(w, w), 1.0))[:, None]
        rows = live.nonzero()[0]
        chosen[rows, taken[rows]], chosen[rows, taken[rows] + 1] = v[rows], w[rows]
        slot = count[rows]
        v_out[rows, slot], w_out[rows, slot], f_out[rows, slot] = v[rows], w[rows], -nrm_u[rows]
        taken[rows] += 2
        count[rows] += 1
    if (2 * count != (~kernel).sum(axis=1)).any():
        raise EigenstructureError("failed to exhaust an eigenspace by pairs")
    return v_out, w_out, f_out, count


def _adapt(e: np.ndarray, spatial: np.ndarray, squared: np.ndarray, tol: Tolerances):
    """Rotation-block rows, f values, pair counts and squared-map spectra of non-parallel points.

    ``e`` (B, n, n) are completions, column i of ``spatial`` (B, n-1, n-1) holds
    the components of nab^L_{X_i} T along their spatial rows, and ``squared``
    is its checked squared map.
    """
    batch, n, _ = e.shape
    vals, vecs = jacobi_eigh(squared)
    v, w, f, count = _pair_clusters(vecs, spatial, *_cluster_starts(vals, tol))
    # |f| descending; stable, so equal |f| keep their eigenspace order
    slots = np.arange(f.shape[1])
    order = np.where(slots < count[:, None], -np.abs(f), np.inf).argsort(axis=1, kind="stable")
    v, w, f = (x[np.arange(batch)[:, None], order] for x in (v, w, f))
    # rows: T, the pairs in order, then the kernel eigenvectors; kernel
    # eigenvector i lands on row i + 1 because the pairs fill rows 1..2k
    rows = np.empty((batch, n, n))
    rows[:, 0] = e[:, 0]
    for i in range(n - 1):
        src = vecs[:, :, i]
        if i // 2 < f.shape[1]:
            src = np.where((i < 2 * count)[:, None], (v if i % 2 == 0 else w)[:, i // 2], src)
        rows[:, i + 1] = (src[:, None, :] @ e[:, 1:])[:, 0]
    # the T direction contributes an exact zero, placed as a stable sort places it
    eigs = np.concatenate([vals, np.zeros((batch, 1))], axis=1)
    eigs.sort(axis=1, kind="stable")
    return rows, f, count, eigs


def adapted_frames_batch(
    s: StationaryStructure, data: StructureData, tol: Tolerances = DEFAULT
) -> FrameBatch:
    """Adapted frames for every point of a precomputed StructureData.

    The points first pass ``checked_completions``.  Each check raises for the
    first point that fails it, with that point's own numbers in the message.
    """
    # nab^L_{E_i} T has components omega[i, j] / diag(-1, 1, ..., 1)_j
    completions, omega, squared, _, _ = checked_completions(data, tol)
    batch, n = data.points.shape
    # parallel T: defined fallback, every spatial direction fixed, spectrum zero
    moving = (np.abs(omega[:, 1:, 1:]).max(axis=(1, 2)) > tol.pairing).nonzero()[0]
    vectors = completions.copy()
    f = np.zeros((batch, (n - 1) // 2))
    count = np.zeros(batch, dtype=int)
    eigs = np.zeros((batch, n))
    if moving.size:
        parts = _adapt(completions[moving], omega[moving, 1:, 1:].swapaxes(1, 2), squared[moving], tol)
        vectors[moving], f[moving], count[moving], eigs[moving] = parts
    check_orthonormal(vectors, data, tol)
    # rotation-block pattern residual on the final frames
    residual = np.abs(nabla_t_form(data, vectors) - rotation_blocks(f, count, n)).max(axis=(1, 2))
    check_rotation_residual(residual, tol)
    return FrameBatch(data.points.copy(), vectors, f, count, residual, eigs, data.gtt.copy())
