"""Orthonormal frames containing T, and the adapted frames with rotation blocks.

The map v -> nab_{nab_v T} T (computed with the flipped Riemannian metric g,
for which T is also Killing) is g-self-adjoint with nonpositive eigenvalues,
and its nonzero eigenspaces are even-dimensional.  Pairing unit eigenvectors
v with w = -nab^L_v T / |nab^L_v T| produces the rotation-block frame

    nab^L_{X_i} T = f X_{i+1},     nab^L_{X_{i+1}} T = -f X_i,     f < 0,

with the kernel directions fixed (nab^L_{X_j} T = 0).  Construction is
deterministic: cyclic-Jacobi eigenvectors with fixed signs, pairs sorted by
|f| descending and assigned the lowest spatial indices, kernel last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigenstructureError, FrameError
from .linalg import jacobi_eigh
from .stationary import StationaryStructure, StructureData, _nabla_t_frames, structure_data
from .tolerances import DEFAULT, Tolerances


@dataclass(frozen=True)
class FramePair:
    """Indices (i, j) of one rotation block and its coefficient f < 0."""

    i: int
    j: int
    f: float


@dataclass(frozen=True)
class OrthonormalFrame:
    """Frame rows E_0 = T, E_1..E_{n-1} spatial, in coordinate components.

    ``pairing``/``fixed_indices`` describe the adapted structure when built
    by ``adapted_frame``; a plain completion claims neither.
    ``nabla_sq_eigenvalues`` is the full spectrum of the squared map,
    ascending (the T direction contributes the exact zero).
    """

    point: np.ndarray
    vectors: np.ndarray
    pairing: tuple[FramePair, ...] = ()
    fixed_indices: tuple[int, ...] = ()
    timelike_norm: float = -1.0
    rotation_residual: float | None = None
    nabla_sq_eigenvalues: tuple[float, ...] = ()

    @property
    def dimension(self) -> int:
        return self.vectors.shape[0]

    @property
    def f_values(self) -> tuple[float, ...]:
        return tuple(p.f for p in self.pairing)

    @property
    def is_adapted(self) -> bool:
        return self.rotation_residual is not None


def _complete_spatial(g: np.ndarray, t_vec: np.ndarray) -> np.ndarray:
    """Gram-Schmidt against g: rows T, then unit spatial vectors from the axes."""
    n = t_vec.size
    basis = [np.asarray(t_vec, dtype=float)]
    norms = [float(basis[0] @ g @ basis[0])]
    for axis in range(n):
        if len(basis) == n:
            break
        cand = np.zeros(n)
        cand[axis] = 1.0
        for vec, nrm in zip(basis, norms):
            cand = cand - (float(cand @ g @ vec) / nrm) * vec
        norm_sq = float(cand @ g @ cand)
        if norm_sq <= 1e-24 * float(g[axis, axis]):
            continue  # axis already spanned
        cand /= np.sqrt(norm_sq)
        basis.append(cand)
        norms.append(1.0)
    if len(basis) < n:
        raise FrameError("rank-deficient seed basis: could not complete the frame")
    return np.array(basis)


def _validate_gram(e: np.ndarray, gl: np.ndarray, gtt: float, tol: Tolerances) -> None:
    gram = e @ gl @ e.T
    expected = np.eye(e.shape[0])
    expected[0, 0] = gtt
    if float(np.abs(gram - expected).max()) > tol.antisymmetry * max(1.0, abs(gtt)):
        raise FrameError("completion frame failed the orthonormality check")


def _completions(data: StructureData, tol: Tolerances, require_unit: bool = True) -> np.ndarray:
    """Frames (B, n, n) {T, X_1..X_{n-1}} orthonormal for g and g_L, one per row of ``data``."""
    if require_unit:
        off = np.abs(data.gtt + 1.0) > tol.unit_timelike
        if np.any(off):
            gtt = float(data.gtt[np.argmax(off)])
            raise FrameError(f"T is not unit at this point: g_L(T,T) = {gtt}")
    out = np.empty(data.g.shape)
    for b in range(out.shape[0]):
        out[b] = _complete_spatial(data.g[b], data.t[b])
        _validate_gram(out[b], data.gl[b], float(data.gtt[b]), tol)
    return out


def orthonormal_completion(
    s: StationaryStructure, point, tol: Tolerances = DEFAULT, require_unit: bool = True
) -> OrthonormalFrame:
    """Frame {T, X_1..X_{n-1}} orthonormal for g and g_L simultaneously.

    With ``require_unit`` (the default), g_L(T,T) must equal -1 up to
    tolerance; identity verification on non-unit structures passes
    ``require_unit=False`` and keeps T at its own scale.
    """
    data = structure_data(s, point, tol)
    return OrthonormalFrame(
        point=data.points[0].copy(),
        vectors=_completions(data, tol, require_unit)[0],
        timelike_norm=float(data.gtt[0]),
    )


def _split_eigenvalues(vals: np.ndarray, tol: Tolerances):
    """Partition ascending eigenvalues into negative clusters and the kernel."""
    if np.any(vals > tol.eigen_error):
        raise EigenstructureError(
            f"positive eigenvalue {vals.max()} of the squared map "
            "(Killing or unit-length precondition broken)"
        )
    # the kernel cut is on f^2, so it is the square of the cut on |f| that the
    # parallel-T fallback and the rotation-block residual use
    zero_cut = max(tol.pairing**2, tol.cluster_rel * abs(float(vals[0])))
    clusters = []
    kernel = []
    for idx, lam in enumerate(vals):
        if lam >= -zero_cut:
            kernel.append(idx)
        elif clusters and abs(lam - vals[clusters[-1][-1]]) <= tol.cluster_rel * abs(
            vals[clusters[-1][-1]]
        ):
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return clusters, kernel


def _pair_cluster(vecs: np.ndarray, spatial_nabla: np.ndarray):
    """Deterministic rotation-block pairing inside one eigenspace."""
    dim = vecs.shape[1]
    chosen: list[np.ndarray] = []
    pairs = []
    for idx in range(dim):
        if len(chosen) == dim:
            break
        v = vecs[:, idx].copy()
        for c in chosen:
            v -= (c @ v) * c
        nrm = float(np.sqrt(v @ v))
        if nrm < 0.5:
            continue
        v /= nrm
        u = spatial_nabla @ v
        nrm_u = float(np.sqrt(u @ u))
        if nrm_u == 0.0:
            raise EigenstructureError("vanishing image inside a nonzero eigenspace")
        f = -nrm_u
        w = -u / nrm_u
        for c in chosen:
            w -= (c @ w) * c
        w -= (v @ w) * v
        w /= float(np.sqrt(w @ w))
        chosen += [v, w]
        pairs.append((v, w, f))
    if 2 * len(pairs) != dim:
        raise EigenstructureError("failed to exhaust an eigenspace by pairs")
    return pairs


def _adapt(e: np.ndarray, a_frame: np.ndarray, tol: Tolerances):
    """Rotation-block rows, pairing, fixed indices and squared-map spectrum from a completion."""
    n = e.shape[0]
    t_block = max(float(np.abs(a_frame[0, :]).max()), float(np.abs(a_frame[:, 0]).max()))
    if t_block > tol.pairing:
        raise EigenstructureError(
            f"nab T does not annihilate the T direction (residual {t_block})"
        )
    spatial = a_frame[1:, 1:]
    if float(np.abs(spatial).max(initial=0.0)) <= tol.pairing:
        # parallel T: defined fallback, every spatial direction fixed
        return e, (), tuple(range(1, n)), tuple([0.0] * n)
    squared = spatial @ spatial
    asym = float(np.abs(squared - squared.T).max())
    if asym > tol.antisymmetry * max(1.0, float(np.abs(squared).max())):
        raise EigenstructureError(
            f"squared map is not self-adjoint (residual {asym}); "
            "Killing or unit-length precondition broken"
        )
    vals, vecs = jacobi_eigh(0.5 * (squared + squared.T))
    clusters, kernel = _split_eigenvalues(vals, tol)
    if any(len(c) % 2 for c in clusters):
        sizes = [len(c) for c in clusters]
        raise EigenstructureError(
            f"odd-dimensional nonzero eigenspace (cluster sizes {sizes}); "
            "eigenvalue clustering failed"
        )
    pairs = []
    for cluster in clusters:
        pairs.extend(_pair_cluster(vecs[:, cluster], spatial))
    pairs.sort(key=lambda p: -abs(p[2]))  # |f| descending; stable
    rows = [e[0]]
    pairing = []
    for v, w, f in pairs:
        pairing.append(FramePair(len(rows), len(rows) + 1, float(f)))
        rows.append(v @ e[1:])
        rows.append(w @ e[1:])
    fixed = []
    for idx in kernel:
        fixed.append(len(rows))
        rows.append(vecs[:, idx] @ e[1:])
    eigs = sorted([float(v) for v in vals] + [0.0])
    return np.array(rows), tuple(pairing), tuple(fixed), tuple(eigs)


def adapted_frame(s: StationaryStructure, point, tol: Tolerances = DEFAULT) -> OrthonormalFrame:
    """Adapted frame at one point (T must be unit timelike Killing)."""
    return adapted_frames_batch(s, structure_data(s, point, tol), tol)[0]


def adapted_frames_batch(
    s: StationaryStructure, data: StructureData, tol: Tolerances = DEFAULT
) -> list[OrthonormalFrame]:
    """Adapted frames for every point of a precomputed StructureData."""
    completions = _completions(data, tol)
    a_completions = _nabla_t_frames(data.cov_t_l, completions)
    parts = [_adapt(e, a, tol) for e, a in zip(completions, a_completions)]
    # rotation-block pattern residual on the final frames
    a_final = _nabla_t_frames(data.cov_t_l, np.stack([part[0] for part in parts]))
    out = []
    for b, (vectors, pairing, fixed, eigs) in enumerate(parts):
        pattern = np.zeros(vectors.shape)
        for p in pairing:
            pattern[p.j, p.i] = p.f
            pattern[p.i, p.j] = -p.f
        residual = float(np.abs(a_final[b] - pattern).max())
        if residual > tol.pairing:
            raise FrameError(f"adapted frame residual {residual} above tolerance {tol.pairing}")
        out.append(
            OrthonormalFrame(
                point=data.points[b].copy(),
                vectors=vectors,
                pairing=pairing,
                fixed_indices=fixed,
                timelike_norm=float(data.gtt[b]),
                rotation_residual=residual,
                nabla_sq_eigenvalues=eigs,
            )
        )
    return out
