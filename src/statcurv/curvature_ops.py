"""Curvature operators on Lambda^2: Riemannian, Lorentzian, and symmetrized.

The operator of a metric h is defined with a minus sign,

    < op(v ^ w), x ^ y >_h = -Rm_h(v, w, x, y),

against the h-induced inner product on Lambda^2,

    < v ^ w, x ^ y >_h = det [[h(v,x), h(v,y)], [h(w,x), h(w,y)]].

In matrix form over an ordered basis of wedge pairs this is M = G^{-1} S
with S[a, b] = -Rm(pair_b; pair_a) and G the Lambda^2 Gram matrix.  Every
frame is checked orthonormal for g_L (see ``frames``), so G is
diagonal and never inverted: 1 on the spatial pairs, and on the mixed pairs
(T, X_i) -g_L(T,T) for g and g_L(T,T) < 0 for g_L, which makes the Lorentzian
operator generally non-symmetric.  S = -P^T for the pair components
P[a, b] = Rm(pair_a; pair_b) that ``lambda2.pair_components`` contracts from
Rm on coordinate pairs (``StructureData.rm_*``, (B, N, N)) as C Rc C^T, C the
compound matrix (2x2 minors) of the frame; one C serves Rm_L and Rm_g, so no
n^4 tensor is built, in coordinates or in the frame.

The symmetrized flavor rebuilds the Riemannian operator purely from
Lorentzian data: it takes the Rm_g pair components that
``stationary.flipped_curvature`` predicts from those of Rm_L and
omega = g_L(nab^L_{X_i} T, X_j) (unit T).  ``operator_arrays`` is the one
assembly: ``operators_from_data`` feeds it the adapted frames and their
rotation blocks (``export`` prints them), ``topology.scan_points`` and
``topology.verify_points`` the checked completions and their ``nabla_t_form``.
The two frames differ by an orthogonal change that keeps T first, so the
spectra agree up to rounding.
``tests/test_curvature_ops.py`` checks the symmetrized matrix against the
explicit n = 3 and n = 4 matrices, with their +2f^2 / -6f^2 diagonal
corrections, and against the off-diagonal corrections of two blocks at n = 5.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .frames import BatchRow, FrameBatch, FrameRow, adapted_frames_batch, rotation_blocks, row_field
from .lambda2 import Lambda2Basis, pair_components
from .metric import frame_components_batch  # noqa: F401  bench/tracing patches and checks this binding
from .stationary import StationaryStructure, StructureData, flipped_curvature, structure_data
from .tolerances import DEFAULT, Tolerances


@dataclass(frozen=True)
class CurvatureOperatorMatrix:
    """One operator's matrix over the standard Lambda^2 basis, and its flavor."""

    entries: np.ndarray
    flavor: str

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def asymmetry(self) -> float:
        return float(np.abs(self.entries - self.entries.T).max())


def _operators(p: np.ndarray, t_gram: np.ndarray, basis: Lambda2Basis) -> np.ndarray:
    """G^{-1} S (B, N, N), S[b, a, c] = -p[b, c, a], G = diag(``t_gram`` (B,) on pairs touching T, else 1)."""
    gram = np.where(basis.t_legs[1] == 0.0, 1.0, t_gram[:, None])
    return -p.swapaxes(1, 2) / gram[..., None] + 0.0  # folds -0.0 into 0.0


def _symmetrized(p_l: np.ndarray, omega: np.ndarray, basis: Lambda2Basis) -> np.ndarray:
    """Symmetrized matrices (B, N, N) of the Rm_g that ``flipped_curvature`` predicts for unit T."""
    entries = -flipped_curvature(p_l, omega, -1.0, basis)  # S^T, which symmetrizes to the same bits
    return 0.5 * (entries + entries.swapaxes(1, 2))  # symmetric up to rounding already


# --- batched pipeline --------------------------------------------------------

class PointOperators(BatchRow):
    """Row b of an OperatorBatch: its adapted frame, three operators and central residual.

    Each field is read from the batch arrays when it is accessed; only
    ``lorentzian`` reads ``OperatorBatch.m_l``, so only it can build that.
    """

    __slots__ = ()
    riemannian = row_field("m_r", lambda m: CurvatureOperatorMatrix(m, "riemannian"))
    lorentzian = row_field("m_l", lambda m: CurvatureOperatorMatrix(m, "lorentzian"))
    symmetrized = row_field("m_s", lambda m: CurvatureOperatorMatrix(m, "symmetrized"))
    central_residual = row_field("central", float)

    @property
    def frame(self) -> FrameRow:
        return FrameRow(self.batch.frames, self.b)


@dataclass(frozen=True, eq=False)
class OperatorBatch(Sequence):
    """The three operators at B points as arrays; ``batch[b]`` is the PointOperators view of row b.

    ``m_r``, ``m_l`` and ``m_s`` (B, N, N) are the Riemannian, Lorentzian and
    symmetrized matrices, ``central`` (B,) the central-identity residuals.
    ``m_l`` is built on first read from ``p_l`` (B, N, N), the pair
    components of Rm_L that ``m_s`` is built from.
    """

    frames: FrameBatch
    basis: Lambda2Basis
    m_r: np.ndarray
    m_s: np.ndarray
    central: np.ndarray
    p_l: np.ndarray

    @cached_property
    def m_l(self) -> np.ndarray:
        return _operators(self.p_l, self.frames.timelike_norm, self.basis)

    def __len__(self) -> int:
        return self.central.shape[0]

    def __getitem__(self, b: int) -> PointOperators:
        # IndexError past the end ends Sequence iteration; negative b counts from the end
        return PointOperators(self, range(len(self))[b])


def operator_arrays(data: StructureData, vectors: np.ndarray, omega: np.ndarray, basis: Lambda2Basis):
    """``m_r``, ``m_s`` (B, N, N), ``central`` (B,) and ``p_l`` (B, N, N) in the frames ``vectors`` (B, n, n).

    The frames (T, then g_L-orthonormal X_i) are built from ``data``, and
    ``omega`` (B, n, n) holds g_L(nab^L_{X_i} T, X_j) in them, T row and
    column zero.  One ``pair_components`` call serves Rm_L and Rm_g.
    """
    p_l, p_g = pair_components((data.rm_l, data.rm_g), vectors, basis)
    m_r = _operators(p_g, -data.gtt, basis)
    m_s = _symmetrized(p_l, omega, basis)
    return m_r, m_s, np.abs(m_s - m_r).max(axis=(1, 2)), p_l


def operators_from_data(s: StationaryStructure, data: StructureData, frames: FrameBatch) -> OperatorBatch:
    """Assemble the operators per point from precomputed batched data; ``m_l`` on first read.

    ``frames`` come from ``adapted_frames_batch`` on the same ``data``, which
    has already checked each rotation-block residual; the operators read
    omega as those rotation blocks.
    """
    n = s.dimension
    basis = Lambda2Basis.standard(n)
    omega = rotation_blocks(frames.f, frames.pair_count, n)
    m_r, m_s, central, p_l = operator_arrays(data, frames.vectors, omega, basis)
    return OperatorBatch(frames, basis, m_r, m_s, central, p_l)


def operators_at(s: StationaryStructure, pts, tol: Tolerances = DEFAULT) -> OperatorBatch:
    """Adapted frames and all three operators at each point of ``pts`` (B, n), as one batch."""
    data = structure_data(s, pts, tol)
    return operators_from_data(s, data, adapted_frames_batch(s, data, tol))
