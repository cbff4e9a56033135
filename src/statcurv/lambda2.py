"""The ordered Lambda^2 basis of wedge pairs, and curvature components on it.

An algebraic curvature tensor is fixed by its values Rm(pair_a; pair_c)
on pairs of basis bivectors: its antisymmetry in each index pair gives
every other component up to sign, or zero.  ``pair_components`` computes
exactly those N^2 = (n(n-1)/2)^2 values in a frame, so the identity checks
and the operators never build the n^4 frame tensor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Lambda2Basis:
    """Ordered wedge pairs over frame indices, 0 standing for T."""

    dimension: int
    pairs: tuple[tuple[int, int], ...]

    @staticmethod
    @functools.cache
    def standard(n: int) -> "Lambda2Basis":
        if n < 3:
            raise ValueError("Lambda^2 bases start at dimension 3")
        if n == 3:
            pairs = ((0, 1), (0, 2), (1, 2))
        elif n == 4:
            # four dimensions use the cross-product-style spatial order,
            # including the reversed (3, 1) pair
            pairs = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))
        else:
            pairs = tuple((0, i) for i in range(1, n)) + tuple(
                (i, j) for i in range(1, n) for j in range(i + 1, n)
            )
        return Lambda2Basis(n, pairs)

    @property
    def size(self) -> int:
        return len(self.pairs)

    @cached_property
    def legs(self) -> tuple[np.ndarray, np.ndarray]:
        """(v, w), (N,) each: pair a is E_{v[a]} ^ E_{w[a]}."""
        return np.array([p[0] for p in self.pairs]), np.array([p[1] for p in self.pairs])

    @cached_property
    def index_grids(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(va, vb, wa, wb): each pair's first and second index as column and row grids."""
        iv, iw = self.legs
        return iv[:, None], iv[None, :], iw[:, None], iw[None, :]

    @cached_property
    def t_legs(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, s), (N,) each: pair a is s[a] T ^ X_{x[a]} when it touches T, else s[a] = x[a] = 0."""
        iv, iw = self.legs
        s = np.where(iv == 0, 1.0, np.where(iw == 0, -1.0, 0.0))
        return np.where(s == 0.0, 0, iv + iw), s

    def labels(self) -> tuple[tuple[str, str], ...]:
        def name(i: int) -> str:
            return "T" if i == 0 else f"X{i}"

        return tuple((name(a), name(b)) for a, b in self.pairs)


def compound(basis: Lambda2Basis, m: np.ndarray) -> np.ndarray:
    """The 2x2 minors m(pair_a; pair_c) (..., N, N) of ``m`` (..., n, n), the map m induces on Lambda^2.

    Of a frame's metric Gram this is the Lambda^2 Gram matrix (det formula).
    """
    va, vb, wa, wb = basis.index_grids
    return m[..., va, vb] * m[..., wa, wb] - m[..., va, wb] * m[..., wa, vb]


def pair_components(comps: np.ndarray, frames: np.ndarray, basis: Lambda2Basis) -> np.ndarray:
    """P[b, a, c] = Rm(E_v, E_w, E_v', E_w') for pair_a = (v, w), pair_c = (v', w'), (B, N, N).

    ``comps`` (B, n, n, n, n) are coordinate components, ``frames`` (B, n, n)
    holds the frame vectors as rows.  With the wedge rows
    W[b, a] = E[b, v] (x) E[b, w] (B, N, n^2) this is W Rm W^T, two batched
    matrix products over the flattened index pairs, O(B N n^4).
    """
    b, n = frames.shape[:2]
    iv, iw = basis.legs
    wedge = (frames[:, iv, :, None] * frames[:, iw, None, :]).reshape(b, len(iv), n * n)
    return wedge @ comps.reshape(b, n * n, n * n) @ wedge.swapaxes(1, 2)
