"""The ordered Lambda^2 basis of wedge pairs, and curvature components on it.

An algebraic curvature tensor is fixed by its values Rm(pair_a; pair_c)
on pairs of basis bivectors: its antisymmetry in each index pair gives
every other component up to sign, or zero.  The curvature layer holds only
those N^2 = (n(n-1)/2)^2 values, first on pairs of coordinate indices
(``metric.riemann_batch`` reads them through ``Lambda2Basis.riemann_gathers``)
and then in a frame: ``pair_components`` contracts them through the frame's
compound matrix, C Rc C^T, one C for Rm_L and Rm_g.  No n^4 Riemann tensor
is built, in coordinates or in a frame.
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

    def _flat(self, *index: np.ndarray) -> np.ndarray:
        """Row-major flat positions (N*N,) of the (N, N) grids ``index`` in an (n, ..., n) array."""
        out = index[0]
        for i in index[1:]:
            out = out * self.dimension + i
        return out.ravel()

    @cached_property
    def minor_gathers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flat indices (N*N,) into an (n, n) array over pairs a = (v, w), c = (x, y), in
        row-major (a, c) order: the positions of [v,x], [w,y], [v,y] and [w,x]."""
        iv, iw = self.legs
        v, w, x, y = iv[:, None], iw[:, None], iv[None, :], iw[None, :]
        return self._flat(v, x), self._flat(w, y), self._flat(v, y), self._flat(w, x)

    @cached_property
    def riemann_gathers(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices into an (n, n, n, n) array over pairs A = (i, j), C = (k, l), read as
        coordinate indices, each block (N*N,) in row-major (A, C) order: the positions of
        [i,k,j,l] and [j,k,i,l] (2*N*N,), and of [i,k,j,l], [i,l,j,k], [j,k,i,l] and
        [j,l,i,k] (4*N*N,)."""
        iv, iw = self.legs
        i, j, k, l = iv[:, None], iw[:, None], iv[None, :], iw[None, :]
        ikjl, jkil = self._flat(i, k, j, l), self._flat(j, k, i, l)
        iljk, jlik = self._flat(i, l, j, k), self._flat(j, l, i, k)
        return np.concatenate([ikjl, jkil]), np.concatenate([ikjl, iljk, jkil, jlik])

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
    n, size = basis.dimension, basis.size
    flat = m.reshape(m.shape[:-2] + (n * n,))

    def at(index):
        return flat.take(index, axis=-1)

    vx, wy, vy, wx = basis.minor_gathers
    return (at(vx) * at(wy) - at(vy) * at(wx)).reshape(m.shape[:-2] + (size, size))


def pair_components(rc, frames: np.ndarray, basis: Lambda2Basis):
    """P[b, a, c] = Rm(E_v, E_w, E_v', E_w') for pair_a = (v, w), pair_c = (v', w'), (B, N, N).

    ``rc`` (B, N, N) holds Rm on coordinate pairs, Rc[b, A, C] =
    Rm(d_i, d_j, d_k, d_l) for A = (i, j), C = (k, l) over ``basis`` (what
    ``metric.riemann_batch`` returns); ``frames`` (B, n, n) holds the frame
    vectors as rows.  By the antisymmetry of Rm in each index pair,
    P = C Rc C^T with C = ``compound(basis, frames)``, the 2x2 minors
    E(pair_a; pair_A) of the frame: two batched N x N products, O(B N^3).
    A tuple of such arrays, say (Rc_L, Rc_g), shares the one C and gives a
    tuple of results.  C^T is made contiguous: a transposed view as the
    right operand is about 1.3x slower at n = 8.
    """
    c = compound(basis, frames)
    c_t = np.ascontiguousarray(c.swapaxes(1, 2))
    if isinstance(rc, tuple):
        return tuple(c @ r @ c_t for r in rc)
    return c @ rc @ c_t
