"""Dense linear algebra for small matrices (n <= 28 on the Lambda^2 side).

Thin wrappers over ``numpy.linalg`` (LAPACK).  All accept a leading batch
dimension; each matrix is factored on its own, so its result does not depend
on the other matrices in the batch.  Non-finite input and LAPACK failures
raise instead of returning numbers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import LinearAlgebraError, NearSingularError


def _finite(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise LinearAlgebraError("non-finite matrix entry")
    return a


def gauss_inverse(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert ``a`` of shape (..., m, m); returns (inverse, determinant).

    Raises NearSingularError if LAPACK finds an exactly singular matrix;
    callers apply their own |det| thresholds.
    """
    return invert(a), np.linalg.det(a)  # invert has checked that a is finite


def invert(a: np.ndarray) -> np.ndarray:
    """Inverse of ``a`` (..., m, m); one LAPACK factorization per matrix, no determinant."""
    a = _finite(a)
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise NearSingularError(f"singular matrix: {exc}") from exc


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of symmetric ``a`` (..., m, m); only its lower triangle is read.

    The values ``jacobi_eigh`` returns up to rounding, without eigenvectors.
    """
    a = _finite(a)
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise LinearAlgebraError(f"eigendecomposition failed: {exc}") from exc


def jacobi_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of symmetric ``a`` (..., m, m); only its lower triangle is read.

    Returns (eigenvalues ascending, eigenvectors as columns).  Each
    eigenvector's sign is fixed by making its largest-magnitude component
    positive, so the output is a deterministic function of the input.
    """
    a = _finite(a)
    try:
        vals, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise LinearAlgebraError(f"eigendecomposition failed: {exc}") from exc
    m = v.shape[-1]
    flat = v.reshape(math.prod(v.shape[:-2]), m, m)
    # flat[k, anchor[k, j], j]: the largest-magnitude entry of each column
    signs = np.sign(flat[np.arange(len(flat))[:, None], np.abs(flat).argmax(axis=1), np.arange(m)])
    signs[signs == 0.0] = 1.0
    return vals, v * signs.reshape(vals.shape)[..., None, :]
