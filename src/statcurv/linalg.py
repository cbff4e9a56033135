"""Dense linear algebra for small matrices (n <= 28 on the Lambda^2 side).

Thin wrappers over ``numpy.linalg`` (LAPACK).  Both accept a leading batch
dimension; each matrix is factored on its own, so its result does not depend
on the other matrices in the batch.  Non-finite input and LAPACK failures
raise instead of returning numbers.
"""

from __future__ import annotations

import numpy as np

from .errors import LinearAlgebraError, NearSingularError


def _finite(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise LinearAlgebraError("non-finite matrix entry")
    return a


def gauss_inverse(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert ``a`` of shape (..., m, m); returns (inverse, determinant).

    Raises NearSingularError if LAPACK finds an exactly singular matrix;
    callers apply their own |det| thresholds.
    """
    a = _finite(a)
    try:
        return np.linalg.inv(a), np.linalg.det(a)
    except np.linalg.LinAlgError as exc:
        raise NearSingularError(f"singular matrix: {exc}") from exc


def invert(a: np.ndarray) -> np.ndarray:
    return gauss_inverse(a)[0]


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
    anchor = np.argmax(np.abs(v), axis=-2)
    signs = np.sign(np.take_along_axis(v, anchor[..., None, :], axis=-2))
    signs[signs == 0.0] = 1.0
    return vals, v * signs
