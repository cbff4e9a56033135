"""Dense direct linear algebra for small matrices (n <= 28 on the Lambda^2 side).

Inversion is Gauss-Jordan with partial pivoting; the symmetric eigensolver
is cyclic Jacobi with a fixed sweep order.  Both accept a leading batch
dimension and are fully deterministic: same input bytes, same output bytes.
"""

from __future__ import annotations

import numpy as np

from .errors import NearSingularError


def gauss_inverse(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert ``a`` of shape (..., m, m); returns (inverse, determinant).

    Raises NearSingularError if any pivot vanishes exactly; callers apply
    their own |det| thresholds.
    """
    a = np.asarray(a, dtype=float)
    m = a.shape[-1]
    lead = a.shape[:-2]
    aug = np.concatenate(
        [a.reshape(-1, m, m).copy(), np.broadcast_to(np.eye(m), (int(np.prod(lead, initial=1)), m, m)).copy()],
        axis=2,
    )
    batch = aug.shape[0]
    rows = np.arange(batch)
    det = np.ones(batch)
    for k in range(m):
        p = np.argmax(np.abs(aug[:, k:, k]), axis=1) + k
        swapped = p != k
        det[swapped] = -det[swapped]
        row_p = aug[rows, p, :].copy()
        aug[rows, p, :] = aug[:, k, :]
        aug[:, k, :] = row_p
        piv = aug[:, k, k].copy()
        if np.any(piv == 0.0):
            raise NearSingularError("singular matrix in Gauss-Jordan elimination")
        det *= piv
        aug[:, k, :] /= piv[:, None]
        col = aug[:, :, k].copy()
        col[:, k] = 0.0
        aug -= col[:, :, None] * aug[:, k, None, :]
    inv = aug[:, :, m:]
    return inv.reshape(*lead, m, m), det.reshape(lead)


def invert(a: np.ndarray) -> np.ndarray:
    return gauss_inverse(a)[0]


def jacobi_eigh(a: np.ndarray, max_sweeps: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of symmetric ``a`` (..., m, m) by cyclic Jacobi.

    Returns (eigenvalues ascending, eigenvectors as columns).  Sweep order is
    fixed, eigenvalue sorting is stable, and each eigenvector's sign is fixed
    by making its largest-magnitude component positive, so the output is a
    deterministic function of the input.
    """
    a = np.asarray(a, dtype=float)
    m = a.shape[-1]
    lead = a.shape[:-2]
    w = a.reshape(-1, m, m).copy()
    batch = w.shape[0]
    v = np.broadcast_to(np.eye(m), (batch, m, m)).copy()
    if m > 1:
        scale = np.maximum(np.abs(w).max(initial=1e-300), 1.0)
        stop = 1e-15 * scale
        upper = np.triu_indices(m, k=1)
        for _ in range(max_sweeps):
            for p in range(m - 1):
                for q in range(p + 1, m):
                    apq = w[:, p, q].copy()
                    active = np.abs(apq) > stop * 1e-2
                    if not np.any(active):
                        continue
                    theta = np.zeros(batch)
                    np.divide(w[:, q, q] - w[:, p, p], 2.0 * apq, out=theta, where=active)
                    t = np.where(
                        theta == 0.0,
                        1.0,
                        np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0)),
                    )
                    c = 1.0 / np.sqrt(t * t + 1.0)
                    s = t * c
                    c = np.where(active, c, 1.0)
                    s = np.where(active, s, 0.0)
                    row_p = w[:, p, :].copy()
                    row_q = w[:, q, :].copy()
                    w[:, p, :] = c[:, None] * row_p - s[:, None] * row_q
                    w[:, q, :] = s[:, None] * row_p + c[:, None] * row_q
                    col_p = w[:, :, p].copy()
                    col_q = w[:, :, q].copy()
                    w[:, :, p] = c[:, None] * col_p - s[:, None] * col_q
                    w[:, :, q] = s[:, None] * col_p + c[:, None] * col_q
                    zero = np.where(active, 0.0, w[:, p, q])
                    w[:, p, q] = zero
                    w[:, q, p] = zero
                    vp = v[:, :, p].copy()
                    vq = v[:, :, q].copy()
                    v[:, :, p] = c[:, None] * vp - s[:, None] * vq
                    v[:, :, q] = s[:, None] * vp + c[:, None] * vq
            if float(np.abs(w[:, upper[0], upper[1]]).max(initial=0.0)) <= stop:
                break
    vals = np.einsum("bii->bi", w).copy()
    order = np.argsort(vals, axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1)
    v = np.take_along_axis(v, order[:, None, :], axis=2)
    # deterministic sign: largest-|component| entry of each eigenvector positive
    anchor = np.argmax(np.abs(v), axis=1)
    signs = np.sign(np.take_along_axis(v, anchor[:, None, :], axis=1))[:, 0, :]
    signs[signs == 0.0] = 1.0
    v *= signs[:, None, :]
    return vals.reshape(*lead, m), v.reshape(*lead, m, m)
