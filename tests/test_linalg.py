"""Inversion and the symmetric eigensolver: conventions, batch invariance, loud failure."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from statcurv.errors import LinearAlgebraError, NearSingularError
from statcurv.linalg import gauss_inverse, invert, jacobi_eigh


def test_inverse_identity():
    assert np.array_equal(invert(np.eye(4)), np.eye(4))


def test_inverse_known_2x2():
    inv, det = gauss_inverse(np.array([[2.0, 1.0], [1.0, 1.0]]))
    assert det == pytest.approx(1.0)
    assert inv == pytest.approx(np.array([[1.0, -1.0], [-1.0, 2.0]]))


def test_singular_raises():
    with pytest.raises(NearSingularError):
        invert(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_batched_matches_loop():
    rng = np.random.default_rng(3)
    mats = rng.normal(size=(6, 5, 5)) + 5 * np.eye(5)
    inv_batch, det_batch = gauss_inverse(mats)
    for b in range(6):
        inv_one, det_one = gauss_inverse(mats[b])
        assert np.array_equal(inv_batch[b], inv_one)
        assert det_batch[b] == det_one


@given(
    arrays(
        np.float64,
        (4, 4),
        elements=st.floats(min_value=-2.0, max_value=2.0),
    )
)
def test_inverse_property(a):
    a = a + 7.0 * np.eye(4)  # strictly diagonally dominant, always invertible
    inv, det = gauss_inverse(a)
    assert np.abs(a @ inv - np.eye(4)).max() < 1e-10
    assert det == pytest.approx(np.linalg.det(a), rel=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_inverse_non_finite_raises(bad):
    with pytest.raises(LinearAlgebraError):
        gauss_inverse(np.array([[1.0, bad], [0.0, 1.0]]))


def test_determinant_of_permutation():
    p = np.eye(3)[[1, 0, 2]]
    assert gauss_inverse(p)[1] == pytest.approx(-1.0)


class TestJacobi:
    def test_diagonal_passthrough(self):
        vals, vecs = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
        assert vals.tolist() == [-1.0, 2.0, 3.0]
        assert np.abs(np.abs(vecs) - np.eye(3)[:, [1, 2, 0]]).max() == 0.0

    def test_known_2x2(self):
        vals, _ = jacobi_eigh(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert vals == pytest.approx([0.0, 2.0], abs=1e-15)

    @pytest.mark.parametrize("m", [2, 3, 6, 10, 28])
    def test_against_numpy(self, m):
        rng = np.random.default_rng(m)
        a = rng.normal(size=(4, m, m))
        a = a + a.swapaxes(1, 2)
        vals, vecs = jacobi_eigh(a)
        assert np.abs(vals - np.linalg.eigvalsh(a)).max() < 1e-11 * m
        # eigen equation and orthogonality
        res = np.einsum("bij,bjk->bik", a, vecs) - vecs * vals[:, None, :]
        assert np.abs(res).max() < 1e-11 * m
        orth = np.einsum("bji,bjk->bik", vecs, vecs) - np.eye(m)
        assert np.abs(orth).max() < 1e-12 * m

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 7, 7))
        a = a + a.swapaxes(1, 2)
        first = jacobi_eigh(a.copy())
        second = jacobi_eigh(a.copy())
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_sign_convention(self):
        # largest-magnitude component of each eigenvector is positive
        rng = np.random.default_rng(11)
        a = rng.normal(size=(8, 8))
        a = a + a.T
        _, vecs = jacobi_eigh(a)
        for col in vecs.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_ascending_order_batch(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(5, 6, 6))
        a = a + a.swapaxes(1, 2)
        vals, _ = jacobi_eigh(a)
        assert np.all(np.diff(vals, axis=1) >= 0)

    def test_batch_invariant(self):
        # a matrix's bytes do not depend on its batch neighbours, whatever their scale
        rng = np.random.default_rng(17)
        big = rng.normal(size=(6, 6))
        big = 1e8 * (big + big.T)
        for scale in np.logspace(-8, 0, 50):
            a = rng.normal(size=(6, 6))
            a = scale * (a + a.T)
            alone = jacobi_eigh(a)
            batched = jacobi_eigh(np.stack([a, big]))
            assert alone[0].tobytes() == batched[0][0].tobytes()
            assert alone[1].tobytes() == batched[1][0].tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raises(self, bad):
        with pytest.raises(LinearAlgebraError):
            jacobi_eigh(np.array([[1.0, bad], [bad, 1.0]]))
