"""Inversion and the symmetric eigensolvers: conventions, batch invariance, loud failure."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from statcurv import cli
from statcurv.errors import LinearAlgebraError, NearSingularError
from statcurv.linalg import eigvalsh, gauss_inverse, invert, jacobi_eigh
from statcurv.metric import load_spec_file
from statcurv.stationary import StationaryStructure
from statcurv.topology import grid_scan

from conftest import SPEC_DIR
from oracles import assert_spectra_agree

S3 = str(SPEC_DIR / "s3.spec")


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
    a = a + 9.0 * np.eye(4)  # |a_ii| >= 7 > 6 >= sum of |a_ij|: strictly diagonally dominant
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


class TestEigvalsh:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        with pytest.raises(LinearAlgebraError):
            eigvalsh(np.array([[1.0, bad], [bad, 1.0]]))

    def test_lapack_failure_raises(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(LinearAlgebraError, match="did not converge"):
            eigvalsh(np.eye(3))

    def test_batch_invariant(self):
        # a matrix's bytes do not depend on its batch neighbours, whatever their scale
        rng = np.random.default_rng(19)
        big = rng.normal(size=(6, 6))
        big = 1e8 * (big + big.T)
        for scale in np.logspace(-8, 0, 50):
            a = rng.normal(size=(6, 6))
            a = scale * (a + a.T)
            assert eigvalsh(a).tobytes() == eigvalsh(np.stack([a, big]))[0].tobytes()

    def test_upper_triangle_ignored(self):
        rng = np.random.default_rng(23)
        lower = np.tril(rng.normal(size=(4, 7, 7)))
        a = lower + np.triu(rng.normal(size=(4, 7, 7)), 1)
        sym = lower + np.tril(lower, -1).swapaxes(1, 2)
        assert np.array_equal(eigvalsh(a), eigvalsh(sym))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_jacobi_eigh(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(16, 28, 28))
        a = a + a.swapaxes(1, 2)
        vals = eigvalsh(a)
        ref = jacobi_eigh(a)[0]
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(vals - ref) <= 1e-13 * scale)
        assert np.all(np.diff(vals, axis=1) >= 0)


def test_export_eigenvalues_are_the_spectra_analyze_summarizes(tmp_path, capsys):
    out = tmp_path / "s3.jsonl"
    assert cli.main(["export", S3, "--grid", "3", "--out", str(out)]) == 0
    exported = np.array([json.loads(line)["eigenvalues"] for line in out.read_text().splitlines()])
    s3 = StationaryStructure.from_spec(load_spec_file(S3))
    result = grid_scan(s3, [3, 3, 3], 1)
    # export prints the adapted frames' matrices, analyze reads the
    # completions': the same spectra up to rounding
    assert_spectra_agree(result.eigenvalues, exported)
    assert cli.main(["analyze", S3, "--p", "1", "--grid", "3", "--format", "json"]) == 0
    (report,) = json.loads(capsys.readouterr().out)["results"]
    quantiles = report["eigenvalue_quantiles"]
    qs = (0.0, 0.25, 0.5, 0.75, 1.0)
    assert quantiles["smallest_eigenvalue"] == np.quantile(result.eigenvalues[:, 0], qs).tolist()
    assert quantiles["largest_eigenvalue"] == np.quantile(result.eigenvalues[:, -1], qs).tolist()
