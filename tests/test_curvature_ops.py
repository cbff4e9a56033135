"""Operator assembly on Lambda^2 and the symmetrized-matrix construction."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statcurv import curvature_ops, frames, topology
from statcurv.curvature_ops import (
    Lambda2Basis,
    _operators,
    _symmetrized,
    operators_at,
    operators_from_data,
)
from statcurv.frames import adapted_frames_batch, orthonormal_completions, rotation_blocks
from statcurv.generators import FAMILIES, GeneratorRecipe, battery_recipe, generate
from statcurv.lambda2 import compound, pair_components
from statcurv.linalg import jacobi_eigh
from statcurv.metric import frame_components_batch, load_spec
from statcurv.stationary import (
    StationaryStructure,
    connection_residual_batch,
    curvature_residual_batch,
    structure_data,
)
from statcurv.tolerances import DEFAULT

from conftest import SPEC_DIR, sample_interior
from oracles import (
    frame_tensor_curvature_residuals,
    frame_tensor_operators,
    gram_operators,
    pair_entries,
    riemann_tensors,
)
from structures import s3_times_torus, two_pair_flat_rotations


# A single point is a (1, n) batch followed by [0].

def ops_at(s, point):
    """Adapted frame and the three operators at one point."""
    return operators_at(s, [point])[0]


def riemannian_in(s, data, vectors):
    """Riemannian operator matrices (B, N, N) in the frames ``vectors`` (B, n, n), any frames."""
    basis = Lambda2Basis.standard(s.dimension)
    return gram_operators(pair_components(data.rm_g, vectors, basis), data.g, vectors, basis)


class TestBasis:
    def test_three_dimensional_order(self):
        assert Lambda2Basis.standard(3).pairs == ((0, 1), (0, 2), (1, 2))

    def test_four_dimensional_order_matches_paper_rows(self):
        assert Lambda2Basis.standard(4).pairs == (
            (0, 1),
            (0, 2),
            (0, 3),
            (2, 3),
            (3, 1),
            (1, 2),
        )

    def test_higher_dimensions_lexicographic(self):
        basis = Lambda2Basis.standard(5)
        assert basis.pairs[:4] == ((0, 1), (0, 2), (0, 3), (0, 4))
        assert basis.pairs[4:] == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
        assert basis.size == 10

    def test_size_formula(self):
        for n in range(3, 9):
            assert Lambda2Basis.standard(n).size == n * (n - 1) // 2

    def test_labels(self):
        assert Lambda2Basis.standard(3).labels() == (("T", "X1"), ("T", "X2"), ("X1", "X2"))


class TestLambda2Gram:
    # the Lambda^2 Gram matrix is the compound (2x2 minors) of the frame Gram
    def test_lorentzian_sign_pattern(self):
        # mixed (T, X_i) pairs carry Gram -1, purely spatial pairs +1
        for n in (3, 4, 5):
            basis = Lambda2Basis.standard(n)
            minkowski = np.diag([-1.0] + [1.0] * (n - 1))
            gram = compound(basis, minkowski)
            expected = np.diag([-1.0 if 0 in pair else 1.0 for pair in basis.pairs])
            assert np.array_equal(gram, expected)

    def test_riemannian_gram_is_identity(self):
        basis = Lambda2Basis.standard(4)
        assert np.array_equal(compound(basis, np.eye(4)), np.eye(6))


class TestRiemannianOperator:
    def test_s3_identity(self, s3):
        op = ops_at(s3, [0.7, 1.0, 2.0]).riemannian
        assert op.flavor == "riemannian"
        assert np.abs(op.entries - np.eye(3)).max() < 1e-9

    def test_flat_torus_zero(self, flat_torus):
        op = ops_at(flat_torus, [1.0, 2.0, 3.0]).riemannian
        assert np.abs(op.entries).max() < 1e-15

    def test_round_s4_identity(self):
        # bipolar chart of the round 4-sphere, flipped along the circle
        # rotation; constant curvature one makes the operator the identity
        # in any g-orthogonal frame (oracle: Rm = kappa * Gram pattern)
        text = (
            "[chart]\ncoords = t, theta1, chi, theta2\n"
            "t = 0, 1.5707963267948966\ntheta1 = 0, 6.283185307179586\n"
            "chi = 0, 3.141592653589793\ntheta2 = 0, 6.283185307179586\n"
            "margin = 0.05\n"
            "[metric]\n"
            'g_0_0 = "1"\ng_1_1 = "sin(t)^2"\ng_2_2 = "cos(t)^2"\n'
            'g_3_3 = "cos(t)^2*sin(chi)^2"\n'
            "[signature]\nkind = riemannian\n"
            '[killing]\nT_0 = "0"\nT_1 = "1"\nT_2 = "0"\nT_3 = "0"\nunit = false\n'
        )
        from statcurv.stationary import flip_spec

        riem = load_spec(text)
        structure = StationaryStructure(flip_spec(riem))
        data = structure_data(structure, [[0.7, 1.0, 1.2, 2.0], [1.1, 3.0, 2.0, 1.0]])
        frames = orthonormal_completions(data, DEFAULT)
        assert np.abs(riemannian_in(structure, data, frames) - np.eye(6)).max() < 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_symmetry(self, seed):
        structure = generate(battery_recipe(seed))
        point = sample_interior(structure.spec, 1, seed + 100)[0]
        assert ops_at(structure, point).riemannian.asymmetry() < 1e-8


class TestLorentzianOperator:
    def test_s3_diagonal(self, s3):
        op = ops_at(s3, [0.9, 1.0, 2.0]).lorentzian
        assert op.flavor == "lorentzian"
        assert np.abs(op.entries - np.diag([-1.0, -1.0, 7.0])).max() < 1e-9

    def test_flat_torus_zero(self, flat_torus):
        assert np.abs(ops_at(flat_torus, [1.0, 2.0, 3.0]).lorentzian.entries).max() < 1e-15

    def test_asymmetry_recorded(self):
        # generally non-symmetric; on this example the defect is visibly
        # nonzero, but only the value is recorded, no bound is asserted
        structure = two_pair_flat_rotations()
        ops = ops_at(structure, [1.0, 0.5, 0.7, 0.9, 0.4])
        witness = ops.lorentzian.asymmetry()
        assert np.isfinite(witness)
        assert ops.riemannian.asymmetry() < 1e-9 < witness


def _random_curvature_like(n, seed):
    """Random 4-tensor with the antisymmetries and pair symmetry of Rm."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, n, n, n))
    raw = raw - raw.transpose(1, 0, 2, 3)
    raw = raw - raw.transpose(0, 1, 3, 2)
    return 0.5 * (raw + raw.transpose(2, 3, 0, 1))


def symmetrized(rm, blocks):
    """Symmetrized matrix of frame components ``rm`` (n,n,n,n), rotation blocks ((i, j, f), ...).

    omega is written out by hand, so any pair of frame indices can carry a
    block and any index can be fixed, which the standard pairing of
    ``frames.rotation_blocks`` cannot express.
    """
    n = rm.shape[0]
    omega = np.zeros((1, n, n))
    for i, j, f in blocks:
        omega[0, i, j], omega[0, j, i] = f, -f
    basis = Lambda2Basis.standard(n)
    return _symmetrized(pair_entries(rm, basis)[None], omega, basis)[0]


class TestSymmetrizedTemplates:
    def test_three_dimensional_template(self):
        # the explicit 3x3 matrix: +2f^2 on both mixed diagonal entries,
        # -6f^2 on the spatial one, signs +/+/- by block
        rm = _random_curvature_like(3, seed=1)
        f = -1.3
        got = symmetrized(rm, [(1, 2, f)])
        r = rm
        expected = np.array(
            [
                [r[0, 1, 0, 1] + 2 * f**2, r[0, 2, 0, 1], r[1, 2, 0, 1]],
                [r[0, 1, 0, 2], r[0, 2, 0, 2] + 2 * f**2, r[1, 2, 0, 2]],
                [r[0, 1, 1, 2], r[0, 2, 1, 2], -r[1, 2, 1, 2] - 6 * f**2],
            ]
        )
        assert np.abs(got - expected).max() < 1e-12

    def test_four_dimensional_template(self):
        # fixed X_1, rotation block (X_2, X_3): the f-corrections sit on the
        # (T,2), (T,3) and (2,3) diagonal entries and nowhere else
        rm = _random_curvature_like(4, seed=2)
        f = -0.8
        got = symmetrized(rm, [(2, 3, f)])
        pairs = Lambda2Basis.standard(4).pairs
        expected = np.empty((6, 6))
        for a, pa in enumerate(pairs):
            for b, pb in enumerate(pairs):
                sign = -1.0 if (0 not in pa and 0 not in pb) else 1.0
                expected[a, b] = sign * rm[pb + pa]
        expected[1, 1] += 2 * f**2  # (T, X2)
        expected[2, 2] += 2 * f**2  # (T, X3)
        expected[3, 3] -= 6 * f**2  # (X2, X3)
        assert np.abs(got - expected).max() < 1e-12

    def test_corrections_touch_only_documented_entries(self):
        rm = np.zeros((4, 4, 4, 4))
        f = -0.5
        got = symmetrized(rm, [(2, 3, f)])
        expected = np.zeros((6, 6))
        expected[1, 1] = expected[2, 2] = 2 * f**2
        expected[3, 3] = -6 * f**2
        assert np.array_equal(got, expected)

    def test_two_pair_off_diagonal_corrections(self):
        # with two rotation blocks the spatial-spatial block picks up
        # off-diagonal corrections between the two pair bivectors
        rm = np.zeros((5, 5, 5, 5))
        fa, fb = -1.1, -0.4
        got = symmetrized(rm, [(1, 2, fa), (3, 4, fb)])
        basis = Lambda2Basis.standard(5)
        i12 = basis.pairs.index((1, 2))
        i34 = basis.pairs.index((3, 4))
        i13 = basis.pairs.index((1, 3))
        # corr for Rm(1,2,3,4) is -2 * (-2 w_12 w_34) = 4 fa fb; the operator
        # entry negates it
        assert got[i34, i12] == pytest.approx(-4 * fa * fb)
        assert got[i12, i34] == pytest.approx(-4 * fa * fb)
        # Rm(1,3,2,4): -2 * (w_14 w_32 - w_12 w_34) = -2 fa fb
        assert got[i13, i13] == pytest.approx(0.0)  # diagonal of unpaired bivector
        assert got[i12, i12] == pytest.approx(-6 * fa * fa)
        assert got[i34, i34] == pytest.approx(-6 * fb * fb)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_batched_synthesis_matches_pointwise_formula(self, seed):
        # reference: the curvature identities applied one point at a time to
        # the n^4 frame tensor; the batched pass works on pair components and
        # sums in another order, so the two agree to rounding
        structure = generate(battery_recipe(seed))
        data = structure_data(structure, sample_interior(structure.spec, 8, seed))
        frames = adapted_frames_batch(structure, data)
        ops = operators_from_data(structure, data, frames)
        rml = frame_components_batch(riemann_tensors(data)[0], np.stack([f.vectors for f in frames]))
        n = structure.dimension
        basis = Lambda2Basis.standard(n)
        iv = np.array([p[0] for p in basis.pairs])
        iw = np.array([p[1] for p in basis.pairs])
        idx = np.arange(n)
        touch = (
            (idx[:, None, None, None] == 0)
            | (idx[None, :, None, None] == 0)
            | (idx[None, None, :, None] == 0)
            | (idx[None, None, None, :] == 0)
        )
        for b, frame in enumerate(frames):
            omega = np.zeros((n, n))
            for p in frame.pairing:
                omega[p.i, p.j] = p.f
                omega[p.j, p.i] = -p.f
            corr = -2.0 * (
                np.einsum("ad,bc->abcd", omega, omega)
                - np.einsum("ac,bd->abcd", omega, omega)
                - 2.0 * np.einsum("ab,cd->abcd", omega, omega)
            )
            synth = np.where(touch, -rml[b], rml[b]) + corr
            tt = -2.0 * omega @ omega.T
            synth[0, 1:, 0, 1:] += tt[1:, 1:]
            synth[1:, 0, 1:, 0] += tt[1:, 1:]
            synth[0, 1:, 1:, 0] -= tt[1:, 1:]
            synth[1:, 0, 0, 1:] -= tt[1:, 1:]
            entries = -synth[iv[None, :], iw[None, :], iv[:, None], iw[:, None]]
            expected = 0.5 * (entries + entries.T)
            scale = max(1.0, np.abs(expected).max())
            assert np.abs(ops[b].symmetrized.entries - expected).max() <= 1e-13 * scale


class TestCentralIdentity:
    def test_s3(self, s3):
        ops = ops_at(s3, [0.8, 1.0, 2.0])
        assert np.abs(ops.symmetrized.entries - np.eye(3)).max() < 1e-9
        assert ops.central_residual < 1e-9

    def test_parallel_t_reduces_to_symmetrization(self):
        # static product: no f at all; the symmetrized matrix coincides with
        # the Lorentzian operator with its lower-left block transposed, and
        # (here) with the Riemannian operator outright
        text = (
            "[chart]\ncoords = t, x, y\nt = 0, 6.28\nx = 0, 6.28\ny = 0, 6.28\n"
            '[metric]\ng_0_0 = "-1"\ng_1_1 = "1"\ng_2_2 = "2+sin(x)"\n'
            "[signature]\nkind = lorentzian\n"
            '[killing]\nT_0 = "1"\nT_1 = "0"\nT_2 = "0"\nunit = true\n'
        )
        structure = StationaryStructure.from_spec(load_spec(text))
        ops = ops_at(structure, [1.0, 2.0, 3.0])
        assert ops.frame.pairing == ()
        assert np.abs(ops.symmetrized.entries - ops.lorentzian.entries).max() < 1e-12
        assert ops.central_residual < 1e-12
        # the curved factor shows up in the spatial bivector entry
        assert abs(ops.symmetrized.entries[2, 2]) > 0.1

    def test_s3_times_torus(self):
        structure = s3_times_torus()
        ops = ops_at(structure, [0.6, 1.0, 2.0, 3.0, 4.0])
        assert ops.central_residual < 1e-8
        vals, _ = jacobi_eigh(ops.riemannian.entries)
        assert np.abs(vals - np.array([0.0] * 7 + [1.0] * 3)).max() < 1e-9

    def test_two_pair_structure(self):
        structure = two_pair_flat_rotations()
        for point in sample_interior(structure.spec, 4, seed=11):
            ops = ops_at(structure, point)
            assert len(ops.frame.pairing) == 2
            assert ops.central_residual < 1e-7

    @pytest.mark.parametrize("seed", [0, 1, 2, 9, 16])
    def test_random_structures(self, seed):
        structure = generate(battery_recipe(seed))
        for point in sample_interior(structure.spec, 4, seed + 200):
            ops = ops_at(structure, point)
            assert ops.central_residual < 1e-7

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_high_dimensional_pipeline(self, n):
        # the battery stops at n = 5; this runs frames -> operators at the top
        # of the supported range, Lambda^2 up to 28 x 28
        families = [("warped-rotational", 0), ("product-with-flat", 1), ("product-with-flat", 2)]
        for family, flat_dims in families:
            for seed in (0, 1):
                structure = generate(GeneratorRecipe(seed, n, family, flat_dims))
                data = structure_data(structure, sample_interior(structure.spec, 5, seed))
                frames = adapted_frames_batch(structure, data)
                stack = np.stack([f.vectors for f in frames])
                ops = operators_from_data(structure, data, frames)
                assert connection_residual_batch(data, stack).max() <= DEFAULT.pairing
                assert curvature_residual_batch(data, stack).max() <= DEFAULT.oracle
                assert max(op.central_residual for op in ops) <= DEFAULT.pairing
                assert all(op.riemannian.size == n * (n - 1) // 2 for op in ops)

    def test_s3_flavor_difference_is_documented_correction(self, s3):
        # symmetrized minus lorentzian at f = -1: diag(+2, +2, -6)
        ops = ops_at(s3, [0.7, 1.0, 2.0])
        diff = ops.symmetrized.entries - ops.lorentzian.entries
        assert np.abs(diff - np.diag([2.0, 2.0, -6.0])).max() < 1e-9


class TestBasisEquivariance:
    def test_spatial_permutation_conjugates(self):
        structure = two_pair_flat_rotations()
        point = [1.0, 0.5, 0.7, 0.9, 0.4]
        base = Lambda2Basis.standard(5)
        mixed = [p for p in base.pairs if 0 in p]
        spatial = [p for p in base.pairs if 0 not in p]
        permuted = Lambda2Basis(5, tuple(mixed + spatial[::-1]))
        data = structure_data(structure, [point])
        batch = adapted_frames_batch(structure, data)
        frames = batch.vectors
        perm = [base.pairs.index(p) for p in permuted.pairs]
        rc = data.rm_g[:, perm][:, :, perm]  # the coordinate pairs in the permuted order
        op1 = riemannian_in(structure, data, frames)[0]
        op2 = _operators(pair_components(rc, frames, permuted), -batch.timelike_norm, permuted)[0]
        assert np.abs(op2 - op1[np.ix_(perm, perm)]).max() < 1e-12
        v1, _ = jacobi_eigh(op1)
        v2, _ = jacobi_eigh(op2)
        assert np.abs(v1 - v2).max() < 1e-10


def _eager_lorentzian(data, frames: np.ndarray, basis: Lambda2Basis) -> np.ndarray:
    """G_L^{-1} S_L built for every batch, read or not: G_L = diag(g_L(T,T) on pairs touching T, +1)."""
    s = -pair_components(data.rm_l, frames, basis).swapaxes(1, 2)
    touches_t = np.array([0 in pair for pair in basis.pairs])
    return np.where(touches_t[:, None], s / data.gtt[:, None, None], s) + 0.0


def _lazy_cases():
    cases = [("s3", None), ("flat_torus", None)]
    cases += [(f"battery{seed}", battery_recipe(seed)) for seed in range(6)]  # n = 3, 4, 5
    cases += [(f"n{n}", GeneratorRecipe(3, n)) for n in (6, 7, 8)]
    return cases


@pytest.mark.parametrize("name, recipe", _lazy_cases(), ids=[c[0] for c in _lazy_cases()])
def test_lorentzian_operator_on_first_read(name, recipe, request):
    structure = request.getfixturevalue(name) if recipe is None else generate(recipe)
    pts = sample_interior(structure.spec, 5, 31)
    ops = operators_at(structure, pts)
    assert "m_l" not in vars(ops)
    want = _eager_lorentzian(structure_data(structure, pts), ops.frames.vectors, ops.basis)
    assert np.array_equal(ops.m_l, want)
    # a per-point view is the other first read
    fresh = operators_at(structure, pts)
    for b in range(len(fresh)):
        assert np.array_equal(fresh[b].lorentzian.entries, want[b])
    assert np.array_equal(fresh.m_r, ops.m_r) and np.array_equal(fresh.m_s, ops.m_s)


@pytest.fixture(scope="module")
def s3_off_unit():
    """S3 with g_L scaled by 1 - 5e-9: declared unit, and within unit_timelike of it."""
    scaled = r'\1 = "0.999999995*(\2)"'
    text = re.sub(r'^(g_\d_\d) = "(.*)"$', scaled, (SPEC_DIR / "s3.spec").read_text(), flags=re.M)
    structure = StationaryStructure.from_spec(load_spec(text))
    assert structure.unit
    assert np.abs(structure_data(structure, [[0.7, 1.0, 2.0]]).gtt + 1.0 - 5e-9).max() < 1e-15
    return structure


_GRAM_CASES = _lazy_cases() + [("s3_off_unit", None)]


@pytest.mark.parametrize("name, recipe", _GRAM_CASES, ids=[c[0] for c in _GRAM_CASES])
def test_orthonormal_grams_match_the_inverted_grams(name, recipe, request):
    # the adapted frames are orthonormal, so their Lambda^2 Grams are diagonal
    # and the operators need no inverse; the oracle inverts the explicit Grams.
    # On s3_off_unit, g_L(T,T) = -1 + 5e-9: Grams of +-1 would be 5e-9 off
    structure = request.getfixturevalue(name) if recipe is None else generate(recipe)
    data = structure_data(structure, sample_interior(structure.spec, 5, 37))
    ops = operators_from_data(structure, data, adapted_frames_batch(structure, data))
    vectors = ops.frames.vectors
    for got, rm, metric in ((ops.m_r, data.rm_g, data.g), (ops.m_l, data.rm_l, data.gl)):
        want = gram_operators(pair_components(rm, vectors, ops.basis), metric, vectors, ops.basis)
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, float(np.abs(want).max()))


def test_scan_points_leaves_the_lorentzian_operator_unbuilt(s3, monkeypatch):
    # scan_points reads its spectra in the completion frames: no adapted
    # frame, no OperatorBatch, and no eigenvector of the squared map;
    # topology does not even bind the adapted-frame and operator builders
    def refused(*args, **kwargs):
        raise AssertionError("called on the scan_points path")

    assert not hasattr(topology, "adapted_frames_batch") and not hasattr(topology, "operators_from_data")
    for module, name in (
        (frames, "adapted_frames_batch"),
        (curvature_ops, "adapted_frames_batch"),
        (curvature_ops, "operators_from_data"),
        (frames, "jacobi_eigh"),
    ):
        monkeypatch.setattr(module, name, refused)
    built = []

    def recording(*args, **kwargs):
        built.append(structure_data(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(topology, "structure_data", recording)
    monkeypatch.setattr(topology, "CHUNK", 4)
    topology.scan_points(s3, sample_interior(s3.spec, 10, 5))
    assert len(built) == 3
    assert all("dgtt" not in vars(d) and "cov_t_g" not in vars(d) for d in built)


@st.composite
def recipes(draw):
    """Generator recipes over the supported range n = 3..8, every family it admits."""
    n = draw(st.integers(min_value=3, max_value=8))
    family = draw(st.sampled_from(FAMILIES if n == 3 else FAMILIES[:2]))
    flat = draw(st.integers(min_value=0, max_value=n - 2)) if family == "product-with-flat" else 0
    return GeneratorRecipe(draw(st.integers(min_value=0, max_value=99)), n, family, flat)


def assert_operators_match_frame_tensor_oracle(unit, pts):
    """The n^4 formulation: staged frame tensors, the full-tensor flip, the gather, the inverted Grams."""
    data = structure_data(unit, pts)
    frames = adapted_frames_batch(unit, data)
    ops = operators_from_data(unit, data, frames)
    omega = rotation_blocks(frames.f, frames.pair_count, unit.dimension)
    want = frame_tensor_operators(data, frames.vectors, omega, ops.basis.pairs)
    scale = max(1.0, *(float(np.abs(want[m]).max()) for m in ("m_r", "m_l", "m_s")))
    for name in ("m_r", "m_l", "m_s", "central"):
        assert np.abs(getattr(ops, name) - want[name]).max() <= 1e-12 * scale, name


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_frame_tensor_oracle_sees_the_lorentzian_gram_signs(seed, monkeypatch):
    # a mutation: m_l built with +1 on the pairs touching T as well
    real = curvature_ops._operators
    monkeypatch.setattr(curvature_ops, "_operators", lambda p, t_gram, basis: real(p, np.abs(t_gram), basis))
    unit = generate(battery_recipe(seed))
    with pytest.raises(AssertionError, match="m_l"):
        assert_operators_match_frame_tensor_oracle(unit, sample_interior(unit.spec, 3, seed))


@settings(max_examples=40)
@given(recipes(), st.integers(min_value=0, max_value=2**16))
def test_pair_space_matches_frame_tensor_oracle(recipe, seed):
    unit = generate(recipe)
    assert_operators_match_frame_tensor_oracle(unit, sample_interior(unit.spec, 3, seed))
    # the residual classes where verify checks them: T at its own length, so
    # g_L(T,T) != -1, in frames whose rotation blocks are not normal forms
    raw = generate(replace(recipe, normalize=False))
    data = structure_data(raw, sample_interior(raw.spec, 3, seed))
    frames = orthonormal_completions(data, DEFAULT)
    want = frame_tensor_curvature_residuals(data, frames)
    basis = Lambda2Basis.standard(raw.dimension)
    scale = max(1.0, float(np.abs(pair_components(data.rm_g, frames, basis)).max()))
    got = curvature_residual_batch(data, frames)
    assert np.abs(got - want).max() <= 1e-12 * scale
