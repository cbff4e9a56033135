"""Killing checks, the metric flip, conformal normalization, Props on frames."""

import functools
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from statcurv import stationary
from statcurv.errors import ChartDomainError, NearSingularError, NonTimelikeError, SpecFormatError
from statcurv.expr import Expression, eval_jet_batch
from statcurv.frames import adapted_frames_batch, orthonormal_completion, orthonormal_completions
from statcurv.generators import GeneratorRecipe, battery_recipe, generate
from statcurv.lambda2 import Lambda2Basis, pair_components
from statcurv.metric import (
    KillingField,
    check_signature,
    frame_components_batch,
    load_spec,
    load_spec_file,
    metric_batch,
)
from statcurv.stationary import (
    StationaryStructure,
    conformal_normalize,
    flip_spec,
    connection_residual_batch,
    connection_residuals,
    curvature_residual_batch,
    flipped_curvature,
    killing_defect_batch,
    nabla_t_form,
    structure_data,
)
from statcurv.tolerances import DEFAULT

from conftest import SPEC_DIR, sample_interior
from oracles import (
    connection_residuals_einsum,
    cov_t_einsum,
    dgtt_einsum,
    inverse_nabla_t_frames,
    lie_einsum,
    riemann_tensors,
)
from structures import rotating_warped_plane, s3_times_torus, two_pair_flat_rotations


def torus_with_field(*components):
    text = (
        "[chart]\ncoords = t, x, y\nt = 0, 6.28\nx = 0, 6.28\ny = 0, 6.28\n"
        '[metric]\ng_0_0 = "-1"\ng_1_1 = "1"\ng_2_2 = "1"\n'
        "[signature]\nkind = lorentzian\n[killing]\n"
        + "".join(f'T_{i} = "{c}"\n' for i, c in enumerate(components))
        + "unit = false\n"
    )
    return StationaryStructure.from_spec(load_spec(text))


# A single point is a (1, n) batch followed by [0].

def defect_at(s, point):
    return float(killing_defect_batch(s, [point])[0])


def completions(s, pts):
    """StructureData at ``pts`` (B, n) and the completion frames (B, n, n) of its rows."""
    data = structure_data(s, pts)
    return data, orthonormal_completions(data, DEFAULT)


EPS = np.finfo(float).eps


def assert_within_rounding(got, want, terms, n):
    """|got - want| <= 4 n^2 eps times the sum of |terms|, entry by entry.

    Each form rounds an entry by at most about m eps times the sum of the
    magnitudes of its terms, m <= n^2 + 4 here (the longest chain is a sum
    of n^2 three-factor products); 4 n^2 eps covers both forms for n >= 3.
    """
    assert np.all(np.abs(got - want) <= 4 * n * n * EPS * terms)


def einsum_args(*arrays, signs=None):
    """The einsum oracle's arguments, then their magnitudes times ``signs``.

    With -1 on each array that puts a minus sign on its terms (Gamma_L, and
    g_L(T,T), which divides the subtracted T^k l_a), every term of the
    oracle on the second tuple is a |term|: it returns each entry's sum of
    |terms|."""
    signs = signs or (1,) * len(arrays)
    return arrays, tuple(s * np.abs(a) for s, a in zip(signs, arrays))


def assert_contractions_match_einsum(data, frames):
    """dgtt, cov_t_g, the Lie derivative behind the Killing defect and the
    connection residual arrays against their einsum oracles."""
    n = data.t.shape[1]
    fields = (data.gl, data.dgl, data.t, data.dt)
    want, terms = (dgtt_einsum(*a) for a in einsum_args(*fields))
    assert_within_rounding(data.dgtt, want, terms, n)
    want, terms = (cov_t_einsum(*a) for a in einsum_args(data.gamma_g, data.t, data.dt))
    assert_within_rounding(data.cov_t_g, want, terms, n)
    want, terms = (np.abs(lie_einsum(*a)).max(axis=(1, 2)) for a in einsum_args(*fields))
    assert_within_rounding(data.killing, want, terms, n)
    args = (data.t, frames[:, 1:], data.dgtt, data.gtt, data.gamma_g, data.gamma_l, data.cov_t_g, data.cov_t_l)
    want, terms = (
        connection_residuals_einsum(*a)
        for a in einsum_args(*args, signs=(1, 1, 1, -1, 1, -1, 1, 1))
    )
    for got, w, m in zip(connection_residuals(data, frames), want, terms):
        assert got.shape == w.shape
        assert_within_rounding(got, w, m, n)


def random_structure_data(rng, batch, n):
    """StructureData with random fields: symmetric g_L and dg_L, T, dt and a
    negative g_L(T,T) of its own (the contractions take it as given);
    Christoffels without their (i, j) symmetry, so that a contraction that
    reads X_c for X_a shows.  Fields no identity contraction reads are zero."""
    a = rng.standard_normal((batch, n, n))
    gl = a + a.swapaxes(1, 2)
    dgl = rng.standard_normal((batch, n, n, n))
    dgl = dgl + dgl.swapaxes(2, 3)
    t, dt = rng.standard_normal((batch, n)), rng.standard_normal((batch, n, n))
    gamma_l, gamma_g = rng.standard_normal((2, batch, n, n, n))
    zero2, zero3, zero4 = (np.zeros((batch,) + (n,) * k) for k in (2, 3, 4))
    return stationary.StructureData(
        np.zeros((batch, n)), gl, zero2, dgl, zero4, zero3, gamma_l,
        zero2, zero2, zero3, zero4, zero3, gamma_g, t, dt, -0.5 - rng.random(batch),
        cov_t_einsum(gamma_l, t, dt),
    )


@given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
@example(3, 0)
@example(8, 0)
def test_identity_contractions_match_einsum_on_random_fields(n, seed):
    rng = np.random.default_rng(seed)
    data = random_structure_data(rng, 4, n)
    assert_contractions_match_einsum(data, rng.standard_normal((4, n, n)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: torus_with_field("1", "-0.05*y", "0.05*x"),
        rotating_warped_plane,
        # not Killing, and d2t != 0: T's second derivatives reach g, dg and d2g
        lambda: torus_with_field("1", "0.05*sin(y)", "0.01*x*y"),
    ],
    ids=["rotating", "warped", "curved-field"],
)
def test_identity_contractions_match_einsum_on_structures(build):
    structure = build()
    pts = sample_interior(structure.spec, 16, 11, buffer=1e-3)
    data, frames = completions(structure, pts)
    assert np.abs(data.dt).max() > 0.01
    assert_contractions_match_einsum(data, frames)


class TestKillingDefect:
    def test_s3_field_is_killing(self, s3):
        for point in sample_interior(s3.spec, 10, seed=1):
            assert defect_at(s3, point) < 1e-14

    def test_flat_torus_parallel_field(self, flat_torus):
        assert defect_at(flat_torus, [1.0, 2.0, 3.0]) == 0.0

    def test_flat_torus_stretched_field(self):
        # T = t d_t: (Lie_T g)_tt = 2 g_tt d_t T^t = -2, so the defect is 2
        structure = torus_with_field("t", "0", "0")
        assert defect_at(structure, [1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_defect_scales_linearly(self):
        base = torus_with_field("t", "0", "0")
        scaled = torus_with_field("3*t", "0", "0")
        point = [1.3, 0.4, 0.2]
        assert defect_at(scaled, point) == pytest.approx(3.0 * defect_at(base, point))


    def test_point_outside_chart_raises(self, s3):
        with pytest.raises(ChartDomainError):
            defect_at(s3, [0.0005, 1.0, 2.0])  # t inside the 0.001 margin

    def test_degenerate_metric_raises(self):
        text = (
            "[chart]\ncoords = t, x, y\nt = 0, 6\nx = 0, 6\ny = 0, 6\n"
            '[metric]\ng_0_0 = "-1"\ng_1_1 = "(x-3)^2"\ng_2_2 = "1"\n'
            '[signature]\nkind = lorentzian\n[killing]\nT_0 = "1"\nT_1 = "0"\nT_2 = "0"\n'
            "unit = true\n"
        )
        structure = StationaryStructure.from_spec(load_spec(text))
        assert defect_at(structure, [1.0, 2.0, 1.0]) == 0.0
        with pytest.raises(NearSingularError):
            defect_at(structure, [1.0, 3.0, 1.0])

    def test_vanishing_metric_is_singular_not_wrongly_signed(self):
        # every eigenvalue of an all-zero g is 0, so the smallest is not
        # below near_singular times the largest; it is still singular
        spec = load_spec(
            "[chart]\ncoords = t, x, y\nt = -1, 1\nx = 0, 6\ny = 0, 6\n"
            '[metric]\ng_0_0 = "-t^2"\ng_1_1 = "t^2"\ng_2_2 = "t^2"\n'
            '[signature]\nkind = lorentzian\n[killing]\nT_0 = "1"\nT_1 = "0"\nT_2 = "0"\n'
            "unit = false\n"
        )
        with pytest.raises(NearSingularError):
            check_signature(spec.signature, np.zeros((1, 3, 3)), DEFAULT)
        structure = StationaryStructure.from_spec(spec)
        with pytest.raises(NearSingularError):
            killing_defect_batch(structure, np.array([[0.0, 1.0, 2.0]]))

    @pytest.mark.parametrize("case", [0, 1, 2, 3, 4, 5, "rotating_warped_plane"])
    def test_batch_matches_the_validated_metric(self, case):
        # reference: g_L and its derivatives from metric_batch, which also
        # inverts g_L; battery fields are constant (dt = 0), the warped
        # plane's T reads x and y (dt != 0)
        structure = rotating_warped_plane() if isinstance(case, str) else generate(battery_recipe(case))
        pts = sample_interior(structure.spec, 20, 7 if isinstance(case, str) else case)
        cache = {}
        gl, _, dgl, _ = metric_batch(structure.spec, pts, cache=cache)
        t, dt, _ = eval_jet_batch(structure.t, pts, cache)
        got = killing_defect_batch(structure, pts)
        assert np.array_equal(got, stationary._lie_defect(gl, dgl, t, dt))
        want, terms = (np.abs(lie_einsum(*a)).max(axis=(1, 2)) for a in einsum_args(gl, dgl, t, dt))
        assert_within_rounding(got, want, terms, structure.dimension)
        if isinstance(case, str):
            assert np.abs(dt).max() > 0.1

    def test_single_point_is_a_batch_of_one(self, s3):
        point = np.array([0.7, 1.0, 2.0])
        got = killing_defect_batch(s3, point)
        assert got.shape == (1,)
        assert np.array_equal(got, killing_defect_batch(s3, [point]))


def _no_jets(*args, **kwargs):
    raise AssertionError("the g_L jets were evaluated again")


class TestDefectFromLiveData:
    """killing_defect_batch reads the defect of a live StructureData, and only then."""

    # T = t x d_t on the flat torus is timelike but not Killing: the defect
    # max(2|x|, |t|) differs between points, so a stale answer shows
    @staticmethod
    def stretched():
        return torus_with_field("t*x", "0", "0")

    @staticmethod
    def points(seed):
        return sample_interior(TestDefectFromLiveData.stretched().spec, 8, seed, buffer=0.1)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_reads_live_data_without_jets(self, seed, monkeypatch):
        structure = generate(battery_recipe(seed))
        pts = sample_interior(structure.spec, 20, seed)
        fresh = killing_defect_batch(generate(battery_recipe(seed)), pts)
        data = structure_data(structure, pts)
        # a miss builds new data, whose g_L jets come from metric_batch
        monkeypatch.setattr(stationary, "metric_batch", _no_jets)
        got = killing_defect_batch(structure, pts)
        assert got.tobytes() == fresh.tobytes()
        got[:] = -1.0  # the caller owns the returned array
        assert killing_defect_batch(structure, pts).tobytes() == fresh.tobytes()
        assert data.killing.tobytes() == fresh.tobytes()

    def test_points_changed_in_place_miss(self):
        structure = self.stretched()
        pts = self.points(0)
        data = structure_data(structure, pts)
        pts[:] = self.points(1)
        got = killing_defect_batch(structure, pts)
        assert np.array_equal(got, killing_defect_batch(self.stretched(), pts))
        assert not np.array_equal(got, data.killing)

    def test_other_tolerances_miss(self):
        structure = self.stretched()
        pts = self.points(2)
        data = structure_data(structure, pts)
        # every g is singular by this measure (min |eigenvalue| <= max)
        with pytest.raises(NearSingularError):
            killing_defect_batch(structure, pts, replace(DEFAULT, near_singular=1.0))
        del data  # alive until here, so only tol told the calls apart

    def test_dropped_data_is_not_kept(self):
        structure = self.stretched()
        pts = self.points(3)
        data = structure_data(structure, pts)
        expected = data.killing.copy()
        del data
        assert stationary._live_data(structure, pts, DEFAULT) is None
        assert killing_defect_batch(structure, pts).tobytes() == expected.tobytes()


class TestFlip:
    def test_s3_counterpart_is_round(self, s3):
        for point in sample_interior(s3.spec, 20, seed=3):
            g = structure_data(s3, [point]).g[0]
            t = point[0]
            expected = np.diag([1.0, math.sin(t) ** 2, math.cos(t) ** 2])
            assert np.abs(g - expected).max() < 1e-14

    def test_flat_torus_counterpart(self, flat_torus):
        g = structure_data(flat_torus, [[1.0, 2.0, 3.0]]).g[0]
        assert np.abs(g - np.eye(3)).max() == 0.0

    def test_flip_is_involution(self, s3):
        double = flip_spec(s3.counterpart_spec)
        pts = sample_interior(s3.spec, 30, seed=4)
        g_orig, _, _, _ = metric_batch(s3.spec, pts)
        g_back, _, _, _ = metric_batch(double, pts)
        assert np.abs(g_orig - g_back).max() < 1e-12

    def test_counterpart_positive_definite(self, s3):
        pts = sample_interior(s3.spec, 10, seed=5)
        g, _, _, _ = metric_batch(s3.counterpart_spec, pts)  # signature check inside
        assert np.all(np.linalg.eigvalsh(g) > 0)

    def test_non_timelike_rejected(self):
        structure = torus_with_field("0", "1", "0")  # spacelike T
        with pytest.raises(NonTimelikeError):
            structure_data(structure, [[1.0, 2.0, 3.0]])

    def test_constant_non_timelike_flip_refused(self, flat_torus):
        # T = d_t + d_x on the flat torus is null: g_L(T,T) folds to the
        # constant 0, which the flip refuses before it divides by it
        text = (SPEC_DIR / "flat_torus.spec").read_text().replace('T_1 = "0"', 'T_1 = "1"')
        structure = StationaryStructure.from_spec(load_spec(text))
        assert structure.unit
        with pytest.raises(NonTimelikeError, match=r"g_L\(T,T\) >= 0 everywhere: it folds to the constant 0.0"):
            structure.counterpart_spec
        # the flipped, Riemannian torus with T = 0: g(T,T) folds to 0 as well
        flipped = flat_torus.counterpart_spec
        zero = KillingField((Expression.constant(0.0, flipped.coords),) * 3, False)
        with pytest.raises(NonTimelikeError, match=r"g\(T,T\) <= 0 everywhere: it folds to the constant 0.0"):
            flip_spec(replace(flipped, killing=zero))

    def test_lorentzian_spec_required(self, s3):
        # refused when the structure is built, by the constructor and its alias
        for build in (StationaryStructure, StationaryStructure.from_spec):
            with pytest.raises(SpecFormatError, match="stationary structures require a lorentzian spec"):
                build(s3.counterpart_spec)
            with pytest.raises(SpecFormatError, match=r"spec has no \[killing\] section"):
                build(replace(s3.spec, killing=None))

    def test_t_and_unit_are_read_from_the_spec(self, s3):
        assert s3.t is s3.spec.killing.components and s3.unit is s3.spec.killing.unit
        assert [f.name for f in fields(StationaryStructure)] == ["spec"]

    def test_metric_pairings_with_t(self, s3):
        # g(T,.) = -g_L(T,.) and g(X_i,.) = g_L(X_i,.) on frame vectors
        point = [0.7, 1.0, 2.0]
        data = structure_data(s3, np.array([point]))
        frame = orthonormal_completion(s3, point)
        t_vec = frame[0]
        for v in frame:
            assert np.abs(data.g[0] @ t_vec @ v + data.gl[0] @ t_vec @ v).max() < 1e-10
        for x in frame[1:]:
            for v in frame:
                assert abs(x @ data.g[0] @ v - x @ data.gl[0] @ v) < 1e-10


def _s3_doubled_field() -> StationaryStructure:
    """S3 with T doubled: still Killing, with g_L(T,T) = -4."""
    spec = load_spec_file(SPEC_DIR / "s3.spec")
    doubled = KillingField(tuple(2.0 * e for e in spec.killing.components), False)
    return StationaryStructure.from_spec(replace(spec, killing=doubled))


_HAND_BUILT = {
    "two_pair_flat_rotations": two_pair_flat_rotations,
    "s3_times_torus": s3_times_torus,
    "s3_doubled_field": _s3_doubled_field,
    "rotating_warped_plane": rotating_warped_plane,
}


@functools.cache
def _flip_case(name: str, seed: int) -> StationaryStructure:
    # one object per case, so its counterpart_spec is composed once
    return generate(battery_recipe(seed)) if name == "battery" else _HAND_BUILT[name]()


_FLIP_CASES = st.one_of(
    st.tuples(st.just("battery"), st.integers(min_value=0, max_value=47)),
    st.tuples(st.sampled_from(sorted(_HAND_BUILT)), st.just(0)),
)


@given(
    _FLIP_CASES, st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**16)
)
@example(("two_pair_flat_rotations", 0), 6, 0)
@example(("rotating_warped_plane", 0), 6, 0)
@example(("s3_doubled_field", 0), 6, 0)
@example(("s3_times_torus", 0), 6, 0)
def test_array_flip_matches_composed_counterpart(case, count, seed):
    # structure_data builds g from the g_L and T jets by the product rule;
    # the composed flip_spec, evaluated on its own jets, is the oracle.  The
    # two-pair and rotating-plane cases read several coordinates, so their
    # mixed second derivatives d_a d_c with a != c are checked too
    s = _flip_case(*case)
    pts = sample_interior(s.spec, count, seed)
    got = structure_data(s, pts)
    want = metric_batch(s.counterpart_spec, pts)
    for name, w in zip(("g", "g_inv", "dg", "d2g"), want):
        assert np.abs(getattr(got, name) - w).max() <= 1e-13 * np.abs(w).max(), name


class TestConformalNormalize:
    def test_unit_input_unchanged_pointwise(self, s3):
        normalized = conformal_normalize(s3)
        pts = sample_interior(s3.spec, 20, seed=6)
        before, _, _, _ = metric_batch(s3.spec, pts)
        after, _, _, _ = metric_batch(normalized.spec, pts)
        assert np.abs(before - after).max() < 1e-12

    def test_constant_rescaling_cancels(self, s3):
        scaled_entries = tuple((i, j, 4.0 * e) for i, j, e in s3.spec.entries)
        killing = KillingField(s3.t, False)
        scaled = StationaryStructure(replace(s3.spec, entries=scaled_entries, killing=killing))
        assert not scaled.unit and "unit = false" in scaled.spec.to_text()
        pts = sample_interior(s3.spec, 10, seed=7)
        a, _, _, _ = metric_batch(conformal_normalize(scaled).spec, pts)
        b, _, _, _ = metric_batch(conformal_normalize(s3).spec, pts)
        assert np.abs(a - b).max() < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_normalized_field_is_unit(self, seed):
        raw = generate(replace(battery_recipe(seed), normalize=False))
        assert not raw.unit
        normalized = conformal_normalize(raw)
        pts = sample_interior(normalized.spec, 50, seed=seed + 10)
        data = structure_data(normalized, pts)
        assert np.abs(data.gtt + 1.0).max() < 1e-10


class TestNablaT:
    def test_s3_rotation_pattern(self, s3):
        # nab^L_{X1} T = -X2, nab^L_{X2} T = X1, nab^L_T T = 0
        data, frames = completions(s3, [[0.9, 1.0, 2.0]])
        omega = nabla_t_form(data, frames)[0]
        expected = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        assert np.abs(omega - expected).max() < 1e-12

    def test_flat_torus_zero(self, flat_torus):
        data, frames = completions(flat_torus, [[1.0, 2.0, 3.0]])
        assert np.abs(nabla_t_form(data, frames)).max() == 0.0

    @pytest.mark.parametrize(
        "recipe",
        [battery_recipe(seed) for seed in range(6)] + [GeneratorRecipe(3, n) for n in (6, 7, 8)],
        ids=[f"battery{seed}" for seed in range(6)] + [f"n{n}" for n in (6, 7, 8)],
    )
    def test_matches_the_solved_components(self, recipe):
        # in an orthonormal frame the components of nab^L_{E_i} T along E_j are
        # omega[i, j] / diag(g_L(T,T), 1, ..., 1)_j: completions of T at its
        # own length, unit completions and adapted frames
        unit = generate(recipe)
        raw = generate(replace(recipe, normalize=False))
        for structure in (raw, unit):
            data, frames = completions(structure, sample_interior(structure.spec, 6, recipe.seed))
            stacks = [frames]
            if structure.unit:
                stacks.append(adapted_frames_batch(structure, data).vectors)
            for stack in stacks:
                diag = np.ones(frames.shape[:2])
                diag[:, 0] = data.gtt
                got = (nabla_t_form(data, stack) / diag[:, None, :]).swapaxes(1, 2)
                want = inverse_nabla_t_frames(data.cov_t_l, stack)
                assert np.abs(got - want).max() <= 1e-13 * max(1.0, float(np.abs(want).max()))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_skew_adjointness(self, seed):
        structure = generate(battery_recipe(seed))
        for point in sample_interior(structure.spec, 5, seed + 20):
            frame = orthonormal_completion(structure, point)
            data = structure_data(structure, np.asarray(point)[None, :])
            x = frame[1:]
            images = np.einsum("ki,ai->ka", data.cov_t_l[0], x)
            skew = np.einsum("ka,kl,bl->ab", images, data.gl[0], x)
            assert np.abs(skew + skew.T).max() < 1e-9


class TestConnectionRelations:
    def test_s3(self, s3):
        data, frames = completions(s3, sample_interior(s3.spec, 5, seed=8))
        assert connection_residual_batch(data, frames).max() < 1e-9

    def test_flat_torus_exact(self, flat_torus):
        data, frames = completions(flat_torus, [[1.0, 2.0, 3.0]])
        assert connection_residual_batch(data, frames).tolist() == [[0.0, 0.0, 0.0, 0.0]]

    @pytest.mark.parametrize("seed", [0, 1, 2, 4, 7])
    def test_randomized_structures(self, seed):
        structure = generate(battery_recipe(seed))
        data, frames = completions(structure, sample_interior(structure.spec, 5, seed + 30))
        assert connection_residual_batch(data, frames).max() < 1e-7

    @pytest.mark.parametrize("seed", [0, 3])
    def test_non_unit_structures(self, seed):
        # the identities hold without unit length; X_i(ln g(T,T)) terms active
        recipe = battery_recipe(seed)
        raw = generate(replace(recipe, normalize=False))
        data, frames = completions(raw, sample_interior(raw.spec, 5, seed + 40))
        assert connection_residual_batch(data, frames).max() < 1e-7


class TestCurvatureRelations:
    def test_flat_torus_exact(self, flat_torus):
        data, frames = completions(flat_torus, [[1.0, 2.0, 3.0]])
        assert curvature_residual_batch(data, frames).tolist() == [[0.0, 0.0, 0.0]]

    def test_s3_values_and_residuals(self, s3):
        data, frames = completions(s3, [[0.4, 1.0, 2.0]])
        assert curvature_residual_batch(data, frames).max() < 1e-9
        # spatial identity at f = -1: the correction moves -7 to -1, i.e. the
        # operator entries 7 and 1 of the worked example
        rml, rmg = (frame_components_batch(rm, frames)[0] for rm in riemann_tensors(data))
        assert -rml[1, 2, 1, 2] == pytest.approx(7.0, abs=1e-9)
        assert -rmg[1, 2, 1, 2] == pytest.approx(1.0, abs=1e-9)
        assert rmg[1, 2, 1, 2] - rml[1, 2, 1, 2] == pytest.approx(6.0, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2, 5, 8])
    def test_randomized_structures(self, seed):
        structure = generate(battery_recipe(seed))
        data, frames = completions(structure, sample_interior(structure.spec, 5, seed + 60))
        assert curvature_residual_batch(data, frames).max() < 1e-6

    def test_non_unit_structure(self):
        recipe = battery_recipe(1)
        raw = generate(replace(recipe, normalize=False))
        data, frames = completions(raw, sample_interior(raw.spec, 4, seed=70))
        assert curvature_residual_batch(data, frames).max() < 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_timelike_class_needs_no_derivative_of_gtt(self, seed):
        # reference: -Rm_L(T,X,T,Y) - 2 g_L(nab_X T, nab_Y T) + X(gtt) Y(gtt) / (2 gtt),
        # whose last term the T-part of g_L(nab_X T, nab_Y T) cancels
        raw = generate(replace(battery_recipe(seed), normalize=False))
        assert raw.dimension == 3 + seed
        pts = sample_interior(raw.spec, 20, seed + 80)
        data = structure_data(raw, pts)
        frames = orthonormal_completions(data, DEFAULT)
        rml = frame_components_batch(riemann_tensors(data)[0], frames)
        x = frames[:, 1:]
        u = np.einsum("bki,bai->bka", data.cov_t_l, x)  # column a: nab^L_{X_a} T
        ip = np.einsum("bka,bkl,blc->bac", u, data.gl, u)
        sgrad = np.einsum("bai,bi->ba", x, data.dgtt)
        drop = sgrad[:, :, None] * sgrad[:, None, :] / (2.0 * data.gtt[:, None, None])
        reference = -rml[:, 0, 1:, 0, 1:] - 2.0 * ip + drop
        omega = np.zeros(frames.shape)
        omega[:, 1:, 1:] = np.einsum("bka,bkl,bcl->bac", u, data.gl, x)
        basis = Lambda2Basis.standard(raw.dimension)
        p_l = pair_components(data.rm_l, frames, basis)
        t_pairs = [a for a, pair in enumerate(basis.pairs) if pair[0] == 0]  # (T, X_1), (T, X_2), ...
        got = flipped_curvature(p_l, omega, data.gtt, basis)[:, t_pairs][:, :, t_pairs]
        assert np.abs(drop).max() > 0.1  # the cancelled term is not negligible
        assert np.abs(got - reference).max() < 1e-13 * max(1.0, np.abs(reference).max())


@pytest.mark.parametrize(
    "build",
    [
        # non-unit coordinate fields: d g_L(T,T) comes from dg_L alone
        lambda: generate(replace(battery_recipe(0), normalize=False)),
        lambda: generate(replace(battery_recipe(3), normalize=False)),
        # a rotation of flat space: d g_L(T,T) comes from dT alone
        lambda: torus_with_field("1", "-0.05*y", "0.05*x"),
    ],
    ids=["battery0", "battery3", "rotating"],
)
def test_verify_only_fields_on_first_read(build):
    raw = build()
    pts = sample_interior(raw.spec, 12, 90, buffer=1e-3)
    data = structure_data(raw, pts)
    assert "dgtt" not in vars(data) and "cov_t_g" not in vars(data)
    # the formulas, as batched matmuls, and their einsum oracles
    b, n = pts.shape
    t, dt = data.t[:, :, None], data.dt
    dgl_t = (data.dgl.reshape(b, n * n, n) @ t).reshape(b, n, n)
    dgtt = (dgl_t @ t)[:, :, 0] + 2.0 * (dt @ (data.gl @ t))[:, :, 0]
    gamma_t = (data.gamma_g.reshape(b, n * n, n) @ t).reshape(b, n, n)
    cov_t_g = dt.transpose(0, 2, 1) + gamma_t
    assert np.array_equal(data.dgtt, dgtt)
    assert np.array_equal(data.cov_t_g, cov_t_g)
    fields = (data.gl, data.dgl, data.t, dt)
    want, terms = (dgtt_einsum(*a) for a in einsum_args(*fields))
    assert_within_rounding(dgtt, want, terms, n)
    want, terms = (cov_t_einsum(*a) for a in einsum_args(data.gamma_g, data.t, dt))
    assert_within_rounding(cov_t_g, want, terms, n)
    # and central differences of g_L(T,T) as an oracle for dt and dgtt
    h = 1e-5
    fd = np.stack(
        [
            (structure_data(raw, pts + h * e).gtt - structure_data(raw, pts - h * e).gtt) / (2 * h)
            for e in np.eye(raw.dimension)
        ],
        axis=1,
    )
    assert np.abs(dgtt).max() > 1e-2
    assert np.abs(fd - dgtt).max() < 1e-6 * max(1.0, np.abs(dgtt).max())
