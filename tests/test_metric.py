"""Metric spec files, coordinate evaluation, Christoffels, Riemann tensor."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from statcurv.errors import ChartDomainError, NearSingularError, SignatureError, SpecFormatError
from statcurv.generators import battery_recipe, generate
from statcurv.metric import (
    christoffel,
    christoffel_batch,
    frame_components,
    load_spec,
    load_spec_file,
    metric_at,
    metric_batch,
    riemann_batch,
    riemann_coordinate,
    riemann_residuals,
)
from statcurv.oracles import constant_curvature_oracle, fd_christoffel_oracle, fd_metric_derivative
from statcurv.stationary import StationaryStructure, structure_data

from conftest import SPEC_DIR, sample_interior


class TestLoadSpec:
    def test_shipped_s3(self):
        spec = load_spec_file(SPEC_DIR / "s3.spec")
        assert spec.dimension == 3
        assert spec.signature == "lorentzian"
        assert spec.coords == ("t", "theta1", "theta2")
        assert spec.killing is not None and spec.killing.unit
        assert spec.margin == 1e-3

    def test_shipped_flat_torus(self):
        spec = load_spec_file(SPEC_DIR / "flat_torus.spec")
        assert spec.dimension == 3
        assert spec.signature == "lorentzian"

    def test_asymmetric_entries_rejected(self):
        text = (
            "[chart]\ncoords = t, x\nt = 0, 1\nx = 0, 1\n"
            '[metric]\ng_0_1 = "t"\ng_1_0 = "x"\n[signature]\nkind = lorentzian\n'
        )
        with pytest.raises(SpecFormatError, match="symmetric partner"):
            load_spec(text)

    def test_matching_mirror_entries_accepted(self):
        text = (
            "[chart]\ncoords = t, x\nt = 0, 1\nx = 0, 1\n"
            '[metric]\ng_0_0 = "-1"\ng_0_1 = "t"\ng_1_0 = "t"\ng_1_1 = "2"\n'
            "[signature]\nkind = lorentzian\n"
        )
        spec = load_spec(text)
        assert {(i, j) for i, j, _ in spec.entries} == {(0, 0), (0, 1), (1, 1)}

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ("kind = euclidean", "invalid signature tag"),
            ("kind = lorentzian\nextra = 1", "exactly"),
        ],
    )
    def test_bad_signature_section(self, mutation, message):
        text = (
            "[chart]\ncoords = t, x\nt = 0, 1\nx = 0, 1\n"
            '[metric]\ng_0_0 = "-1"\ng_1_1 = "1"\n[signature]\n' + mutation + "\n"
        )
        with pytest.raises(SpecFormatError, match=message):
            load_spec(text)

    def test_dimension_mismatch(self):
        text = (
            "[chart]\ncoords = t, x\nt = 0, 1\nx = 0, 1\n"
            '[metric]\ng_0_2 = "1"\n[signature]\nkind = lorentzian\n'
        )
        with pytest.raises(SpecFormatError, match="out of range"):
            load_spec(text)

    def test_killing_requires_all_components(self):
        text = (
            "[chart]\ncoords = t, x\nt = 0, 1\nx = 0, 1\n"
            '[metric]\ng_0_0 = "-1"\ng_1_1 = "1"\n[signature]\nkind = lorentzian\n'
            '[killing]\nT_0 = "1"\nunit = true\n'
        )
        with pytest.raises(SpecFormatError, match="T_0..T_1"):
            load_spec(text)

    def test_unquoted_expression_rejected(self):
        text = (
            "[chart]\ncoords = t, x\nt = 0, 1\nx = 0, 1\n"
            "[metric]\ng_0_0 = -1\n[signature]\nkind = lorentzian\n"
        )
        with pytest.raises(SpecFormatError, match="double-quoted"):
            load_spec(text)

    def test_missing_section(self):
        with pytest.raises(SpecFormatError, match=r"missing section \[metric\]"):
            load_spec("[chart]\ncoords = t, x\nt = 0, 1\nx = 0, 1\n[signature]\nkind = lorentzian\n")

    def test_text_roundtrip(self):
        spec = load_spec_file(SPEC_DIR / "s3.spec")
        again = load_spec(spec.to_text())
        assert again == spec
        assert again.to_text() == spec.to_text()


class TestMetricAt:
    def test_s3_at_quarter_pi(self, s3):
        # direct substitution into the displayed components at t = pi/4
        m = metric_at(s3.spec, [math.pi / 4, 1.0, 2.0])
        expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -0.5], [0.0, -0.5, 0.0]])
        assert np.abs(m.g - expected).max() < 1e-15
        assert np.abs(m.g @ m.g_inv - np.eye(3)).max() < 1e-10

    def test_flat_torus_constant(self, flat_torus):
        m = metric_at(flat_torus.spec, [1.0, 2.0, 3.0])
        assert np.array_equal(m.g, np.diag([-1.0, 1.0, 1.0]))
        assert np.abs(m.dg).max() == 0.0
        assert np.abs(m.d2g).max() == 0.0

    def test_chart_boundary_rejected(self, s3):
        with pytest.raises(ChartDomainError):
            metric_at(s3.spec, [0.0, 1.0, 1.0])
        with pytest.raises(ChartDomainError):
            metric_at(s3.spec, [math.pi / 2, 1.0, 1.0])

    def test_signature_enforced(self):
        # flat torus metric declared riemannian must be refused
        text = (
            "[chart]\ncoords = t, x\nt = 0, 6\nx = 0, 6\n"
            '[metric]\ng_0_0 = "-1"\ng_1_1 = "1"\n[signature]\nkind = riemannian\n'
        )
        spec = load_spec(text)
        with pytest.raises(SignatureError):
            metric_at(spec, [1.0, 1.0])

    def test_near_singular_rejected(self):
        text = (
            "[chart]\ncoords = t, x\nt = 0, 6\nx = 0, 6\n"
            '[metric]\ng_0_0 = "-1"\ng_1_1 = "1e-13"\n[signature]\nkind = lorentzian\n'
        )
        spec = load_spec(text)
        with pytest.raises(NearSingularError):
            metric_at(spec, [1.0, 1.0])

    def test_symmetry_of_derivatives(self, s3):
        pts = sample_interior(s3.spec, 5, seed=2)
        _, _, dg, d2g, _ = metric_batch(s3.spec, pts)
        assert np.array_equal(dg, dg.swapaxes(2, 3))
        assert np.array_equal(d2g, d2g.swapaxes(1, 2))
        assert np.array_equal(d2g, d2g.swapaxes(3, 4))


class TestChristoffel:
    def test_flat_torus_zero(self, flat_torus):
        gamma = christoffel(metric_at(flat_torus.spec, [1.0, 2.0, 3.0]))
        assert np.abs(gamma).max() == 0.0

    def test_round_sphere_value(self, s3):
        # counterpart of the shipped spec is dt^2 + sin^2 dth1^2 + cos^2 dth2^2;
        # hand differentiation gives Gamma^t_{th1 th1} = -sin t cos t
        t = 0.8
        counterpart = StationaryStructure.from_spec(s3.spec).counterpart_spec
        gamma = christoffel(metric_at(counterpart, [t, 1.0, 2.0]))
        assert gamma[0, 1, 1] == pytest.approx(-math.sin(t) * math.cos(t), abs=1e-12)
        assert gamma[0, 2, 2] == pytest.approx(math.sin(t) * math.cos(t), abs=1e-12)
        # symmetric in the lower indices
        assert np.abs(gamma - gamma.swapaxes(1, 2)).max() == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_fd_oracle_agreement(self, seed):
        structure = generate(battery_recipe(seed))
        pts = sample_interior(structure.spec, 8, seed)
        for spec in (structure.spec, structure.counterpart_spec):
            _, g_inv, dg, _, _ = metric_batch(spec, pts)
            gamma = christoffel_batch(g_inv, dg)
            for b in (0, 3, 7):
                fd = fd_christoffel_oracle(spec, pts[b])
                scale = np.maximum(np.abs(gamma[b]), 1.0)
                assert (np.abs(fd - gamma[b]) / scale).max() < 1e-6

    def test_fd_oracle_flat(self, flat_torus):
        fd = fd_christoffel_oracle(flat_torus.spec, [1.0, 2.0, 3.0])
        assert np.abs(fd).max() < 1e-8

    def test_fd_second_order_convergence(self, s3):
        # halving the step should shrink the central-difference error ~4x
        counterpart = StationaryStructure.from_spec(s3.spec).counterpart_spec
        point = [0.9, 1.0, 2.0]
        exact = christoffel(metric_at(counterpart, point))
        errors = []
        for step in (2e-3, 1e-3):
            fd = fd_christoffel_oracle(counterpart, point, step=step)
            errors.append(np.abs(fd - exact).max())
        ratio = errors[0] / errors[1]
        assert 2.5 < ratio < 6.0


class TestRiemann:
    def test_flat_torus_zero(self, flat_torus):
        rm = riemann_coordinate(flat_torus.spec, [1.0, 2.0, 3.0])
        assert np.abs(rm.comps).max() == 0.0

    def test_round_s3_constant_curvature(self, s3):
        # the Riemannian counterpart has constant sectional curvature one;
        # compare frame components against the closed-form reference tensor
        from statcurv.frames import orthonormal_completion

        point = [0.6, 1.0, 2.0]
        frame = orthonormal_completion(s3, point)
        counterpart = StationaryStructure.from_spec(s3.spec).counterpart_spec
        rm = riemann_coordinate(counterpart, point)
        rm_frame = frame_components(rm, frame.vectors)
        oracle = constant_curvature_oracle(3, 1.0, frame)
        assert np.abs(rm_frame.comps - oracle.comps).max() < 1e-8
        # in particular Rm(X1, X2, X1, X2) = -1 under this sign convention
        assert rm_frame.comps[1, 2, 1, 2] == pytest.approx(-1.0, abs=1e-10)

    def test_constant_curvature_oracle_zero(self):
        assert np.abs(constant_curvature_oracle(4, 0.0).comps).max() == 0.0

    def test_constant_curvature_oracle_closed_form(self):
        comps = constant_curvature_oracle(3, 1.0).comps
        assert comps[1, 2, 1, 2] == -1.0
        assert comps[1, 2, 2, 1] == 1.0
        assert comps[0, 1, 0, 1] == -1.0
        assert comps[0, 1, 2, 0] == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_invariants_on_random_structures(self, seed):
        structure = generate(battery_recipe(seed))
        pts = sample_interior(structure.spec, 10, seed + 50)
        for spec in (structure.spec, structure.counterpart_spec):
            g, g_inv, dg, d2g, _ = metric_batch(spec, pts)
            rm = riemann_batch(g, g_inv, dg, d2g)
            res = riemann_residuals(rm)
            assert res["antisymmetry_first_pair"] < 1e-9
            assert res["antisymmetry_second_pair"] < 1e-9
            assert res["pair_symmetry"] < 1e-9
            assert res["first_bianchi"] < 1e-8

    def test_s3_invariants_near_margin(self, s3):
        # cot/tan factors degenerate toward the chart ends; the margin keeps
        # the identities intact even at the extreme interior points
        pts = np.array([[1e-3, 0.1, 0.1], [math.pi / 2 - 1e-3, 6.0, 6.0]])
        data = structure_data(s3, pts)
        for rm in (data.rm_l, data.rm_g):
            res = riemann_residuals(rm)
            assert max(res.values()) < 1e-8


class TestFrameComponents:
    def test_identity_frame_is_noop(self, s3):
        rm = riemann_coordinate(s3.spec, [0.7, 1.0, 2.0])
        pushed = frame_components(rm, np.eye(3))
        assert np.array_equal(pushed.comps, rm.comps)
        assert pushed.frame == "orthonormal"

    def test_multilinear_scaling(self, s3):
        rm = riemann_coordinate(s3.spec, [0.7, 1.0, 2.0])
        frame = np.eye(3)
        scaled = frame.copy()
        scaled[1] *= 2.0
        pushed = frame_components(rm, scaled)
        assert pushed.comps[1, 2, 1, 2] == pytest.approx(4.0 * rm.comps[1, 2, 1, 2])
        assert pushed.comps[1, 2, 0, 2] == pytest.approx(2.0 * rm.comps[1, 2, 0, 2])

    def test_s3_frame_reproduces_paper_pattern(self, s3):
        # frame {T, d_t, cot t d_th1 - tan t d_th2}: the mixed diagonal
        # values are -1 and the spatial one is -7 (the displayed 7 - 6
        # pattern lives in the operator, which negates these)
        from statcurv.frames import orthonormal_completion

        point = [0.5, 1.0, 2.0]
        frame = orthonormal_completion(s3, point)
        rm = riemann_coordinate(s3.spec, point)
        comps = frame_components(rm, frame.vectors).comps
        assert comps[0, 1, 0, 1] == pytest.approx(-1.0, abs=1e-10)
        assert comps[0, 2, 0, 2] == pytest.approx(-1.0, abs=1e-10)
        assert comps[1, 2, 1, 2] == pytest.approx(-7.0, abs=1e-9)
        assert abs(comps[0, 1, 0, 2]) < 1e-10

    def test_rank_deficient_frame_rejected(self, s3):
        rm = riemann_coordinate(s3.spec, [0.7, 1.0, 2.0])
        bad = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        with pytest.raises(NearSingularError):
            frame_components(rm, bad)


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(["riemannian", "lorentzian"]),
)
def test_signature_check_never_passes_wrong_pattern(seed, tag):
    # random symmetric matrices with a known eigenvalue sign pattern: the
    # check accepts exactly the matching tag
    from statcurv.metric import check_signature
    from statcurv.tolerances import DEFAULT

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    basis = np.linalg.qr(rng.normal(size=(n, n)))[0]
    negatives = int(rng.integers(0, n + 1))
    signs = np.array([-1.0] * negatives + [1.0] * (n - negatives))
    vals = signs * (0.5 + rng.random(n))
    g = (basis * vals) @ basis.T
    g = 0.5 * (g + g.T)
    spec = load_spec_file(SPEC_DIR / "s3.spec")
    tagged = spec.__class__(
        spec.coords, spec.intervals, spec.margin, tag, spec.entries, spec.killing
    )
    expected_ok = negatives == (1 if tag == "lorentzian" else 0)
    if expected_ok:
        check_signature(tagged, g[None], DEFAULT)
    else:
        with pytest.raises(SignatureError):
            check_signature(tagged, g[None], DEFAULT)


@given(st.integers(min_value=0, max_value=30), st.floats(min_value=0.1, max_value=2.9))
def test_metric_fields_match_fd_everywhere(seed, t):
    structure = generate(battery_recipe(seed % 6))
    point = np.array([t] + [1.0] * (structure.dimension - 1))
    _, _, dg, _, _ = metric_batch(structure.spec, point[None, :])
    fd = fd_metric_derivative(structure.spec, point[None, :])
    assert np.abs(fd - dg).max() < 1e-6
