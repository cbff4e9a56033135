"""k-positivity and the Betti verdict logic."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from statcurv import topology
from statcurv.curvature_ops import CurvatureOperatorMatrix, operators_at
from statcurv.errors import GridPointError
from statcurv.generators import GeneratorRecipe, battery_recipe, generate
from statcurv.linalg import eigvalsh
from statcurv.metric import load_spec
from statcurv.stationary import StationaryStructure
from statcurv.tolerances import DEFAULT
from statcurv.topology import (
    REASON_MIDDLE,
    REASON_PARITY,
    GridScanResult,
    admissible_p,
    betti_conclusions,
    build_grid,
    grid_scan,
    grid_scans,
    k_positivity,
    margin_quantiles,
    verdict_json_dict,
)

from conftest import sample_interior
from oracles import ROUTE_ULPS, assert_spectra_agree, quantiles_by_numpy
from structures import s3_times_torus


class TestKPositivity:
    def test_identity_two_positive(self):
        total, positive = k_positivity(np.eye(3), 2)
        assert total == pytest.approx(2.0)
        assert positive

    def test_zero_matrix_never_positive(self):
        for k in (1, 2, 3):
            total, positive = k_positivity(np.zeros((3, 3)), k)
            assert total == 0.0
            assert not positive

    def test_mixed_spectrum(self):
        m = np.diag([-1.0, 0.6, 0.6])
        assert k_positivity(m, 2) == (pytest.approx(-0.4), False)
        assert k_positivity(m, 1) == (pytest.approx(-1.0), False)
        assert k_positivity(m, 3) == (pytest.approx(0.2), True)

    def test_lorentzian_flavor_rejected(self):
        op = CurvatureOperatorMatrix(np.eye(3), "lorentzian")
        with pytest.raises(ValueError, match="lorentzian"):
            k_positivity(op, 1)

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            k_positivity(np.array([[0.0, 1.0], [-1.0, 0.0]]), 1)

    @pytest.mark.parametrize("c", [10.0**e for e in range(-12, 4)])
    def test_symmetry_check_is_scale_free(self, c):
        # c M is as far from symmetric as M at every scale c > 0
        with pytest.raises(ValueError, match="symmetric"):
            k_positivity(c * np.array([[1.0, 0.9], [0.0, 1.0]]), 1)
        assert k_positivity(c * np.eye(2), 2)[0] == pytest.approx(2.0 * c, rel=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            k_positivity(np.eye(3), 0)
        with pytest.raises(ValueError):
            k_positivity(np.eye(3), 4)

    def test_full_sum_is_trace(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(6, 6))
        m = m + m.T
        total, _ = k_positivity(m, 6)
        assert abs(total - np.trace(m)) < 1e-9

    @given(st.permutations(list(range(5))), st.integers(min_value=1, max_value=5))
    def test_permutation_invariance(self, perm, k):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(5, 5))
        m = m + m.T
        p = np.eye(5)[perm]
        conjugated = p @ m @ p.T
        assert k_positivity(m, k)[0] == pytest.approx(k_positivity(conjugated, k)[0], abs=1e-10)

    def test_report_partial_sums(self):
        m = np.diag([3.0, -1.0, 0.5])
        assert [k_positivity(m, k) for k in (1, 2, 3)] == [(-1.0, False), (-0.5, False), (2.5, True)]


EXPECTED_TABLE = {
    (3, 1): ("vanishing", (1, 2), None),
    (4, 1): ("contradiction", REASON_PARITY, None),
    (4, 2): ("contradiction", REASON_MIDDLE, None),
    (5, 1): ("vanishing", (1, 4), None),
    (5, 2): ("vanishing", (1, 2, 3, 4), None),
    (6, 1): ("vanishing", (1, 5), None),
    (6, 2): ("vanishing", (1, 2, 4, 5), 2),
    (6, 3): ("contradiction", REASON_MIDDLE, None),
    (7, 1): ("vanishing", (1, 6), None),
    (7, 2): ("vanishing", (1, 2, 5, 6), None),
    (7, 3): ("vanishing", (1, 2, 3, 4, 5, 6), None),
    (8, 1): ("vanishing", (1, 7), None),
    (8, 2): ("vanishing", (1, 2, 6, 7), None),
    (8, 3): ("contradiction", REASON_PARITY, None),
    (8, 4): ("contradiction", REASON_MIDDLE, None),
}


class TestBettiConclusions:
    def test_exhaustive_table(self):
        seen = set()
        for n in range(3, 9):
            for p in admissible_p(n):
                seen.add((n, p))
                verdict = betti_conclusions(n, p, True)
                kind, payload, middle = EXPECTED_TABLE[(n, p)]
                if kind == "vanishing":
                    assert not verdict.contradiction, (n, p)
                    assert verdict.vanishing == payload, (n, p)
                    assert verdict.middle_betti == middle, (n, p)
                else:
                    assert verdict.contradiction, (n, p)
                    assert verdict.reason == payload, (n, p)
        assert seen == set(EXPECTED_TABLE)

    def test_not_holds_is_empty(self):
        verdict = betti_conclusions(5, 2, False)
        assert not verdict.holds_everywhere
        assert verdict.vanishing == ()
        assert not verdict.contradiction
        assert "sufficient" in verdict.reason

    @pytest.mark.parametrize("n, p", [(3, 0), (3, 2), (6, 4), (2, 1), (8, 5)])
    def test_p_out_of_range(self, n, p):
        with pytest.raises(ValueError):
            betti_conclusions(n, p, True)

    def test_poincare_symmetry(self):
        for n in range(3, 9):
            for p in admissible_p(n):
                verdict = betti_conclusions(n, p, True)
                assert set(verdict.vanishing) == {n - i for i in verdict.vanishing}
                assert all(1 <= i <= n - 1 for i in verdict.vanishing)

    def test_monotone_vanishing_sets(self):
        # conclusions from smaller p are contained in those from larger p
        for n in range(3, 9):
            ps = [p for p in admissible_p(n) if not betti_conclusions(n, p, True).contradiction]
            for smaller, larger in zip(ps, ps[1:]):
                a = set(betti_conclusions(n, smaller, True).vanishing)
                b = set(betti_conclusions(n, larger, True).vanishing)
                assert a <= b


class TestGridScan:
    def test_s3_two_positive(self, s3):
        result = grid_scan(s3, [6, 4, 4], 1)
        assert result.verdict.holds_everywhere
        assert result.min_margin == pytest.approx(2.0, abs=1e-9)
        assert result.verdict.vanishing == (1, 2)
        assert result.max_identity_residual < 1e-7
        assert result.points.shape == (6 * 4 * 4, 3)
        assert result.eigenvalues.shape == (6 * 4 * 4, 3)

    def test_flat_torus_no_conclusion(self, flat_torus):
        result = grid_scan(flat_torus, [3, 3, 3], 1)
        assert not result.verdict.holds_everywhere
        assert result.min_margin == 0.0
        assert result.verdict.vanishing == ()
        assert operators_at(flat_torus, result.points)[0].frame.pairing == ()

    def test_flat_torus_quantiles_have_no_negative_zero(self, flat_torus):
        # every spectrum is zero, some of its zeros signed
        result = grid_scan(flat_torus, [3, 3, 3], 1)
        quantiles = np.array(list(margin_quantiles(result).values()))
        assert not np.signbit(quantiles).any()

    def test_s3_times_torus_flat_directions_block_positivity(self):
        # spectrum per point is (0 x7, 1, 1, 1); the smallest four sum to zero
        structure = s3_times_torus()
        result = grid_scan(structure, [3, 2, 2, 2, 2], 1)
        assert not result.verdict.holds_everywhere
        assert result.min_margin == pytest.approx(0.0, abs=1e-9)
        assert np.abs(result.eigenvalues[0] - np.array([0.0] * 7 + [1.0] * 3)).max() < 1e-9

    def test_grid_scans_match_grid_scan_per_p(self):
        structure = s3_times_torus()
        grid = [3, 2, 2, 2, 2]
        both = grid_scans(structure, grid, [1, 2])
        assert [r.verdict.p for r in both] == [1, 2]
        assert both[0].eigenvalues is both[1].eigenvalues  # one scan serves every p
        for result in both:
            alone = grid_scan(structure, grid, result.verdict.p)
            assert verdict_json_dict(result) == verdict_json_dict(alone)

    def test_refinement_stability(self, s3, flat_torus):
        for structure in (s3, flat_torus):
            coarse = grid_scan(structure, 6, 1)
            fine = grid_scan(structure, 12, 1)
            assert coarse.verdict == fine.verdict

    def test_deterministic(self, s3):
        a = grid_scan(s3, [4, 3, 3], 1)
        b = grid_scan(s3, [4, 3, 3], 1)
        assert a.verdict == b.verdict
        assert a.min_margin == b.min_margin
        assert a.argmin_point == b.argmin_point
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_argmin_point_ignores_rounding_ties(self, s3, monkeypatch, seed):
        # all 64 S3 margins at grid 4 equal 2 to within 1e-10, so rounding
        # alone decides their exact argmin; perturbing every point's spectrum
        # by up to 1e-14 must leave the reported point on the first grid point
        exact = grid_scan(s3, 4, 1)
        real = topology.scan_points
        noise = np.random.default_rng(seed).uniform(-1e-14, 1e-14, size=64)

        def perturbed(*args):
            vals, central = real(*args)
            return vals + noise[:, None], central

        monkeypatch.setattr(topology, "scan_points", perturbed)
        jittered = grid_scan(s3, 4, 1)
        assert exact.argmin_point == jittered.argmin_point == tuple(exact.points[0])
        assert abs(jittered.min_margin - exact.min_margin) < 1e-13

    def test_argmin_point_of_a_clear_minimum(self):
        margins = np.array([3.0, 1.0 + 1e-6, 1.0, 1.0 + 1e-9, 2.0])
        assert topology.near_argmin(margins, 3e-8) == 2
        assert topology.near_argmin(np.zeros(4), 0.0) == 0
        # the window decides: a larger one reaches back to an earlier row
        assert topology.near_argmin(margins, 2e-6) == 1

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e6])
    def test_argmin_window_is_relative_to_the_largest_margin(self, s3, monkeypatch, scale):
        # margins (3, 1 + 2e-8, 1) * scale: the window identity * 3 * scale holds
        # row 1 at every scale, so row 1 is reported, not the exact argmin 2;
        # an absolute window of identity = 1e-8 would reach row 0 at scale 1e-9
        # and miss row 1 at scales 1 and 1e6
        margins = scale * np.array([3.0, 1.0 + 2e-8, 1.0])

        def scaled(s, pts, tol):
            assert len(pts) == 3
            return np.column_stack([margins / 2, margins / 2, 4.0 * margins]), np.zeros(3)

        monkeypatch.setattr(topology, "scan_points", scaled)
        result = grid_scan(s3, [3, 1, 1], 1)
        assert result.min_margin == margins[2]
        assert result.argmin_point == tuple(result.points[1])

    def test_point_failure_carries_coordinates(self):
        # the metric degenerates for x <= 0; the scan must name the point
        text = (
            "[chart]\ncoords = t, x, y\nt = 0, 6.28\nx = -0.5, 2\ny = 0, 6.28\n"
            '[metric]\ng_0_0 = "-1"\ng_1_1 = "1"\ng_2_2 = "x"\n'
            "[signature]\nkind = lorentzian\n"
            '[killing]\nT_0 = "1"\nT_1 = "0"\nT_2 = "0"\nunit = true\n'
        )
        structure = StationaryStructure.from_spec(load_spec(text))
        with pytest.raises(GridPointError) as err:
            grid_scan(structure, [2, 5, 2], 1)
        assert len(err.value.point) == 3
        assert err.value.point[1] < 0.0
        assert str(err.value).startswith("failure at grid point [0.001, -0.499, 0.001]: ")

    def test_empty_grid_rejected(self, s3):
        with pytest.raises(ValueError, match="empty"):
            grid_scan(s3, [0, 4, 4], 1)

    def test_json_schema_fields(self, s3):
        result = grid_scan(s3, [3, 3, 3], 1)
        payload = verdict_json_dict(result)
        assert payload["schema_version"] == 1
        assert payload["dimension"] == 3
        assert payload["p"] == 1
        assert payload["N"] == 3
        assert payload["grid"] == [3, 3, 3]
        assert payload["vanishing_betti"] == [1, 2]
        assert payload["middle_betti"] is None
        assert payload["contradiction"] is False
        assert isinstance(payload["min_margin"], float)
        assert len(payload["argmin_point"]) == 3


def test_build_grid_shape(s3):
    pts, shape = build_grid(s3.spec, [4, 3, 2])
    assert shape == (4, 3, 2)
    assert pts.shape == (24, 3)
    assert pts[0, 0] == pytest.approx(s3.spec.intervals[0][0] + s3.spec.margin)
    assert pts[-1, 0] == pytest.approx(s3.spec.intervals[0][1] - s3.spec.margin)
    # the rows np.meshgrid lays out in "ij" order, bit for bit
    mesh = np.meshgrid(*s3.spec.interior_linspace([4, 3, 2]), indexing="ij")
    assert pts.tobytes() == np.stack([m.reshape(-1) for m in mesh], axis=1).tobytes()


def _reference_margin_quantiles(result: GridScanResult) -> dict[str, list[float]]:
    """One scalar np.quantile call per quantity and q, as margin_quantiles once made them."""
    k = result.verdict.dimension - result.verdict.p
    margins = np.cumsum(result.eigenvalues, axis=1)[:, k - 1]
    smallest = result.eigenvalues[:, 0]
    largest = result.eigenvalues[:, -1]
    qs = (0.0, 0.25, 0.5, 0.75, 1.0)
    return {
        "margin": [float(np.quantile(margins, q)) for q in qs],
        "smallest_eigenvalue": [float(np.quantile(smallest, q)) for q in qs],
        "largest_eigenvalue": [float(np.quantile(largest, q)) for q in qs],
    }


@settings(max_examples=200)
@given(
    n=st.integers(3, 8),
    p_index=st.integers(0, 3),
    batch=st.integers(1, 2048),
    levels=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_margin_quantiles_match_per_q_loop(n, p_index, batch, levels, seed):
    # spectra drawn from a few values at one of many scales, so ties occur
    # within a spectrum, between points and between the three quantities
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=levels) * 10.0 ** rng.integers(-6, 7)
    pool[rng.random(levels) < 0.2] = 0.0
    vals = np.sort(rng.choice(pool, size=(batch, n * (n - 1) // 2)), axis=1)
    p = list(admissible_p(n))[p_index % (n // 2)]
    verdict = betti_conclusions(n, p, False)
    result = GridScanResult(verdict, (batch,), 0.0, (0.0,) * n, 0.0, np.zeros((batch, n)), vals)
    assert margin_quantiles(result) == _reference_margin_quantiles(result)


@settings(max_examples=100)
@given(
    count=st.integers(1, 3),
    length=st.integers(1, 2000),
    levels=st.integers(1, 8),
    tie_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(count=3, length=1, levels=1, tie_share=0.0, seed=0)
@example(count=1, length=2, levels=1, tie_share=1.0, seed=1)
def test_linear_quantiles_match_np_quantile_bitwise(count, length, levels, tie_share, seed):
    # magnitudes from 1e-300 to 1e300 with either sign, a share of each row
    # drawn from a few values (ties), and exact zeros of both signs among them
    rng = np.random.default_rng(seed)
    rows = rng.choice((-1.0, 1.0), size=(count, length)) * 10.0 ** rng.uniform(-300, 300, (count, length))
    pool = rng.choice((-1.0, 1.0), size=levels) * 10.0 ** rng.uniform(-300, 300, levels)
    pool[: levels // 2] = rng.choice((0.0, -0.0), size=levels // 2)
    tied = rng.random((count, length)) < tie_share
    rows[tied] = rng.choice(pool, size=int(tied.sum()))
    got = topology._linear_quantiles(rows) + 0.0
    assert got.tobytes() == quantiles_by_numpy(rows).tobytes()


@given(
    batch=st.integers(0, 1200),
    width=st.integers(1, 28),
    seed=st.integers(0, 2**32 - 1),
)
def test_margins_are_cumsum_columns_bitwise(batch, width, seed):
    rng = np.random.default_rng(seed)
    vals = np.sort(rng.normal(size=(batch, width)) * 10.0 ** rng.integers(-8, 9, (batch, 1)), axis=1)
    sums = vals.cumsum(axis=1)
    for k in range(1, width + 1):
        assert topology._margins(vals, k).tobytes() == sums[:, k - 1].tobytes()


# the golden specs, the tier-1 battery and the seed-3 random specs at the top
# of the range: (structure, sample seed) pairs, or a fixture's name
_ROUTE_CASES = {
    "s3": "s3",
    "torus": "flat_torus",
    "r4": lambda: [(generate(GeneratorRecipe(5, 4)), 7)],
    "r5": lambda: [(generate(GeneratorRecipe(0, 5)), 7)],
    "battery0": lambda: [(generate(battery_recipe(seed)), seed) for seed in range(100)],
    "n6": lambda: [(generate(GeneratorRecipe(3, 6)), 3)],
    "n8": lambda: [(generate(GeneratorRecipe(3, 8)), 3)],
}


@pytest.mark.parametrize("case", sorted(_ROUTE_CASES))
def test_scan_points_spectra_match_the_adapted_frames(case, request):
    # scan_points and verify_points read the symmetrized matrices in the
    # Gram-Schmidt completions, operators_at in the adapted frames: the same
    # operators conjugated by an orthogonal matrix, so equal spectra up to
    # rounding.  verify's eigen_nonpositive and central_identity rows agree
    # with the adapted route within ROUTE_ULPS eps of each point's largest
    # |squared-map eigenvalue| and largest |m_r| entry (1.7 and 27 eps over
    # these cases), and its rotation row stays within tol.pairing
    source = _ROUTE_CASES[case]
    pairs = [(request.getfixturevalue(source), 7)] if isinstance(source, str) else source()
    eps = np.finfo(float).eps
    for structure, seed in pairs:
        pts = sample_interior(structure.spec, 50, seed)
        vals, _ = topology.scan_points(structure, pts)
        ops = operators_at(structure, pts)
        assert_spectra_agree(vals, eigvalsh(ops.m_s))
        if case == "torus":  # parallel T: both routes give exact zeros
            assert not vals.any()
        assert structure.unit
        table = topology.verify_points(structure, pts, DEFAULT)
        row = {name.split()[-1]: table[:, i] for i, (name, _) in enumerate(topology.VERIFY_LINES)}
        eigs = ops.frames.nabla_sq_eigenvalues
        top = eigs[:, -1]
        adapted = {
            "eigen_nonpositive": (np.where(top > 0.0, top, 0.0), np.abs(eigs).max(axis=1)),
            "central_identity": (ops.central, np.abs(ops.m_r).max(axis=(1, 2))),
        }
        for name, (want, scale) in adapted.items():
            assert (np.abs(row[name] - want) <= ROUTE_ULPS * eps * scale).all(), name
        assert row["rotation_blocks"].max() <= DEFAULT.pairing
