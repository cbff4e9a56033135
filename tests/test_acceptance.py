"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; each test prints an ``ACCEPTANCE n: PASS`` line as it completes.
The randomized battery (100 seeded structures, 50 points each) comes from
the session fixture in conftest.
"""

import json

import numpy as np
import pytest

from statcurv import cli
from statcurv.curvature_ops import operators_at
from statcurv.stationary import structure_data
from statcurv.topology import (
    REASON_MIDDLE,
    REASON_PARITY,
    admissible_p,
    betti_conclusions,
    grid_scan,
)

from conftest import SPEC_DIR, sample_interior, summarize_structure
from oracles import riemann_residuals, riemann_tensors
from structures import two_pair_flat_rotations

S3_PATH = str(SPEC_DIR / "s3.spec")
TORUS_PATH = str(SPEC_DIR / "flat_torus.spec")


@pytest.fixture(scope="module")
def s3_grid(s3):
    """The 20^3 interior grid scan of the shipped 3-sphere example."""
    return grid_scan(s3, 20, 1)


@pytest.fixture(scope="module")
def s3_grid_ops(s3, s3_grid):
    """The operators at the points of ``s3_grid``."""
    return operators_at(s3, s3_grid.points)


@pytest.fixture(scope="module")
def s3_summary(s3):
    return summarize_structure(s3, seed=1729)


def test_criterion_1_s3_golden_values(s3_grid, s3_grid_ops, tmp_path, capsys):
    assert s3_grid.points.shape == (20**3, 3)
    riem_err = max(
        float(np.abs(op.riemannian.entries - np.eye(3)).max()) for op in s3_grid_ops
    )
    assert riem_err < 1e-6
    for op in s3_grid_ops:
        assert len(op.frame.pairing) == 1
        assert abs(op.frame.pairing[0].f - (-1.0)) < 1e-8
        eigs = np.array(op.frame.nabla_sq_eigenvalues)
        assert np.abs(eigs - np.array([-1.0, -1.0, 0.0])).max() < 1e-8
    out = tmp_path / "s3_analyze.json"
    code = cli.main(
        ["analyze", S3_PATH, "--p", "1", "--grid", "20", "--format", "json", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    verdict = json.loads(out.read_text())["strongest"]
    assert abs(verdict["min_margin"] - 2.0) < 1e-6
    assert verdict["holds_everywhere"] is True
    assert verdict["vanishing_betti"] == [1, 2]
    print(
        f"ACCEPTANCE 1: PASS — S3 golden values on the 20^3 grid "
        f"(max |op - I| = {riem_err:.2e}, margin error "
        f"{abs(verdict['min_margin'] - 2.0):.2e})"
    )


def test_criterion_2_central_identity(battery, s3_summary):
    worst = s3_summary.central_identity
    assert s3_summary.central_identity < 1e-7
    for entry in battery:
        assert entry.central_identity < 1e-7, f"seed {entry.seed}"
        worst = max(worst, entry.central_identity)
    # extra coverage: a structure with two rotation blocks, where the
    # off-diagonal f-corrections of the spatial block are nonzero
    two = summarize_structure(two_pair_flat_rotations(), seed=4242, count=50)
    assert two.pair_count == 2
    assert two.central_identity < 1e-7
    print(
        f"ACCEPTANCE 2: PASS — symmetrized == riemannian operator on S3 and "
        f"100 random structures x 50 points (worst residual {worst:.2e})"
    )


def test_criterion_3_connection_identities(battery, s3_summary):
    worst_conn, worst_fd = 0.0, 0.0
    for entry in [s3_summary, *battery]:
        assert max(entry.connection) < 1e-7, f"seed {entry.seed}"
        assert entry.fd_christoffel < 1e-6, f"seed {entry.seed}"
        worst_conn = max(worst_conn, max(entry.connection))
        worst_fd = max(worst_fd, entry.fd_christoffel)
    print(
        f"ACCEPTANCE 3: PASS — all four connection identities < 1e-7 "
        f"(worst {worst_conn:.2e}); jet vs finite-difference Christoffels "
        f"agree to {worst_fd:.2e}"
    )


def test_criterion_4_curvature_identities(battery, s3_summary, s3):
    worst = 0.0
    for entry in [s3_summary, *battery]:
        assert max(entry.curvature) < 1e-6, f"seed {entry.seed}"
        worst = max(worst, max(entry.curvature))
    # the worked example: the spatial identity moves the operator entry 7 of
    # g_L to the entry 1 of g (components Rm = -7 -> -1 at f = -1)
    from statcurv.frames import orthonormal_completion
    from statcurv.metric import frame_components_batch

    point = np.array([0.55, 1.0, 2.0])
    frame = orthonormal_completion(s3, point)
    data = structure_data(s3, point[None, :])
    rml, rmg = (frame_components_batch(rm, frame[None])[0] for rm in riemann_tensors(data))
    assert abs(-rml[1, 2, 1, 2] - 7.0) < 1e-9
    assert abs(-rmg[1, 2, 1, 2] - 1.0) < 1e-9
    print(
        f"ACCEPTANCE 4: PASS — all three curvature identity classes < 1e-6 "
        f"(worst {worst:.2e}); S3 spatial entries 7 vs 1 reproduced"
    )


def test_criterion_5_adapted_frame_structure(battery, s3_summary):
    for entry in [s3_summary, *battery]:
        assert entry.max_eigenvalue <= 1e-9, f"seed {entry.seed}"
        assert not entry.odd_cluster, f"seed {entry.seed}"
        assert entry.pair_count <= entry.max_pairs_allowed, f"seed {entry.seed}"
        assert entry.rotation_residual < 1e-7, f"seed {entry.seed}"
    print(
        "ACCEPTANCE 5: PASS — nonpositive spectra, even nonzero eigenspaces, "
        "pair count within floor((n-1)/2), rotation-block residuals < 1e-7"
    )


def test_criterion_6_tensor_sanity(battery, s3_summary, s3_grid_ops):
    for entry in [s3_summary, *battery]:
        res = entry.riemann_invariants
        assert res["antisymmetry_first_pair"] < 1e-8
        assert res["antisymmetry_second_pair"] < 1e-8
        assert res["pair_symmetry"] < 1e-8
        assert res["first_bianchi"] < 1e-8
        assert entry.ginv_residual < 1e-10
        assert entry.operator_symmetry < 1e-8
    assert max(op.riemannian.asymmetry() for op in s3_grid_ops) < 1e-8
    print(
        "ACCEPTANCE 6: PASS — Riemann symmetries and Bianchi < 1e-8, operator "
        "symmetry < 1e-8, g*g_inv residual < 1e-10 on every evaluation"
    )


def test_criterion_7_verdict_logic():
    assert betti_conclusions(3, 1, True).vanishing == (1, 2)
    for p in (1, 2):
        verdict = betti_conclusions(4, p, True)
        assert verdict.contradiction
    assert betti_conclusions(5, 2, True).vanishing == (1, 2, 3, 4)
    six = betti_conclusions(6, 2, True)
    assert six.vanishing == (1, 2, 4, 5) and six.middle_betti == 2
    assert betti_conclusions(6, 3, True).contradiction
    # exhaustive over n <= 8: vanishing sets are Poincare symmetric, the
    # middle-p case always contradicts, and the parity rule fires in
    # dimensions 4 and 8 only
    for n in range(3, 9):
        for p in admissible_p(n):
            verdict = betti_conclusions(n, p, True)
            if n % 2 == 0 and p == n // 2:
                assert verdict.contradiction and verdict.reason == REASON_MIDDLE
            elif n % 2 == 0 and (n // 2) % 2 == 0 and p == n // 2 - 1:
                assert verdict.contradiction and verdict.reason == REASON_PARITY
            else:
                assert not verdict.contradiction
                expected = set(range(1, p + 1)) | set(range(n - p, n))
                assert set(verdict.vanishing) == expected
                assert set(verdict.vanishing) == {n - i for i in verdict.vanishing}
                if n % 2 == 0 and p == n // 2 - 1:
                    assert verdict.middle_betti == 2
                else:
                    assert verdict.middle_betti is None
            assert betti_conclusions(n, p, False).vanishing == ()
    print("ACCEPTANCE 7: PASS — Betti verdict logic exhaustive over n <= 8")


def test_criterion_8_degenerate_paths(flat_torus):
    result = grid_scan(flat_torus, [4, 4, 4], 1)
    for op in operators_at(flat_torus, result.points):
        assert np.abs(op.symmetrized.entries).max() == 0.0
        assert op.frame.pairing == ()
        assert op.frame.fixed_indices == (1, 2)
    assert not result.verdict.holds_everywhere
    assert result.min_margin == 0.0
    assert result.verdict.vanishing == ()
    data = structure_data(flat_torus, sample_interior(flat_torus.spec, 5, 0))
    assert max(riemann_residuals(riemann_tensors(data)[0]).values()) == 0.0
    print(
        "ACCEPTANCE 8: PASS — flat torus: zero operator, not 2-positive, "
        "empty verdict, parallel-T fallback with zero pairs"
    )


def test_criterion_9_determinism(tmp_path, capsys):
    pairs = {}
    for tag in ("a", "b"):
        analyze = tmp_path / f"analyze_{tag}.json"
        export = tmp_path / f"export_{tag}.jsonl"
        spec = tmp_path / f"random_{tag}.spec"
        assert cli.main(["analyze", S3_PATH, "--p", "1", "--grid", "4", "--format", "json", "--out", str(analyze)]) == 0
        assert cli.main(["export", TORUS_PATH, "--grid", "3", "--out", str(export)]) == 0
        assert cli.main(["examples", "--random", "--seed", "33", "--dimension", "5", "--family", "product-with-flat", "--flat-dims", "1", "--out", str(spec)]) == 0
        pairs[tag] = (analyze.read_bytes(), export.read_bytes(), spec.read_bytes())
    capsys.readouterr()
    assert pairs["a"] == pairs["b"]
    print("ACCEPTANCE 9: PASS — byte-identical JSON reports and spec files on reruns")
