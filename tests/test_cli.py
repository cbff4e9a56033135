"""CLI behavior: subcommands, exit codes, report determinism, JSON round trips."""

import dataclasses
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from statcurv import cli, curvature_ops, frames, stationary, topology
from statcurv.expr import MAX_NESTING
from statcurv.generators import battery_recipe, generate
from statcurv.linalg import eigvalsh
from statcurv.metric import load_spec_file

from conftest import SPEC_DIR
from structures import two_pair_flat_rotations

S3 = str(SPEC_DIR / "s3.spec")
TORUS = str(SPEC_DIR / "flat_torus.spec")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _force_positive(monkeypatch):
    """Make every scanned p hold everywhere, whatever the spectra."""
    real_scans = topology.grid_scans

    def forced_positive(structure, grid, ps, tol=None):
        results = real_scans(structure, grid, ps, tol) if tol else real_scans(structure, grid, ps)
        return [
            dataclasses.replace(
                r,
                verdict=topology.betti_conclusions(structure.dimension, r.verdict.p, True),
                min_margin=1.0,
            )
            for r in results
        ]

    monkeypatch.setattr(topology, "grid_scans", forced_positive)


class TestVerify:
    def test_s3_passes(self, capsys):
        code, out, _ = run(capsys, "verify", S3, "--grid", "4")
        assert code == 0
        assert "all identities verified" in out
        assert out.count("PASS") == 10

    def test_flat_torus_exact(self, capsys):
        code, out, _ = run(capsys, "verify", TORUS, "--grid", "3")
        assert code == 0
        assert "0.000e+00" in out

    def test_corrupted_spec_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("[chart]\ncoords = t\n")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert "input error" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "no/such/file.spec")
        assert code == 2
        assert "input error" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", S3, "--grid", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["identities"]) == 10

    def test_failure_exits_3(self, capsys, tmp_path):
        # a spec whose killing data is wrong (g_1_1 depends on t, so T = d/dt
        # is not Killing) breaks the identities
        path = tmp_path / "not_killing.spec"
        path.write_text(
            "[chart]\ncoords = t, x, y\nt = 0, 6.28\nx = 0, 6.28\ny = 0, 6.28\n"
            '[metric]\ng_0_0 = "-1"\ng_1_1 = "1+t"\ng_2_2 = "1"\n'
            "[signature]\nkind = lorentzian\n"
            '[killing]\nT_0 = "1"\nT_1 = "0"\nT_2 = "0"\nunit = true\n'
        )
        code, out, err = run(capsys, "verify", str(path), "--grid", "3")
        assert code == 3
        assert "FAIL" in out or "numerical failure" in err

    def test_checks_the_synthesis_analyze_uses(self, capsys, monkeypatch):
        # rotation blocks 0.1% too large, in the one synthesis that both the
        # curvature rows and the symmetrized operator call
        real = stationary.flipped_curvature

        def skewed(p_l, omega, gtt, basis):
            return real(p_l, 1.001 * omega, gtt, basis)

        monkeypatch.setattr(stationary, "flipped_curvature", skewed)
        monkeypatch.setattr(curvature_ops, "flipped_curvature", skewed)
        code, out, _ = run(capsys, "verify", S3, "--grid", "4", "--format", "json")
        assert code == 3
        failed = {row["identity"] for row in json.loads(out)["identities"] if row["status"] == "FAIL"}
        assert failed == {"curvature_timelike", "curvature_spatial", "operator_central_identity"}

    def test_argmax_point_ignores_rounding_ties(self, capsys):
        # connection_nabla_T_X reads rounding noise (4.4e-16 at grid 4) against
        # a tolerance of 1e-7; its exact argmax is grid point 16, but every
        # point lies within tol.identity * 1e-7 of it, so the first one is reported
        code, out, _ = run(capsys, "verify", S3, "--grid", "4", "--format", "json")
        assert code == 0
        rows = {row["identity"]: row for row in json.loads(out)["identities"]}
        assert rows["connection_nabla_T_X"]["argmax_point"] == [0.001, 0.001, 0.001]

    def test_argmax_window_is_the_row_tolerance_times_identity(self, capsys, monkeypatch):
        # frame_eigen_nonpositive (tolerance 1e-9) reads 0.5, 0.9 - 9.5e-9 and
        # 0.9 times its tolerance at grid points 0, 1, 2 and 0 elsewhere; the
        # window identity * 1e-9 = 1e-17 reaches point 1 and not point 0.  An
        # absolute window of identity = 1e-8 would reach point 0, and one of
        # identity times the row maximum (9e-18) would stop at the argmax, 2
        real = topology.verify_points

        def crafted(*args):
            table = real(*args).copy()
            table[:, 8] = 0.0
            table[:3, 8] = 1e-9 * np.array([0.5, 0.9 - 9.5e-9, 0.9])
            return table

        monkeypatch.setattr(topology, "verify_points", crafted)
        code, out, _ = run(capsys, "verify", S3, "--grid", "4", "--format", "json")
        assert code == 0
        structure = stationary.StationaryStructure.from_spec(load_spec_file(S3))
        pts, _ = topology.build_grid(structure.spec, [4, 4, 4])
        row = json.loads(out)["identities"][8]
        assert row["identity"] == "frame_eigen_nonpositive" and row["status"] == "PASS"
        assert row["max_residual"] == 1e-9 * 0.9
        assert row["argmax_point"] == pts[1].tolist()

    def test_failing_rows_report_their_worst_point(self, capsys, monkeypatch):
        # one point's curvature_mixed residual pushed over the tolerance, 1% above
        # a second failing point: the row fails and names the worse one
        real = topology.verify_points

        def one_bad_point(*args):
            table = real(*args).copy()
            table[[20, 37], 4] = [1e-4, 1.01e-4]
            return table

        monkeypatch.setattr(topology, "verify_points", one_bad_point)
        code, out, _ = run(capsys, "verify", S3, "--grid", "4", "--format", "json")
        assert code == 3
        structure = stationary.StationaryStructure.from_spec(load_spec_file(S3))
        pts, _ = topology.build_grid(structure.spec, [4, 4, 4])
        rows = json.loads(out)["identities"]
        assert [row["identity"] for row in rows if row["status"] == "FAIL"] == ["curvature_mixed"]
        assert rows[4]["argmax_point"] == pts[37].tolist()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_non_unit_spec_passes(self, capsys, tmp_path, seed):
        # the curvature rows then see g_L(T,T) != -1, the operators its normalization
        structure = generate(dataclasses.replace(battery_recipe(seed), normalize=False))
        spec_path = tmp_path / "raw.spec"
        spec_path.write_text(structure.spec.to_text())
        code, out, _ = run(capsys, "verify", str(spec_path), "--grid", "3")
        assert code == 0
        assert "conformally normalized" in out
        assert out.count("PASS") == 10

    def test_point_failure_names_the_point(self, capsys, tmp_path):
        # the metric degenerates for x <= 0, first reached at the first grid point
        degenerate = tmp_path / "degenerate.spec"
        degenerate.write_text(
            "[chart]\ncoords = t, x, y\nt = 0, 6.28\nx = -0.5, 2\ny = 0, 6.28\n"
            '[metric]\ng_0_0 = "-1"\ng_1_1 = "1"\ng_2_2 = "x"\n'
            "[signature]\nkind = lorentzian\n"
            '[killing]\nT_0 = "1"\nT_1 = "0"\nT_2 = "0"\nunit = true\n'
        )
        code, out, err = run(capsys, "verify", str(degenerate), "--grid", "2,5,2")
        assert code == 3
        assert out == ""
        assert "numerical failure: failure at grid point [0.001, -0.499, 0.001]: " in err


class TestAnalyze:
    def test_s3_verdict(self, capsys):
        code, out, _ = run(capsys, "analyze", S3, "--p", "1", "--grid", "5")
        assert code == 0
        assert "2-positive everywhere" in out
        assert "margin 2.000000" in out
        assert "b1=b2=0" in out

    def test_flat_torus_negative(self, capsys):
        code, out, _ = run(capsys, "analyze", TORUS, "--p", "1", "--grid", "3")
        assert code == 1
        assert "not 2-positive" in out
        assert "margin 0.000000" in out
        assert "no conclusion" in out

    def test_all_p(self, capsys):
        code, out, _ = run(capsys, "analyze", S3, "--all-p", "--grid", "4")
        assert code == 0
        assert "strongest verdict" in out

    def test_p_out_of_range(self, capsys):
        code, _, err = run(capsys, "analyze", S3, "--p", "3", "--grid", "4")
        assert code == 2
        assert "outside" in err

    def test_requires_p_or_all_p(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "analyze", S3)
        assert exc.value.code == 2

    def test_synthetic_contradiction_message(self, capsys, monkeypatch, tmp_path):
        # inject an always-positive matrix scan for a 4-dimensional example:
        # the decision logic must then report the realizability contradiction
        spec_path = tmp_path / "four.spec"
        code = cli.main(
            [
                "examples",
                "--random",
                "--seed",
                "5",
                "--dimension",
                "4",
                "--out",
                str(spec_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        _force_positive(monkeypatch)
        code, out, _ = run(capsys, "analyze", str(spec_path), "--p", "1", "--grid", "3")
        assert code == 0
        assert "contradiction" in out
        assert "not realizable" in out

    def test_non_unit_notice(self, capsys, tmp_path):
        spec_path = tmp_path / "nonunit.spec"
        cli.main(
            [
                "examples",
                "--random",
                "--seed",
                "9",
                "--dimension",
                "3",
                "--family",
                "s3-squashed",
                "--out",
                str(spec_path),
            ]
        )
        capsys.readouterr()
        text = spec_path.read_text().replace("unit = true", "unit = false")
        spec_path.write_text(text)
        code, out, _ = run(capsys, "analyze", str(spec_path), "--p", "1", "--grid", "4")
        assert "conformally normalized" in out
        assert code in (0, 1)
        # the notice is a JSON note too, spliced in with the verdicts
        _, out, _ = run(capsys, "analyze", str(spec_path), "--all-p", "--grid", "2", "--format", "json")
        payload = json.loads(out)
        assert "conformally normalized" in payload["notes"][0]
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_json_deterministic(self, capsys, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for path in (out_a, out_b):
            code = cli.main(
                ["analyze", S3, "--p", "1", "--grid", "4", "--format", "json", "--out", str(path)]
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        payload = json.loads(out_a.read_text())
        assert payload["strongest"]["vanishing_betti"] == [1, 2]

    def test_all_p_results_match_single_p(self, capsys, tmp_path):
        spec_path = str(tmp_path / "four.spec")
        cli.main(["examples", "--random", "--seed", "5", "--dimension", "4", "--out", spec_path])
        capsys.readouterr()
        _, out, _ = run(capsys, "analyze", spec_path, "--all-p", "--grid", "3", "--format", "json")
        results = json.loads(out)["results"]
        assert [r["p"] for r in results] == [1, 2]
        for result in results:
            p = str(result["p"])
            _, out, _ = run(capsys, "analyze", spec_path, "--p", p, "--grid", "3", "--format", "json")
            assert json.loads(out)["results"] == [result]

    @pytest.mark.parametrize(
        "dimension, forced, best_p",
        # nothing holds: the first p; n = 4, all hold: the last contradiction;
        # n = 5, all hold: the largest vanishing set
        [(4, False, 1), (4, True, 2), (5, True, 2)],
    )
    def test_strongest_is_its_results_entry(
        self, capsys, monkeypatch, tmp_path, dimension, forced, best_p
    ):
        spec_path = str(tmp_path / "random.spec")
        seed = {4: "5", 5: "0"}[dimension]
        cli.main(
            ["examples", "--random", "--seed", seed, "--dimension", str(dimension), "--out", spec_path]
        )
        capsys.readouterr()
        if forced:
            _force_positive(monkeypatch)
        _, out, _ = run(capsys, "analyze", spec_path, "--all-p", "--grid", "2", "--format", "json")
        payload = json.loads(out)
        (entry,) = [r for r in payload["results"] if r["p"] == best_p]
        assert payload["strongest"] == entry
        # each verdict is encoded once and spliced in twice, to the same bytes
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        _, out, _ = run(capsys, "analyze", spec_path, "--all-p", "--grid", "2")
        assert f"strongest verdict: p={best_p}:" in out

    def test_all_p_scans_once(self, capsys, monkeypatch, tmp_path):
        spec_path = str(tmp_path / "four.spec")
        cli.main(["examples", "--random", "--seed", "5", "--dimension", "4", "--out", spec_path])
        capsys.readouterr()
        calls = {"scan_points": 0, "load_spec_file": 0}

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(topology, "scan_points")
        counting(cli, "load_spec_file")
        code, _, _ = run(capsys, "analyze", spec_path, "--all-p", "--grid", "2")
        assert code in (0, 1)
        assert calls == {"scan_points": 1, "load_spec_file": 1}

    @pytest.mark.parametrize("c", [1e-3, 1e-2, 0.1, 10.0, 1e3])
    def test_homothety_keeps_verdict(self, capsys, tmp_path, c):
        # g -> c^2 g and T -> T/c: T stays a unit Killing field, the operators
        # scale by 1/c^2, and the verdict must not depend on the unit of length
        text = (SPEC_DIR / "s3.spec").read_text()
        text = re.sub(r'^(g_\d_\d) = "(.*)"$', rf'\1 = "{c * c!r}*(\2)"', text, flags=re.M)
        text = re.sub(r'^(T_\d) = "(.*)"$', rf'\1 = "(\2)/{c!r}"', text, flags=re.M)
        spec_path = tmp_path / "scaled.spec"
        spec_path.write_text(text)
        code, out, _ = run(capsys, "analyze", str(spec_path), "--all-p", "--grid", "4", "--format", "json")
        assert code == 0
        (result,) = json.loads(out)["results"]
        assert result["vanishing_betti"] == [1, 2]
        assert result["min_margin"] == pytest.approx(2.0 / c**2, rel=1e-6)

    def test_n6_spec_fits_in_one_gib(self, capsys, tmp_path):
        # a file-loaded n = 6 spec holds ~90k node objects but ~200 distinct
        # ones; analyzing it must not run out of a 1 GiB address space
        spec_path = str(tmp_path / "six.spec")
        cli.main(["examples", "--random", "--seed", "3", "--dimension", "6", "--out", spec_path])
        capsys.readouterr()
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "statcurv.cli", "analyze", spec_path, "--all-p", "--grid", "3"],
            env=env,
            capture_output=True,
            preexec_fn=cap_address_space,
            timeout=300,
        )
        # exit 1 is also what an uncaught MemoryError gives, so the report
        # must be complete and stderr empty
        assert proc.returncode in (0, 1), proc.stderr.decode()[-2000:]
        assert proc.stderr == b""
        assert b"max central-identity residual" in proc.stdout


class TestExport:
    def test_s3_lines(self, capsys, tmp_path):
        out = tmp_path / "s3.jsonl"
        code = cli.main(["export", S3, "--grid", "3,2,2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 12
        for line in lines:
            record = json.loads(line)
            riem = np.array(record["riemannian"])
            assert np.abs(riem - np.eye(3)).max() < 1e-6
            sym = np.array(record["symmetrized"])
            lor = np.array(record["lorentzian"])
            assert np.abs((sym - lor) - np.diag([2.0, 2.0, -6.0])).max() < 1e-6
            assert record["f_values"] == pytest.approx([-1.0])

    def test_lines_are_per_point_dumps(self, tmp_path):
        # export encodes each orbit's record once and splices in the point;
        # the reference computes every grid point and dumps its whole record
        out = tmp_path / "s3.jsonl"
        assert cli.main(["export", S3, "--grid", "3,2,2", "--out", str(out)]) == 0
        structure = stationary.StationaryStructure.from_spec(load_spec_file(S3))
        pts, _ = topology.build_grid(structure.spec, [3, 2, 2])
        assert len(topology.orbits(structure, pts)[0]) == 3
        ops = curvature_ops.operators_at(structure, pts)
        m_s = ops.m_s + 0.0  # export writes no -0.0
        vals = eigvalsh(m_s)
        want = ""
        for b, point in enumerate(pts.tolist()):
            record = {
                "schema_version": 1,
                "basis": [list(pair) for pair in ops.basis.labels()],
                "f_values": ops.frames.f[b, : ops.frames.pair_count[b]].tolist(),
                "riemannian": ops.m_r[b].tolist(),
                "lorentzian": ops.m_l[b].tolist(),
                "symmetrized": m_s[b].tolist(),
                "eigenvalues": vals[b].tolist(),
                "lorentzian_asymmetry": float(np.abs(ops.m_l[b] - ops.m_l[b].T).max()),
                "central_residual": float(ops.central[b]),
                "point": point,
            }
            want += json.dumps(record, sort_keys=True) + "\n"
        assert out.read_text() == want

    @pytest.mark.parametrize("spec", [S3, TORUS], ids=["s3", "torus"])
    def test_no_negative_zero(self, spec, capsys):
        # every matrix, spectrum and number an export line writes folds -0.0
        # into 0.0; the S3 symmetrized matrices and the flat torus's zero
        # spectra are where signed zeros arise
        code, out, _ = run(capsys, "export", spec, "--grid", "4")
        assert code == 0
        for line in out.splitlines():
            flat = [x for v in json.loads(line).values() for x in np.ravel(v) if isinstance(x, float)]
            assert not any(x == 0.0 and math.copysign(1.0, x) < 0 for x in flat)

    def test_round_trip_bitwise(self, tmp_path, capsys):
        out = tmp_path / "dump.jsonl"
        cli.main(["export", S3, "--grid", "2", "--out", str(out)])
        capsys.readouterr()
        first = out.read_text().splitlines()
        parsed = [json.loads(line) for line in first]
        again = [json.dumps(rec, sort_keys=True) for rec in parsed]
        assert first == again
        # and a rerun is byte-identical
        out2 = tmp_path / "dump2.jsonl"
        cli.main(["export", S3, "--grid", "2", "--out", str(out2)])
        capsys.readouterr()
        assert out.read_bytes() == out2.read_bytes()

    def test_empty_grid(self, capsys, tmp_path):
        out = tmp_path / "empty.jsonl"
        code = cli.main(["export", S3, "--grid", "0", "--out", str(out)])
        assert code == 0
        assert out.read_text() == ""

    def test_analyze_rejects_empty_grid(self, capsys):
        code, _, err = run(capsys, "analyze", S3, "--p", "1", "--grid", "0")
        assert code == 2


class TestExamples:
    def test_writes_shipped_files(self, capsys, tmp_path):
        code, out, _ = run(capsys, "examples", "--dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "s3.spec").read_bytes() == (SPEC_DIR / "s3.spec").read_bytes()
        assert (tmp_path / "flat_torus.spec").exists()

    def test_random_requires_seed(self, capsys):
        code, _, err = run(capsys, "examples", "--random")
        assert code == 2
        assert "--seed" in err

    def test_random_deterministic(self, capsys, tmp_path):
        a = tmp_path / "a.spec"
        b = tmp_path / "b.spec"
        for path in (a, b):
            code, _, _ = run(
                capsys, "examples", "--random", "--seed", "21", "--dimension", "5",
                "--family", "product-with-flat", "--flat-dims", "1", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generated_example_analyzes(self, capsys, tmp_path):
        path = tmp_path / "gen.spec"
        run(capsys, "examples", "--random", "--seed", "2", "--out", str(path))
        code, out, _ = run(capsys, "analyze", str(path), "--p", "1", "--grid", "3")
        assert code in (0, 1)
        assert "positive" in out


@pytest.mark.parametrize("which", ["s3", "random4", "rotations"])
def test_reports_do_not_depend_on_chunk_size(capsys, monkeypatch, tmp_path, which):
    # chunk boundaries must not reach any byte: 1 puts every orbit
    # representative in its own chunk, 7 leaves a short last chunk, 2048
    # holds the whole grid.  S3 and the random spec read one coordinate, so
    # only "rotations", whose T reads four of five, has representatives
    # across several chunks of 7.
    if which == "s3":
        spec, grid = S3, "4"
    elif which == "random4":
        spec, grid = str(tmp_path / "four.spec"), "2"
        cli.main(["examples", "--random", "--seed", "5", "--dimension", "4", "--out", spec])
        capsys.readouterr()
    else:
        spec, grid = str(tmp_path / "rotations.spec"), "2"
        Path(spec).write_text(two_pair_flat_rotations().spec.to_text())
        s = stationary.StationaryStructure.from_spec(load_spec_file(spec))
        first, _ = topology.orbits(s, topology.build_grid(s.spec, [2] * 5)[0])
        assert len(first) == 16
    reports = []
    for chunk in (1, 7, 2048):
        monkeypatch.setattr(topology, "CHUNK", chunk)
        export = run(capsys, "export", spec, "--grid", grid)
        verify = run(capsys, "verify", spec, "--grid", grid, "--format", "json")
        analyze = run(capsys, "analyze", spec, "--all-p", "--grid", grid, "--format", "json")
        reports.append((export, verify, analyze))
    assert all(report[1] for report in reports[0])
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]


def test_reports_leave_the_lorentzian_operator_unbuilt(capsys, monkeypatch):
    # analyze and verify read their rows in the completion frames, so they
    # build no adapted frame and no OperatorBatch, and for unit T one
    # completion per chunk; only export builds them, and m_l; verify-only
    # fields of StructureData stay unbuilt on the analyze path
    built = {"adapted": [], "operators": [], "data": [], "completions": []}

    def recording(modules, name, kind):
        real = getattr(modules[0], name)

        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            built[kind].append(out)
            return out

        for module in modules:
            monkeypatch.setattr(module, name, wrapper)

    # every module that binds each function
    recording([frames, curvature_ops], "adapted_frames_batch", "adapted")
    recording([curvature_ops], "operators_from_data", "operators")
    recording([cli], "operators_at", "operators")  # export
    recording([stationary, topology, curvature_ops, frames], "structure_data", "data")
    recording([frames, topology], "orthonormal_completions", "completions")
    assert run(capsys, "analyze", S3, "--all-p", "--grid", "3", "--format", "json")[0] == 0
    assert run(capsys, "analyze", S3, "--p", "1", "--grid", "3")[0] == 0
    assert built["adapted"] == [] and built["operators"] == []
    assert len(built["data"]) == len(built["completions"]) == 2
    assert all("dgtt" not in vars(d) and "cov_t_g" not in vars(d) for d in built["data"])
    assert run(capsys, "verify", S3, "--grid", "3")[0] == 0
    assert built["adapted"] == [] and built["operators"] == []
    assert len(built["data"]) == len(built["completions"]) == 3
    assert run(capsys, "export", S3, "--grid", "2")[0] == 0
    assert "m_l" in vars(built["operators"][-1])


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", S3, "--all-p", "--grid", "3"],
        ["verify", S3, "--grid", "3"],
        ["export", S3, "--grid", "2"],
    ],
)
def test_commands_leave_the_flip_uncomposed(capsys, monkeypatch, argv):
    # structure_data builds the flipped metric from the g_L and T jets, so no
    # command composes the flip's expression graph
    made = []
    real = stationary.StationaryStructure.from_spec

    def recording(spec):
        made.append(real(spec))
        return made[-1]

    monkeypatch.setattr(stationary.StationaryStructure, "from_spec", staticmethod(recording))
    assert run(capsys, *argv)[0] == 0
    assert made and all("counterpart_spec" not in vars(s) for s in made)


def _three_coordinate_spec(g_0_0="-1", g_1_1="1", t_1="0", unit="true", x="0, 1"):
    return (
        f"[chart]\ncoords = t, x, y\nt = 0, 1\nx = {x}\ny = 0, 1\nmargin = 0.001\n"
        f'[metric]\ng_0_0 = "{g_0_0}"\ng_1_1 = "{g_1_1}"\ng_2_2 = "1"\n'
        "[signature]\nkind = lorentzian\n"
        f'[killing]\nT_0 = "1"\nT_1 = "{t_1}"\nT_2 = "0"\nunit = {unit}\n'
    )


def _four_torus_spec():
    # the flat 4-torus with g_1_2 = g_1_3 = g_2_3 = 0.00001*t: T = d_t is
    # unit but not Killing
    side = "0, 6.283185307179586"
    return (
        f"[chart]\ncoords = t, x, y, z\nt = {side}\nx = {side}\ny = {side}\nz = {side}\nmargin = 0.001\n"
        '[metric]\ng_0_0 = "-1"\ng_1_1 = "1"\ng_2_2 = "1"\ng_3_3 = "1"\n'
        'g_1_2 = "0.00001*t"\ng_1_3 = "0.00001*t"\ng_2_3 = "0.00001*t"\n'
        "[signature]\nkind = lorentzian\n"
        '[killing]\nT_0 = "1"\nT_1 = "0"\nT_2 = "0"\nT_3 = "0"\nunit = true\n'
    )


# the guards on analyze's completions, the one gate the adapted frames also
# pass through, so every command refuses a point with the same message
_GUARD_CASES = {
    "not-killing": (
        _three_coordinate_spec(g_1_1="1+t"),
        "failure at grid point [0.001, 0.001, 0.001]: positive eigenvalue 0.24950074900124852 "
        "of the squared map (Killing or unit-length precondition broken)",
    ),
    "not-unit": (
        _three_coordinate_spec(g_0_0="-2"),
        "failure at grid point [0.001, 0.001, 0.001]: T is not unit at this point: g_L(T,T) = -2.0",
    ),
    "t-block": (
        _three_coordinate_spec(t_1="0.1*t", unit="false", x="0.5, 2"),
        "failure at grid point [0.001, 0.501, 0.001]: nab T does not annihilate the T direction "
        "(residual 0.10000000200000003)",
    ),
    # a symmetric part of nab T too small for the squared-map checks to see
    "weakly-not-killing": (
        _three_coordinate_spec(g_1_1="1+0.00001*t"),
        "failure at grid point [0.001, 0.001, 0.001]: adapted frame residual 4.999999950000001e-06 "
        "above tolerance 1e-07",
    ),
    # the same on the 4-torus, where the residual of the final adapted frames is twice this
    "weakly-not-killing-4": (
        _four_torus_spec(),
        "failure at grid point [0.001, 0.001, 0.001, 0.001]: adapted frame residual 5.000000000000001e-06 "
        "above tolerance 1e-07",
    ),
}


@pytest.mark.parametrize("case", sorted(_GUARD_CASES))
def test_analyze_guards_exit_3(capsys, tmp_path, case):
    # verify and export refuse the same point with analyze's message, the
    # first and only line of stderr: export writes its notices to stderr only
    # once every chunk is computed, the others write theirs into the report
    text, message = _GUARD_CASES[case]
    spec = tmp_path / "guard.spec"
    spec.write_text(text)
    for command, *flags in (["analyze", "--all-p"], ["verify"], ["export"]):
        code, out, err = run(capsys, command, str(spec), *flags, "--grid", "3")
        assert (code, out) == (3, ""), command
        assert err.splitlines() == [f"numerical failure: {message}"], command


@pytest.mark.parametrize("components, gtt", [("1, 1, 0", "0.0"), ("0, 0, 0", "0.0"), ("0, 1, 0", "1.0")])
def test_constant_non_timelike_t_exits_3(capsys, tmp_path, components, gtt):
    # on the flat torus g_L(T,T) = -T_0^2 + T_1^2 + T_2^2 folds to a constant
    # >= 0 (T null, zero or spacelike); conformal normalization refuses it
    # before it divides by it
    killing = 'T_0 = "1"\nT_1 = "0"\nT_2 = "0"\nunit = true\n'
    text = Path(TORUS).read_text()
    assert killing in text
    lines = "".join(f'T_{i} = "{c}"\n' for i, c in enumerate(components.split(", ")))
    spec = tmp_path / "constant-t.spec"
    spec.write_text(text.replace(killing, lines + "unit = false\n"))
    for command, *flags in (["analyze", "--all-p"], ["verify"], ["export"]):
        code, out, err = run(capsys, command, str(spec), *flags, "--grid", "3")
        assert (code, out) == (3, ""), command
        first = err.splitlines()[0]
        assert first == f"numerical failure: g_L(T,T) >= 0 everywhere: it folds to the constant {gtt}", command


def test_out_of_memory_exits_3(capsys, monkeypatch):
    # an uncaught MemoryError would exit 1, the code for "positivity failed"
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(topology, "grid_scans", exhausted)
    code, out, err = run(capsys, "analyze", S3, "--p", "1", "--grid", "2")
    assert code == 3
    assert out == ""
    assert err == "resource failure: out of memory\n"


@pytest.mark.parametrize(
    "old, new",
    [
        ("margin = 0.001", "margin = nan"),
        ("margin = 0.001", "margin = 0.00\u0661"),
        ("x = 0, 6.283185307179586", "x = 0, inf"),
        ("x = 0, 6.283185307179586", "x = 0, 1e400"),
        ("x = 0, 6.283185307179586", "x = 0, 6_283.185307179586"),
        ('g_2_2 = "1"', 'g_\u0662_\u0662 = "1"'),
    ],
)
def test_spec_numbers_and_keys_must_be_finite_ascii(capsys, tmp_path, old, new):
    text = Path(TORUS).read_text(encoding="utf-8")
    assert old in text
    bad = tmp_path / "bad.spec"
    bad.write_text(text.replace(old, new), encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(bad), "--p", "1", "--grid", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("input error")


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", S3, "--p", "\u0661", "--grid", "3"],
        ["analyze", S3, "--p", "1", "--grid", "\u0663"],
        ["analyze", S3, "--p", "1", "--grid", "1_0"],
        ["verify", S3, "--grid", "3,3,\u0663"],
        ["examples", "--random", "--seed", "\u0663"],
        ["examples", "--random", "--seed", "1_0"],
        ["examples", "--random", "--seed", "3", "--dimension", "\u0663"],
        ["examples", "--random", "--seed", "3", "--flat-dims", "\u0660"],
    ],
)
def test_cli_integers_must_be_ascii(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # where `examples --random` would write its spec
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad option values itself
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def _edited_torus(tmp_path, old, new):
    text = Path(TORUS).read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / "edited.spec"
    path.write_text(text.replace(old, new), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "argv", [["verify", "--grid", "3"], ["analyze", "--p", "1", "--grid", "3"], ["export", "--grid", "2"]]
)
def test_long_sums_have_no_depth_limit(capsys, tmp_path, argv):
    # -1+0*x+...+0*x: a chain of 2,000 sums, as deep as it is long, is
    # parsed by a loop and evaluated and scanned by an iterative walk
    long = _edited_torus(tmp_path, 'g_0_0 = "-1"', 'g_0_0 = "-1' + "+0*x" * 2000 + '"')
    code, out, err = run(capsys, argv[0], long, *argv[1:])
    want = run(capsys, argv[0], TORUS, *argv[1:])
    assert (code, out.replace(long, TORUS), err) == want
    assert err == ""


@pytest.mark.parametrize("argv", [["verify", "--grid", "3"], ["export", "--grid", "2"]])
def test_nesting_past_the_limit_is_an_input_error(capsys, tmp_path, argv):
    levels = 300
    deep = _edited_torus(tmp_path, 'g_1_1 = "1"', 'g_1_1 = "' + "(" * levels + "1" + ")" * levels + '"')
    code, out, err = run(capsys, argv[0], deep, *argv[1:])
    assert (code, out) == (2, "")
    # the '(' that opens level MAX_NESTING + 1
    assert err == f"input error: nesting deeper than {MAX_NESTING} levels (byte offset {MAX_NESTING})\n"


def test_nesting_at_the_limit_loads(capsys, tmp_path):
    levels = MAX_NESTING
    deep = _edited_torus(tmp_path, 'g_1_1 = "1"', 'g_1_1 = "' + "(" * levels + "1" + ")" * levels + '"')
    assert load_spec_file(deep).to_text() == load_spec_file(TORUS).to_text()
    code, out, _ = run(capsys, "verify", deep, "--grid", "3")
    assert code == 0 and "all identities verified" in out
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "statcurv.cli", "verify", deep, "--grid", "3"],
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert b"all identities verified" in proc.stdout


def test_grid_parsing_errors(capsys):
    code, _, err = run(capsys, "analyze", S3, "--p", "1", "--grid", "4,4")
    assert code == 2
    code, _, err = run(capsys, "analyze", S3, "--p", "1", "--grid", "1")
    assert code == 2
    code, _, err = run(capsys, "analyze", S3, "--p", "1", "--tol-scale", "1000")
    assert code == 2


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_back_to_back_calls_match_first_calls(capsys, monkeypatch, tmp_path):
    # a parse with one subcommand, or a rejected one, must leave the shared
    # parser as a fresh one would be for the next
    monkeypatch.chdir(tmp_path)  # where `examples --random` writes its spec
    argvs = [
        ["analyze", S3, "--p", "1", "--grid", "3"],
        ["analyze", S3, "--all-p", "--grid", "3", "--format", "json"],
        ["verify", S3, "--grid", "3"],
        ["examples", "--random", "--seed", "4", "--dimension", "4"],
        ["analyze", S3, "--p", "1", "--all-p"],
        ["analyze", S3],
    ]

    def call(argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a bad command line itself
            code = exc.code
        captured = capsys.readouterr()
        written = {}
        for path in tmp_path.iterdir():
            written[path.name] = path.read_bytes()
            path.unlink()
        return code, captured.out, captured.err, written

    first = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        first.append(call(argv))
    assert [r[0] for r in first] == [0, 0, 0, 0, 2, 2]
    for argv, expected in zip(argvs + argvs[::-1], first + first[::-1]):
        assert call(argv) == expected, argv
