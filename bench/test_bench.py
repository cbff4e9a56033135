"""Self-test of the benchmark on its shrunken (smoke) inputs.

    python3 -m pytest bench/test_bench.py -q

Checks the result schema against BENCHMARK.json, the exact counters, the
reference gate, that tracing leaves every output unchanged, and that the
benchmark refuses to run without the program's sources.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def run_bench(name, trace, cwd=ROOT, smoke=True):
    argv = ["--workload", name, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *argv, *(["--smoke"] if smoke else [])],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_result_schema(name, trace):
    proc = run_bench(name, trace)
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0
    assert "reference: stored values for this seed" in proc.stdout
    assert "host {" in proc.stdout


def test_exact_counters():
    s3 = last_json(run_bench("s3-analyze", 1))["metrics"]
    assert s3["expr.nodes"]["value"] == 54
    assert s3["metric.load_spec_file.calls"]["value"] == 2
    assert s3["topology.grid_scan.calls"]["value"] == 1
    assert s3["stationary.structure_data.points_per_grid_point"]["value"] == 1.0
    assert s3["cli.bytes_changed"]["value"] == 0
    # n = 5 has two admissible p, and analyze rescans the grid for each
    r5 = last_json(run_bench("random5-file", 1))["metrics"]
    assert r5["topology.grid_scan.calls"]["value"] == 2
    assert r5["stationary.structure_data.points_per_grid_point"]["value"] == 2.0
    assert r5["setup.generators.generate.calls"]["value"] == 1


def one_output(workload):
    inputs = workload.setup()
    return [workload.record(op()) for _, op in workload.operations(inputs)]


def test_reference_gate_cli():
    wl = workloads.S3Analyze(0, smoke=True)
    rec = one_output(wl)[0]
    ref = workloads.load_references(wl)[0]
    assert wl.invariants(rec) == [] and wl.mismatches(rec, ref) == []
    within = copy.deepcopy(ref)
    within["results"][0]["min_margin"] += 1e-9
    assert wl.mismatches(rec, within) == []
    for field, value in (("min_margin", ref["results"][0]["min_margin"] + 1e-6), ("holds_everywhere", False)):
        moved = copy.deepcopy(ref)
        moved["results"][0][field] = value
        assert wl.mismatches(rec, moved)
    moved = copy.deepcopy(ref)
    moved["exit"] = 1
    assert wl.mismatches(rec, moved)


def test_reference_gate_battery():
    wl = workloads.Battery(0, smoke=True)
    recs = one_output(wl)
    refs = workloads.load_references(wl)
    assert all(wl.invariants(r) == [] and wl.mismatches(r, f) == [] for r, f in zip(recs, refs))
    moved = copy.deepcopy(refs[0])
    moved["margins"][0] *= 1.0 + 1e-6
    assert wl.mismatches(recs[0], moved)
    broken = copy.deepcopy(recs[0])
    broken["checks"]["curvature"] = 1e-3
    assert wl.invariants(broken)


def test_byte_changes_are_counted_not_failed():
    wl = workloads.S3Analyze(0, smoke=True)
    refs = copy.deepcopy(workloads.load_references(wl))
    refs[0]["sha256"] = "0" * 64
    outcome = run.Outcome(wl, refs)
    outcome.run_pass(wl.setup())
    assert (outcome.attempted, outcome.failed, outcome.bytes_changed) == (1, 0, 1)


def test_refusals_fail_without_making_the_run_wrong():
    from statcurv.errors import FrameError

    class Broken(workloads.S3Analyze):
        def operations(self, inputs):
            def refuse():
                raise FrameError("residual above tolerance")

            def crash():
                raise TypeError("bug")

            yield "refuse", refuse
            yield "crash", crash
            yield "exit3", lambda: (3, "")

    outcome = run.Outcome(Broken(0, smoke=True), None)
    outcome.run_pass(None)
    assert (outcome.attempted, outcome.failed, outcome.wrong) == (3, 3, 1)


def test_times_scale_with_host_speed():
    assert run.HostClock.scale(2.0, run.CAL_REF_S, run.CAL_REF_S) == 2.0
    # the calibration kernel twice as slow: a host half as fast
    assert run.HostClock.scale(2.0, 1.5 * run.CAL_REF_S, 2.5 * run.CAL_REF_S) == pytest.approx(1.0)


@pytest.mark.parametrize("name", NAMES)
def test_tracing_leaves_outputs_unchanged(name):
    import statcurv.curvature_ops
    import statcurv.metric

    original = statcurv.metric.frame_components_batch
    wl = workloads.WORKLOADS[name](0, True)
    tracer = Tracer()
    try:
        plain = one_output(wl)
        tracer.install()
        try:
            traced = one_output(wl)
        finally:
            tracer.uninstall()
    finally:
        wl.cleanup()
    assert traced == plain
    assert tracer.spans
    assert statcurv.metric.frame_components_batch is original
    assert statcurv.curvature_ops.frame_components_batch is original


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("battery", 0, cwd=tmp_path, smoke=False)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
