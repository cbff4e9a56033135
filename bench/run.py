"""statcurv benchmark: one workload per call, closed loop, one process, one thread.

    python3 bench/run.py --workload {s3-analyze,battery,random5-file} --seed N
                         --seconds S --trace {0,1} [--smoke]

Run from anywhere; it works on the checkout that holds this file and imports
statcurv from that checkout's ``src/``.  Without ``src/statcurv`` it exits 2
and prints no result.

``--trace 0`` sets the inputs up several times (median = ``setup_s``), runs
the first operation once untimed (warm-up), then repeats whole passes while
another still fits in ``--seconds`` (at least one), and reports ``wall_s``
(median pass time), ``peak_rss_mb`` (whole process), and per-structure
latency (``structure_p50_s``, ``structure_p90_s``).  p90 needs ten samples beyond
it, so it is reported from 100 operations up (battery); the CLI workloads
analyze one structure per pass and report the median in its place.

Every time metric of ``--trace 0`` is scaled to a reference host speed.  The
speed of a shared host drifts by up to 2x, within seconds and over minutes.
A fixed calibration kernel (an array sweep; no statcurv code, so a change to
statcurv does not move it) is timed before and after every operation and
between set-ups, and each time is multiplied by ``CAL_REF_S`` over the mean
of the two kernel times around it: the result is seconds on a host where the
kernel takes ``CAL_REF_S``.  Scaling each operation by its own neighbours
tracks the host better than one factor for the whole run (battery's
per-structure spread across seeds: 0.04 against 0.19).  The raw median pass
time and the median kernel time are printed with the host facts.

``--trace 1`` runs the warm-up and one untraced pass, then one traced set-up
and pass with timing wrappers on statcurv's public functions (see
tracing.py), and reports per-layer calls, self times and counts, the trace
overhead (traced minus untraced pass time) and the time no span covers.
The span log goes to ``bench/out/``.

Every output is checked: against values stored from the unmodified program
in ``bench/reference/`` when the seed has them, and always against
invariants that need no stored value.  An operation that raises, exits with
an unexpected code or disagrees beyond ``tolerances.DEFAULT`` counts as
failed (``fail_frac`` = failed / attempted).  ``correct`` is false when an
operation gave a wrong answer or crashed; a loud numerical refusal
(statcurv's own errors, CLI exit 3) is a failure but not a wrong answer.
Byte changes of the CLI output are counted apart, in ``cli.bytes_changed``,
and are not failures.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Lines before it give the same figures for people, plus host facts.
"""

from __future__ import annotations

import os

# one thread: BLAS pools would compete for the machine's two cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 200
SETUP_CAL_SECONDS = 0.2
CAL_REF_S = 0.005  # calibration kernel time that defines the reference host
CAL_REPEATS = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "structure_p50_s": "s",
    "structure_p90_s": "s",
}


def host_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": list(os.getloadavg()),
    }


_CAL_WIDE = np.linspace(0.0, 1.0, 500_000)


def _calibration_kernel() -> float:
    """A memory-bound array sweep, about 5 ms on a quiet host.

    Timed next to each workload on this kind of shared host, a sweep tracked
    the workloads' slowdowns better than interpreter loops, small-matrix numpy
    calls or a batched contraction did, alone or mixed in.
    """
    return float(np.sin(_CAL_WIDE * 0.3).sum())


class HostClock:
    """Scales measured times to the reference host speed (see module docstring)."""

    def __init__(self):
        self.samples: list[float] = []
        for _ in range(3):  # first calls fault in numpy's code paths
            _calibration_kernel()

    def calibrate(self) -> float:
        """Median time of the calibration kernel now, in seconds."""
        times = []
        for _ in range(CAL_REPEATS):
            start = time.perf_counter()
            _calibration_kernel()
            times.append(time.perf_counter() - start)
        self.samples.append(statistics.median(times))
        return self.samples[-1]

    @staticmethod
    def scale(elapsed: float, before: float, after: float) -> float:
        """``elapsed`` seconds, measured between kernel times ``before`` and ``after``, on the reference host."""
        return elapsed * CAL_REF_S / (0.5 * (before + after))


class Outcome:
    """Operation counts, latencies and check results of one run."""

    def __init__(self, workload, references):
        self.workload = workload
        self.references = references
        self.clock = HostClock()
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.latencies: list[float] = []  # scaled to the reference host
        self.pass_walls: list[float] = []  # scaled to the reference host
        self.raw_pass_walls: list[float] = []
        self.out_bytes = 0
        self.bytes_changed = 0

    def run_pass(self, inputs, tracer=None) -> float:
        """Run every operation once; returns the raw pass time (operations only)."""
        wall = scaled = 0.0
        before = self.clock.calibrate()
        for index, (run_id, op) in enumerate(self.workload.operations(inputs)):
            if tracer is not None:
                tracer.run = run_id
            self.attempted += 1
            error = None
            start = time.perf_counter()
            try:
                raw = op()
            except Exception as exc:  # a failed operation is counted, not fatal
                error = exc
            elapsed = time.perf_counter() - start
            after = self.clock.calibrate()
            latency = self.clock.scale(elapsed, before, after)
            before = after
            wall += elapsed
            scaled += latency
            self.latencies.append(latency)
            if error is not None:
                refused = isinstance(error, self.workload.refusals)
                self.fail(run_id, [f"raised {type(error).__name__}: {error}"], wrong=not refused)
                continue
            self.check(index, run_id, raw)
        self.pass_walls.append(scaled)
        self.raw_pass_walls.append(wall)
        return wall

    def check(self, index: int, run_id: str, raw) -> None:
        try:
            rec = self.workload.record(raw)
        except self.workload.refusals as exc:
            self.fail(run_id, [str(exc)], wrong=False)
            return
        except Exception as exc:
            self.fail(run_id, [f"unreadable output: {type(exc).__name__}: {exc}"], wrong=True)
            return
        problems = self.workload.invariants(rec)
        ref = None if self.references is None else self.references[index]
        if ref is not None:
            problems += self.workload.mismatches(rec, ref)
            if "sha256" in ref and rec["sha256"] != ref["sha256"]:
                self.bytes_changed += 1
        self.out_bytes += rec.get("bytes", 0)
        if problems:
            self.fail(run_id, problems, wrong=True)

    def fail(self, run_id: str, problems: list[str], wrong: bool) -> None:
        """Count a failed operation; ``wrong`` when it gave an answer that is wrong.

        A loud refusal (statcurv's own numerical errors, CLI exit 3) fails the
        operation but returns no wrong number, so only wrong answers and
        crashes make the run incorrect.
        """
        self.failed += 1
        self.wrong += wrong
        kind = "wrong" if wrong else "refused"
        self.problems += [f"{run_id}: {kind}: {p}" for p in problems]


def timed_setup(workload, clock: HostClock):
    """Set up repeatedly, each time from a collected heap; returns inputs and median scaled time.

    The host is calibrated after every ``SETUP_CAL_SECONDS`` of set-up, not
    after each one: a sub-millisecond set-up would otherwise spend the run
    calibrating.
    """
    raw, times, pending = [], [], []
    inputs = None
    before = clock.calibrate()
    while len(raw) < SETUP_MIN_REPEATS or (sum(raw) < SETUP_MIN_SECONDS and len(raw) < SETUP_MAX_REPEATS):
        inputs = None
        gc.collect()
        start = time.perf_counter()
        inputs = workload.setup()
        raw.append(time.perf_counter() - start)
        pending.append(raw[-1])
        if sum(pending) >= SETUP_CAL_SECONDS:
            after = clock.calibrate()
            times += [clock.scale(t, before, after) for t in pending]
            before, pending = after, []
    if pending:
        after = clock.calibrate()
        times += [clock.scale(t, before, after) for t in pending]
    return inputs, statistics.median(times)


def warm_up(workload, inputs) -> None:
    """Run the first operation once, untimed and unchecked.

    It fills caches and faults in fresh memory: on random5-file the first
    analyze touches a few hundred MB of new pages.
    """
    _, op = next(iter(workload.operations(inputs)))
    try:
        op()
    except workload.refusals:
        pass  # the timed pass runs it again and counts the failure


def measure(workload, outcome: Outcome, seconds: float) -> dict:
    inputs, setup_s = timed_setup(workload, outcome.clock)
    start = time.perf_counter()
    warm_up(workload, inputs)
    while True:
        outcome.run_pass(inputs)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.fmean(outcome.raw_pass_walls) > seconds:
            break
    # a percentile needs ten samples beyond it: p90 from 100 operations up
    tail = 90 if len(outcome.latencies) >= 100 else 50
    return {
        "wall_s": statistics.median(outcome.pass_walls),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "structure_p50_s": float(np.percentile(outcome.latencies, 50)),
        "structure_p90_s": float(np.percentile(outcome.latencies, tail)),
    }


def trace(workload, outcome: Outcome) -> tuple[dict, list[dict]]:
    from tracing import Tracer
    from workloads import expression_nodes

    inputs = workload.setup()
    warm_up(workload, inputs)
    untraced = outcome.run_pass(inputs)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.phase = "setup"
        tracer.run = "setup"
        inputs = workload.setup()
        tracer.phase = "run"
        changed_before = outcome.bytes_changed
        bytes_before = outcome.out_bytes
        traced = outcome.run_pass(inputs, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["expr.nodes"] = expression_nodes(inputs.structures)
    metrics["spec.bytes"] = inputs.spec_bytes or sum(
        len(s.spec.to_text().encode()) for s in inputs.structures
    )
    metrics["stationary.structure_data.points_per_grid_point"] = (
        metrics["stationary.structure_data.points"] / inputs.grid_points
    )
    metrics["cli.out_bytes"] = outcome.out_bytes - bytes_before
    metrics["cli.bytes_changed"] = outcome.bytes_changed - changed_before
    metrics["trace.spans"] = sum(1 for s in tracer.spans if s[5] == "run")
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.unattributed_s"] = traced - tracer.run_self_total()
    return metrics, tracer.dump()


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_per_call"):
        return "matrices/call"
    if name.endswith("_per_grid_point"):
        return "points/point"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrunken inputs for the self-test")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "statcurv" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no statcurv sources under {src}; nothing to measure\n")
        return 2
    sys.path.insert(0, str(src))
    os.chdir(ROOT)  # the CLI echoes spec paths; relative ones keep output bytes fixed
    import statcurv

    if Path(statcurv.__file__).resolve().parent != (src / "statcurv").resolve():
        sys.stderr.write(f"bench: imported statcurv from {statcurv.__file__}, not {src}\n")
        return 2
    from workloads import WORKLOADS, load_references

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    references = load_references(workload)
    outcome = Outcome(workload, references)
    host = host_facts()
    mode = "smoke" if args.smoke else "full"
    try:
        if args.trace:
            values, spans = trace(workload, outcome)
            units = {key: layer_unit(key) for key in values}
        else:
            units = END_TO_END_UNITS
            values = measure(workload, outcome, args.seconds)
    finally:
        workload.cleanup()
    host["loadavg_end"] = list(os.getloadavg())
    host["calibration_s"] = statistics.median(outcome.clock.samples)
    host["raw_wall_s"] = statistics.median(outcome.raw_pass_walls)
    if args.trace:
        out = ROOT / "bench" / "out" / f"trace_{args.workload}_seed{args.seed}_{mode}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"host": host, "metrics": values, "spans": spans}) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  mode {mode}  trace {args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    print(
        "reference: stored values for this seed"
        if references is not None
        else f"reference: none stored for seed {args.seed}; invariant checks only"
    )
    for problem in outcome.problems[:20]:
        print(f"FAILED {problem}")
    print(
        f"fail_frac {outcome.failed / max(outcome.attempted, 1):.4g} ratio"
        f"  ({outcome.failed} failed of {outcome.attempted} attempted)"
    )
    print(f"cli.bytes_changed {outcome.bytes_changed} count")
    metrics = {}
    for key, unit in units.items():
        metrics[key] = {"value": values[key], "unit": unit}
        print(f"{key} {values[key]:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": outcome.wrong == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # string hashes, and with them dict and set layouts, change from
        # process to process unless pinned; pin them so runs differ by host only
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
