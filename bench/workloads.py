"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the benchmark seed in ``setup`` (timed
as ``setup_s``), then yields operations.  An operation returns its raw
output; ``record`` turns that into the plain values the reference gate
compares.  The program only ever sees the generated inputs.

    s3-analyze    statcurv analyze specs/s3.spec --all-p --grid 10 --format json,
                  in-process through cli.main.  1000 points at n = 3, one p.
                  Seed ignored.  The per-point frame loop and single-matrix
                  linalg calls carry the time; expr does almost nothing.  The
                  cost is per point, so a 10^3 grid measures what 20^3 does
                  in passes short enough to calibrate the host between.
    battery       battery_recipe(300*seed + i) for i < 100, 50 points each from
                  default_rng(recipe seed); seed 0 is the tier-1 battery
                  fixture.  Many small batches at n = 3..5 (Lambda^2 up to
                  10 x 10), where the frame contraction dominates.
    random5-file  examples --random --seed S --dimension 5 writes a spec
                  (about 218 KB), then analyze SPEC --all-p --grid 2 reads it:
                  32 points x 2 values of p at n = 5.  Jets dominate time and
                  memory; the per-p rescans and the spec parse show.  n = 6
                  (2 GB, 10 s per analyze) is too long a pass to calibrate the
                  host around.

Smoke mode shrinks s3-analyze (4^3 grid) and battery (5 structures x 5
points) for the benchmark's own test; random5-file is small already.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

from statcurv import cli, curvature_ops, frames, generators, linalg, metric, stationary, topology
from statcurv.errors import StatcurvError
from statcurv.tolerances import DEFAULT

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
WORK_DIR = Path("bench") / ".work"

# tolerance each stored residual class is gated with in the program and tests
RESIDUAL_TOL = {
    "connection": DEFAULT.pairing,
    "curvature": DEFAULT.oracle,
    "central": DEFAULT.pairing,
    "rotation": DEFAULT.pairing,
    "killing": DEFAULT.identity,
}
VERDICT_FIELDS = ("dimension", "p", "holds_everywhere", "vanishing_betti", "middle_betti", "contradiction", "reason")


@dataclasses.dataclass
class Inputs:
    structures: list  # ready StationaryStructure objects
    points: list  # per-structure sample points (battery only)
    spec_path: str | None
    spec_bytes: int
    grid_points: int


def ready_structure(spec) -> stationary.StationaryStructure:
    """Loaded spec -> unit structure with its flipped metric composed."""
    s = stationary.StationaryStructure.from_spec(spec)
    if not s.unit:
        s = stationary.conformal_normalize(s)
    s.counterpart_spec
    return s


def expression_nodes(structures) -> int:
    """Distinct node objects reachable from g_L, the flipped metric and T."""
    stack = []
    for s in structures:
        stack += [e.root for _, _, e in s.spec.entries]
        stack += [e.root for _, _, e in s.counterpart_spec.entries]
        stack += [e.root for e in s.t]
    seen = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for field in dataclasses.fields(node):
            child = getattr(node, field.name)
            if dataclasses.is_dataclass(child):
                stack.append(child)
    return len(seen)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _margin_close(value: float, ref: float) -> bool:
    return abs(value - ref) <= DEFAULT.identity * max(1.0, abs(ref))


def _verdict_mismatches(got: dict, ref: dict, where: str) -> list[str]:
    bad = [f"{where}: {k} {got[k]!r} != {ref[k]!r}" for k in VERDICT_FIELDS if got[k] != ref[k]]
    if not _margin_close(got["min_margin"], ref["min_margin"]):
        bad.append(f"{where}: min_margin {got['min_margin']!r} != {ref['min_margin']!r}")
    return bad


def _verdict_invariants(v: dict, where: str) -> list[str]:
    """The Betti decision must follow from the reported margin."""
    holds = v["min_margin"] > DEFAULT.positivity
    expected = topology.betti_conclusions(v["dimension"], v["p"], holds)
    got = (v["holds_everywhere"], tuple(v["vanishing_betti"]), v["middle_betti"], v["contradiction"], v["reason"])
    want = (expected.holds_everywhere, expected.vanishing, expected.middle_betti, expected.contradiction, expected.reason)
    return [] if got == want else [f"{where}: verdict {got} does not follow from margin {v['min_margin']!r}"]


class Refused(Exception):
    """The CLI stopped at a numerical invariant (exit 3) and gave no answer."""


class Workload:
    name = ""
    seed_free = False  # True when the inputs do not depend on the seed
    refusals = (StatcurvError, Refused)  # loud failures that return no number

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke

    def cleanup(self) -> None:
        """Remove files that setup wrote."""


class CliAnalyze(Workload):
    """Shared record and checks of the two CLI workloads."""

    def operations(self, inputs: Inputs):
        argv = ["analyze", inputs.spec_path, "--all-p", "--grid", str(self.grid), "--format", "json"]
        yield "analyze", lambda: run_cli(argv)

    def record(self, raw) -> dict:
        code, text = raw
        if code == cli.EXIT_NUMERICAL:
            raise Refused(f"exit {code}: numerical invariant failure")
        rec = {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest(), "bytes": len(text.encode())}
        payload = json.loads(text)
        keep = VERDICT_FIELDS + ("min_margin", "max_identity_residual")
        rec["results"] = [{k: r[k] for k in keep} for r in payload["results"]]
        rec["strongest"] = {k: payload["strongest"][k] for k in keep}
        return rec

    def invariants(self, rec: dict) -> list[str]:
        bad = []
        n = rec["strongest"]["dimension"]
        if [r["p"] for r in rec["results"]] != list(topology.admissible_p(n)):
            bad.append("results do not cover every admissible p")
        for r in rec["results"] + [rec["strongest"]]:
            bad += _verdict_invariants(r, f"p={r['p']}")
            if not r["max_identity_residual"] <= RESIDUAL_TOL["central"]:
                bad.append(f"p={r['p']}: central identity residual {r['max_identity_residual']!r}")
        expected_exit = cli.EXIT_OK if rec["strongest"]["holds_everywhere"] else cli.EXIT_NEGATIVE
        if rec["exit"] != expected_exit:
            bad.append(f"exit code {rec['exit']} for this verdict, expected {expected_exit}")
        return bad

    def mismatches(self, rec: dict, ref: dict) -> list[str]:
        bad = [] if rec["exit"] == ref["exit"] else [f"exit {rec['exit']} != {ref['exit']}"]
        if len(rec["results"]) != len(ref["results"]):
            return bad + ["number of results differs"]
        for got, want in zip(rec["results"] + [rec["strongest"]], ref["results"] + [ref["strongest"]]):
            where = f"p={want['p']}"
            bad += _verdict_mismatches(got, want, where)
            if abs(got["max_identity_residual"] - want["max_identity_residual"]) > RESIDUAL_TOL["central"]:
                bad.append(f"{where}: max_identity_residual {got['max_identity_residual']!r}")
        return bad


class S3Analyze(CliAnalyze):
    name = "s3-analyze"
    seed_free = True

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.grid = 4 if smoke else 10

    def setup(self) -> Inputs:
        path = "specs/s3.spec"
        s = ready_structure(metric.load_spec_file(path))
        return Inputs([s], [], path, os.path.getsize(path), self.grid**s.dimension)


class RandomFile(CliAnalyze):
    name = "random5-file"

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.dimension = 5
        self.grid = 2
        self.path = WORK_DIR / f"random_seed{seed}_n{self.dimension}.spec"

    def setup(self) -> Inputs:
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        path = str(self.path)
        argv = ["examples", "--random", "--seed", str(self.seed), "--dimension", str(self.dimension), "--out", path]
        code, _ = run_cli(argv)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"statcurv {' '.join(argv)} exited {code}")
        s = ready_structure(metric.load_spec_file(path))
        return Inputs([s], [], path, os.path.getsize(path), self.grid**s.dimension)

    def cleanup(self) -> None:
        self.path.unlink(missing_ok=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


def sample_interior(spec, count: int, seed: int) -> np.ndarray:
    """Uniform chart-interior points, drawn exactly as the tier-1 battery draws them."""
    rng = np.random.default_rng(seed)
    lo = np.array([iv[0] for iv in spec.intervals]) + spec.margin
    hi = np.array([iv[1] for iv in spec.intervals]) - spec.margin
    return lo + (hi - lo) * rng.random((count, len(spec.coords)))


class Battery(Workload):
    name = "battery"

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.count, self.per_structure = (5, 5) if smoke else (100, 50)

    def recipe_seeds(self) -> list[int]:
        # battery_recipe cycles dimension (mod 3), family (mod 2) and flat
        # dimensions (mod 4); a stride of 300 = 12 * 25 gives structure i the
        # same kind for every seed, so seeds change values but not the mix
        return [300 * self.seed + i for i in range(self.count)]

    def setup(self) -> Inputs:
        structures, points = [], []
        for rs in self.recipe_seeds():
            s = generators.generate(generators.battery_recipe(rs))
            s.counterpart_spec
            structures.append(s)
            points.append(sample_interior(s.spec, self.per_structure, rs))
        return Inputs(structures, points, None, 0, self.count * self.per_structure)

    def operations(self, inputs: Inputs):
        for rs, s, pts in zip(self.recipe_seeds(), inputs.structures, inputs.points):
            yield f"structure-{rs}", lambda s=s, pts=pts: self.analyze_structure(s, pts)

    @staticmethod
    def analyze_structure(s, pts):
        data = stationary.structure_data(s, pts)
        adapted = frames.adapted_frames_batch(s, data)
        stack = np.stack([f.vectors for f in adapted])
        conn = stationary.connection_residual_batch(data, stack)
        curv = stationary.curvature_residual_batch(data, stack)
        killing = stationary.killing_defect_batch(s, pts)
        ops = curvature_ops.operators_from_data(s, data, adapted)
        sym = np.stack([op.symmetrized.entries for op in ops])
        sym = 0.5 * (sym + sym.swapaxes(1, 2))
        vals, _ = linalg.jacobi_eigh(sym)
        sums = np.cumsum(vals, axis=1)
        n = s.dimension
        verdicts = []
        for p in topology.admissible_p(n):
            margin = float(sums[:, n - p - 1].min()) + 0.0
            verdicts.append((p, margin, topology.betti_conclusions(n, p, margin > DEFAULT.positivity)))
        return n, adapted, conn, curv, killing, ops, sym, verdicts

    def record(self, raw) -> dict:
        n, adapted, conn, curv, killing, ops, sym, verdicts = raw
        oracle = np.cumsum(np.linalg.eigvalsh(sym), axis=1)
        return {
            "dimension": n,
            "pairs": sum(len(f.pairing) for f in adapted),
            "holds": [v.holds_everywhere for _, _, v in verdicts],
            "margins": [margin for _, margin, _ in verdicts],
            "central": max(op.central_residual for op in ops),
            "checks": {
                # LAPACK eigenvalues: an oracle independent of the Jacobi solver
                "oracle_margins": [float(oracle[:, n - p - 1].min()) for p, _, _ in verdicts],
                "connection": float(conn.max()),
                "curvature": float(curv.max()),
                "killing": float(killing.max()),
                "rotation": max(f.rotation_residual for f in adapted),
            },
        }

    def invariants(self, rec: dict) -> list[str]:
        checks = dict(rec["checks"], central=rec["central"])
        bad = [
            f"{cls} residual {checks[cls]!r} above {tol}"
            for cls, tol in RESIDUAL_TOL.items()
            if not checks[cls] <= tol
        ]
        for p, margin, oracle in zip(topology.admissible_p(rec["dimension"]), rec["margins"], checks["oracle_margins"]):
            if not _margin_close(margin, oracle):
                bad.append(f"p={p}: margin {margin!r} vs eigvalsh {oracle!r}")
        return bad

    def mismatches(self, rec: dict, ref: dict) -> list[str]:
        bad = [f"{k} {rec[k]!r} != {ref[k]!r}" for k in ("dimension", "pairs", "holds") if rec[k] != ref[k]]
        if len(rec["margins"]) != len(ref["margins"]):
            return bad + ["number of margins differs"]
        for p, got, want in zip(topology.admissible_p(rec["dimension"]), rec["margins"], ref["margins"]):
            if not _margin_close(got, want):
                bad.append(f"p={p}: min_margin {got!r} != {want!r}")
        if abs(rec["central"] - ref["central"]) > RESIDUAL_TOL["central"]:
            bad.append(f"central residual {rec['central']!r} != {ref['central']!r}")
        return bad


WORKLOADS = {w.name: w for w in (S3Analyze, Battery, RandomFile)}


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_references(workload) -> list | None:
    """Stored per-operation references for this workload, mode and seed, if any."""
    path = reference_path(workload.name)
    if not path.is_file():
        return None
    table = json.loads(path.read_text())["smoke" if workload.smoke else "full"]
    return table.get("*" if workload.seed_free else str(workload.seed))
