"""Store reference outputs for the benchmark's correctness gate.

    python3 bench/make_reference.py --workload battery --seeds 0-31 [--smoke]

Run it only on a commit whose outputs are trusted (the references in
``bench/reference/`` come from the commit that added the benchmark).  It
runs each operation once, stores ``null`` (and exits 1) for an operation that
raises or fails the invariant checks, and merges the records into
``bench/reference/<workload>.json`` under ``full`` or ``smoke`` and the seed
(``*`` for a workload whose inputs ignore the seed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    from workloads import WORKLOADS, reference_path

    cls = WORKLOADS[args.workload]
    path = reference_path(cls.name)
    table = json.loads(path.read_text()) if path.is_file() else {"full": {}, "smoke": {}}
    section = table["smoke" if args.smoke else "full"]
    defects = 0
    for seed in [0] if cls.seed_free else parse_seeds(args.seeds):
        workload = cls(seed, args.smoke)
        try:
            inputs = workload.setup()
            records = []
            for run_id, op in workload.operations(inputs):
                try:
                    rec = workload.record(op())
                    problems = workload.invariants(rec)
                except workload.refusals as exc:
                    problems = [f"raised {type(exc).__name__}: {exc}"]
                if problems:
                    # no trusted values: the benchmark counts this operation as
                    # failed while it raises, and checks invariants once it runs
                    sys.stderr.write(f"seed {seed} {run_id}: {problems}; no reference stored\n")
                    defects += 1
                    records.append(None)
                    continue
                rec.pop("checks", None)  # values only the invariant checks use
                records.append(rec)
        finally:
            workload.cleanup()
        section["*" if cls.seed_free else str(seed)] = records
        print(f"{cls.name} seed {seed}: {len(records)} records", flush=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(table, sort_keys=True, separators=(",", ":")) + "\n")
    return 1 if defects else 0


if __name__ == "__main__":
    sys.exit(main())
