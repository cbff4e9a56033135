"""Byte-identity guard: CLI report bytes against recorded digests.

``golden_outputs.json`` holds the exit code, byte count and SHA-256 of every
``analyze`` (text and JSON, ``--all-p`` and each ``--p``), ``export`` and
``verify`` report on the shipped specs, on two seeded random specs and on
the rotating warped plane of ``structures``, over small grids.  The plane is
the one spec whose T is not unit and reads coordinates, so ``verify`` checks
its identities at T's own length and its frames and operators on the
conformal normalization.  Each report is checked on stdout; ``--out`` writes the same
bytes, which is checked on every case whose spec is cheap to evaluate and on
one case per command for the n = 5 spec.

Only an intended, documented output change may rewrite the digests:

    PYTHONPATH=src python tests/test_golden.py

The stdout of the walkthrough ``scripts/reproduce_hopf_example.py`` is
pinned here as well, by ``WALKTHROUGH_SHA256``, and so is the spec text
that ``examples --random`` and ``MetricSpec.to_text`` write, by
``RANDOM_SPEC_SHA256`` and ``BATTERY_SPEC_SHA256``.
"""

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from statcurv import cli
from statcurv.generators import battery_recipe, generate

from structures import rotating_warped_plane

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_outputs.json"

# id -> (path the CLI is given, source, dimension, grid); the source is None
# for a shipped spec, `examples --random` args, or a function returning the text
SPECS = {
    "s3": ("specs/s3.spec", None, 3, "4"),
    "torus": ("specs/flat_torus.spec", None, 3, "3"),
    "r4": ("random_seed5_n4.spec", ["--seed", "5", "--dimension", "4"], 4, "3"),
    "r5": ("random_seed0_n5.spec", ["--seed", "0", "--dimension", "5"], 5, "3"),
    "plane": ("plane.spec", lambda: rotating_warped_plane().spec.to_text(), 3, "4"),
}
# n = 5 reports take seconds each; --out is checked once per command there
OUT_CHECKED_R5 = {"r5-analyze-all-json", "r5-export", "r5-verify-text"}


def cases() -> dict[str, list[str]]:
    out = {}
    for sid, (path, _, n, grid) in SPECS.items():
        for fmt in ("text", "json"):
            out[f"{sid}-verify-{fmt}"] = ["verify", path, "--grid", grid, "--format", fmt]
        out[f"{sid}-export"] = ["export", path, "--grid", grid]
        for fmt in ("text", "json"):
            tail = ["--grid", grid, "--format", fmt]
            out[f"{sid}-analyze-all-{fmt}"] = ["analyze", path, "--all-p", *tail]
            for p in range(1, n // 2 + 1):
                out[f"{sid}-analyze-p{p}-{fmt}"] = ["analyze", path, "--p", str(p), *tail]
    return out


def make_workdir(root: Path) -> None:
    """Shipped specs under specs/, random specs written by `examples --random`,
    the others as their functions write them."""
    (root / "specs").mkdir()
    for path, source, _, _ in SPECS.values():
        if source is None:
            shutil.copy(HERE.parent / path, root / path)
        elif callable(source):
            (root / path).write_text(source(), encoding="utf-8")
        else:
            run_cli(["examples", "--random", *source, "--out", str(root / path)])


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def digest(code: int, text: str) -> dict:
    data = text.encode("utf-8")
    return {"exit": code, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


CASES = cases()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    make_workdir(root)
    return root


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_bytes(case, workdir, golden, monkeypatch):
    monkeypatch.chdir(workdir)
    assert digest(*run_cli(CASES[case])) == golden[case]


@pytest.mark.parametrize(
    "case", sorted(c for c in CASES if not c.startswith("r5-") or c in OUT_CHECKED_R5)
)
def test_out_file_bytes(case, workdir, golden, monkeypatch):
    monkeypatch.chdir(workdir)
    code, stdout = run_cli([*CASES[case], "--out", "report.out"])
    assert stdout == ""
    text = (workdir / "report.out").read_text(encoding="utf-8")
    assert digest(code, text) == golden[case]


WALKTHROUGH = HERE.parent / "scripts" / "reproduce_hopf_example.py"
WALKTHROUGH_SHA256 = "66ced293bf39355d12fc7c6bd200dbc11132ccf0d08f5ad8030a961231ab2d58"


def test_walkthrough_script_bytes():
    # the script puts src/ on its own path; warnings are errors, as in CI
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(WALKTHROUGH)],
        capture_output=True,
        check=True,
    )
    assert run.stderr == b""
    assert hashlib.sha256(run.stdout).hexdigest() == WALKTHROUGH_SHA256


# The spec text statcurv writes, pinned: dimension -> (bytes, SHA-256) of
# `examples --random --seed 3 --dimension n`, and seed -> the same for
# `generate(battery_recipe(seed)).spec.to_text()`.  The regeneration above
# does not touch these; an intended change to the writer rewrites them here.
RANDOM_SPEC_SHA256 = {
    3: (16148, "adb37f0706ea35f24852d929c09424af9bdf3a82118da5a9021dfdbee83e0444"),
    4: (69180, "3a70166d48a9ea3ee061c584393bb32224800d89806bf9b2a2cfb7d1511de6b5"),
    5: (217436, "50abbb0963be07d675ae47f1d981984cc68b189d181ec5fd6511378dda89c4a3"),
    6: (564408, "0f6e548ef13bd5a560636cc506c37399f44794b4dd4c5194450145f9e413357d"),
    7: (1251558, "fd35279eb480a826d4e03da87cb64573b586ea1e6a5a861cbefdb5d68d265ce7"),
    8: (2489876, "e4d4c914cba95c7d28f20ec9cc1bd23132b45bc99f384d3f43e0afdaedd2e4c7"),
}
BATTERY_SPEC_SHA256 = {
    0: (16062, "ebe0fa78243d104ebdab3758acc3ccbc7d880e758ec92352b822573ed797c986"),
    1: (19455, "c455673c0beedfc3dbeb2865965a574a305ca277fc162b7f3850665d0c2be5cb"),
    2: (22958, "6b4db109ca9ecc766e3f8f983958e4c41500f963cd2ca8d6bc8ddfd1422f14f9"),
    5: (216798, "5df0bc8ba35d7aff9f10b9414db90c9f39baa8b58924085cea02677d01fdf554"),
    7: (19753, "02adeef80c7cc224b25ff1a688762a9e88bfcc96333ef43a4ce07fe8ee8471e1"),
    11: (220346, "f029ff8a111817be4367c1734a141a9a0d4329916fdf91c8678957a813f85555"),
}


def _size_and_sha256(data: bytes) -> tuple[int, str]:
    return len(data), hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("dimension", sorted(RANDOM_SPEC_SHA256))
def test_random_spec_file_bytes(dimension, tmp_path):
    path = tmp_path / "random.spec"
    args = ["examples", "--random", "--seed", "3", "--dimension", str(dimension)]
    assert run_cli([*args, "--out", str(path)]) == (0, f"{path}\n")
    assert _size_and_sha256(path.read_bytes()) == RANDOM_SPEC_SHA256[dimension]


@pytest.mark.parametrize("seed", sorted(BATTERY_SPEC_SHA256))
def test_battery_spec_text_bytes(seed):
    text = generate(battery_recipe(seed)).spec.to_text()
    assert _size_and_sha256(text.encode("utf-8")) == BATTERY_SPEC_SHA256[seed]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        make_workdir(Path(tmp))
        os.chdir(tmp)
        table = {case: digest(*run_cli(argv)) for case, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(table)} digests to {GOLDEN}\n")
