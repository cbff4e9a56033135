"""Command-line interface: verify, analyze, export, examples.

Exit codes: 0 success (a conclusive verdict counts), 1 the analysis ran but
positivity failed so no conclusion follows, 2 input error (files, formats,
arguments), 3 numerical invariant failure or running out of memory.

All reports are deterministic: fixed-width text with stable ordering, JSON
with sorted keys and repr floats, grid points enumerated in row-major order.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

import numpy as np

from . import topology
from .curvature_ops import operators_at
from .errors import ExprSyntaxError, SpecFormatError, StatcurvError, UnknownIdentifierError
from .generators import FAMILIES, GeneratorRecipe, generate, write_example_specs
from .linalg import eigvalsh
from .metric import MetricSpec, load_spec_file
from .stationary import StationaryStructure, conformal_normalize
from .tolerances import DEFAULT, Tolerances

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

_INPUT_ERRORS = (SpecFormatError, ExprSyntaxError, UnknownIdentifierError, OSError, ValueError)


def ascii_int(text: str) -> int:
    """An integer written as ASCII digits with an optional minus sign, nothing else."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"expected an integer of ASCII digits, found '{text}'")
    return int(text)


def _parse_grid(text: str, dimension: int, minimum: int) -> list[int]:
    sizes = [ascii_int(p.strip()) for p in text.split(",")]
    if len(sizes) == 1:
        sizes = sizes * dimension
    if len(sizes) != dimension:
        raise ValueError(f"--grid needs 1 or {dimension} sizes, got {len(sizes)}")
    if any(m < minimum for m in sizes):
        raise ValueError(f"grid sizes must be >= {minimum} per coordinate")
    return sizes


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _nested(encoded: str) -> str:
    """JSON text from ``json.dumps(..., indent=2)`` as it reads one level deeper.

    JSON text holds no raw newline, so each one is a line break of the layout.
    """
    return encoded.replace("\n", "\n  ")


def _json_array(items: list[str]) -> str:
    """``json.dumps(values, indent=2)`` of the values encoded as ``items``, at least one."""
    return "[\n  " + ",\n  ".join(map(_nested, items)) + "\n]"


def _json_object(fields: dict[str, str]) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` of an object with ``fields``' keys,
    whose values encode as the texts ``fields`` maps them to."""
    lines = (f"{json.dumps(key)}: {_nested(text)}" for key, text in sorted(fields.items()))
    return "{\n  " + ",\n  ".join(lines) + "\n}"


_NOT_UNIT = (
    "notice: T is not declared unit; analyzing the conformally normalized "
    "metric g_L / (-g_L(T,T)) (curvature changes under rescaling)"
)


def _normalized(structure: StationaryStructure, notes: list[str]) -> StationaryStructure:
    if structure.unit:
        return structure
    notes.append(_NOT_UNIT)
    return conformal_normalize(structure)


def _betti_text(verdict: topology.BettiVerdict) -> str:
    if verdict.contradiction:
        return f"contradiction: {verdict.reason}"
    if not verdict.holds_everywhere:
        return "no conclusion"
    parts = "=".join(f"b{i}" for i in verdict.vanishing) + "=0"
    if verdict.middle_betti is not None:
        parts += f", b{verdict.dimension // 2}={verdict.middle_betti}"
    return parts


# --- verify -------------------------------------------------------------------

def cmd_verify(args, spec: MetricSpec, grid: list[int], tol: Tolerances) -> int:
    structure = StationaryStructure.from_spec(spec)
    pts, shape = topology.build_grid(spec, grid)
    notes = [] if structure.unit else [_NOT_UNIT]
    table = topology.verify_points(structure, pts, tol)
    lines = [f"statcurv verify: {args.spec}"]
    lines += notes
    lines.append(f"grid: {'x'.join(str(m) for m in shape)}")
    ok = True
    rows = []
    for idx, (name, tol_field) in enumerate(topology.VERIFY_LINES):
        bound = getattr(tol, tol_field)
        worst = float(table[:, idx].max())
        passed = worst <= bound
        ok = ok and passed
        status = "PASS" if passed else "FAIL"
        # passing residuals are rounding noise: report the first near-maximal point
        at = [float(x) for x in pts[topology.near_argmin(-table[:, idx], tol.identity * bound)]]
        rows.append(
            {
                "identity": name.split()[0] + "_" + name.split()[-1],
                "max_residual": worst,
                "tolerance": bound,
                "argmax_point": at,
                "status": status,
            }
        )
        lines.append(
            f"{name:<30} max residual {worst:.3e}  tol {bound:.1e}  {status}"
            + ("" if passed else f"  at {at}")
        )
    lines.append("all identities verified" if ok else "VERIFICATION FAILED")
    if args.fmt == "json":
        payload = {
            "schema_version": 1,
            "command": "verify",
            "grid": list(shape),
            "identities": rows,
            "passed": ok,
            "notes": notes,
        }
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok else EXIT_NUMERICAL


# --- analyze ------------------------------------------------------------------

def _strongest(results: list[topology.GridScanResult]) -> int:
    """Index of the strongest result."""
    # contradictions are conclusive; otherwise the largest vanishing set wins
    verdicts = [r.verdict for r in results]
    contradictions = [i for i, v in enumerate(verdicts) if v.contradiction]
    if contradictions:
        return contradictions[-1]
    conclusive = [i for i, v in enumerate(verdicts) if v.holds_everywhere]
    if conclusive:
        return max(conclusive, key=lambda i: (len(verdicts[i].vanishing), verdicts[i].p))
    return 0


def cmd_analyze(args, spec: MetricSpec, grid: list[int], tol: Tolerances) -> int:
    notes: list[str] = []
    structure = _normalized(StationaryStructure.from_spec(spec), notes)
    ps = list(topology.admissible_p(structure.dimension)) if args.all_p else [args.p]
    results = topology.grid_scans(structure, grid, ps, tol)
    best = _strongest(results)
    strongest = results[best]

    if args.fmt == "json":
        # each verdict is encoded once and spliced under "results" and
        # "strongest"; the bytes are json.dumps(payload, sort_keys=True, indent=2)
        verdicts = [json.dumps(topology.verdict_json_dict(r), sort_keys=True, indent=2) for r in results]
        fields = {
            "schema_version": json.dumps(1),
            "command": json.dumps("analyze"),
            "spec": json.dumps(args.spec),
            "notes": json.dumps(notes, indent=2),
            "results": _json_array(verdicts),
            "strongest": verdicts[best],
        }
        _emit(_json_object(fields) + "\n", args.out)
    else:
        lines = [f"statcurv analyze: {args.spec}"]
        lines += notes
        for r in results:
            v = r.verdict
            k = v.dimension - v.p
            lines.append(
                f"p={v.p} (k={k}): "
                + (
                    f"{k}-positive everywhere (margin {r.min_margin:.6f} at "
                    f"{[round(x, 6) for x in r.argmin_point]}); {_betti_text(v)}"
                    if v.holds_everywhere
                    else f"not {k}-positive (margin {r.min_margin:.6f}); no conclusion"
                )
            )
        if args.all_p:
            lines.append(f"strongest verdict: p={strongest.verdict.p}: {_betti_text(strongest.verdict)}")
        quantiles = topology.margin_quantiles(strongest)
        lines.append(
            "eigenvalue summary over the grid (min/q1/median/q3/max):"
        )
        for name, values in quantiles.items():
            lines.append(f"  {name:<21} " + "  ".join(f"{v: .6f}" for v in values))
        lines.append(
            f"max central-identity residual: {max(r.max_identity_residual for r in results):.3e}"
        )
        lines.append("note: grid verdicts are evidence, not proof, of pointwise positivity")
        _emit("\n".join(lines) + "\n", args.out)
    conclusive = strongest.verdict.holds_everywhere
    return EXIT_OK if conclusive else EXIT_NEGATIVE


# --- export -------------------------------------------------------------------

def _encode_around_point(record: dict) -> tuple[str, str]:
    """``record``'s sorted-key JSON line, split where its ``"point"`` key goes.

    ``head + json.dumps(point) + tail`` equals
    ``json.dumps({**record, "point": point}, sort_keys=True) + "\n"`` when
    ``record`` has keys on both sides of ``"point"``, so each orbit's record
    is encoded once, whatever the number of grid points it covers.
    """
    head = json.dumps({k: v for k, v in record.items() if k < "point"}, sort_keys=True)
    tail = json.dumps({k: v for k, v in record.items() if k > "point"}, sort_keys=True)
    return head[:-1] + ', "point": ', ", " + tail[1:] + "\n"


def cmd_export(args, spec: MetricSpec, grid: list[int], tol: Tolerances) -> int:
    notes: list[str] = []
    structure = _normalized(StationaryStructure.from_spec(spec), notes)
    pts, _ = topology.build_grid(structure.spec, grid)

    def records(chunk):
        """The chunk's JSON lines (C,) as the text before and after each point's ``"point"``."""
        ops = operators_at(structure, chunk, tol)
        frames = ops.frames
        # + 0.0 folds -0.0 into 0.0, as the riemannian and lorentzian
        # matrices are folded
        m_s = ops.m_s + 0.0
        vals = eigvalsh(m_s)
        asymmetry = np.abs(ops.m_l - ops.m_l.swapaxes(1, 2)).max(axis=(1, 2))
        labels = [list(pair) for pair in ops.basis.labels()]
        rows = [
            {
                "schema_version": 1,
                "basis": labels,
                "f_values": frames.f[b, : frames.pair_count[b]].tolist(),
                "riemannian": ops.m_r[b].tolist(),
                "lorentzian": ops.m_l[b].tolist(),
                "symmetrized": m_s[b].tolist(),
                "eigenvalues": vals[b].tolist(),
                "lorentzian_asymmetry": float(asymmetry[b]),
                "central_residual": float(ops.central[b]),
            }
            for b in range(len(ops))
        ]
        heads, tails = zip(*map(_encode_around_point, rows)) if rows else ((), ())
        return np.array(heads, dtype=object), np.array(tails, dtype=object)

    # every chunk is built before anything is written, so a failure emits
    # nothing but its reason, on the first line of stderr as in analyze and verify
    heads, tails = topology.chunked(structure, pts, records)
    for note in notes:
        sys.stderr.write(note + "\n")
    lines = (head + json.dumps(point) + tail for head, tail, point in zip(heads, tails, pts.tolist()))
    _emit("".join(lines), args.out)
    return EXIT_OK


# --- examples -----------------------------------------------------------------

def cmd_examples(args) -> int:
    if args.random:
        if args.seed is None:
            raise ValueError("--random requires --seed")
        recipe = GeneratorRecipe(
            seed=args.seed,
            dimension=args.dimension,
            family=args.family,
            flat_dims=args.flat_dims,
        )
        structure = generate(recipe)
        text = structure.spec.to_text()
        out = args.out or f"random_seed{args.seed}.spec"
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        sys.stdout.write(out + "\n")
        return EXIT_OK
    paths = write_example_specs(args.dir)
    for path in paths:
        sys.stdout.write(str(path) + "\n")
    return EXIT_OK


# --- entry point --------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="statcurv",
        description="Curvature operators and Betti obstructions for stationary Lorentzian metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid_default="8"):
        p.add_argument("spec", help="metric spec file")
        p.add_argument("--grid", default=grid_default, help="points per coordinate (int or comma list)")
        p.add_argument("--tol-scale", type=float, default=1.0, help="scale all tolerances")
        p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")

    common(sub.add_parser("verify", help="verify the connection/curvature identities on a grid"))
    pa = sub.add_parser("analyze", help="positivity scan and Betti verdict")
    common(pa)
    group = pa.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=ascii_int, default=None, help="test (n-p)-positivity")
    group.add_argument("--all-p", action="store_true", help="scan every admissible p")
    pe = sub.add_parser("export", help="per-point matrices, eigenvalues, f-values as JSON lines")
    common(pe)
    px = sub.add_parser("examples", help="write example spec files")
    px.add_argument("--dir", default="specs", help="directory for the shipped examples")
    px.add_argument("--random", action="store_true", help="generate a random structure instead")
    px.add_argument("--seed", type=ascii_int, default=None)
    px.add_argument("--dimension", type=ascii_int, default=3)
    px.add_argument("--family", choices=FAMILIES, default="warped-rotational")
    px.add_argument("--flat-dims", type=ascii_int, default=0)
    px.add_argument("--out", default=None, help="output path for the random spec")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "examples":
            return cmd_examples(args)
        spec = load_spec_file(args.spec)
        tol = DEFAULT.scaled(args.tol_scale)
        grid = _parse_grid(args.grid, spec.dimension, 0 if args.command == "export" else 2)
        command = {"verify": cmd_verify, "analyze": cmd_analyze, "export": cmd_export}[args.command]
        return command(args, spec, grid, tol)
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except StatcurvError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except MemoryError:
        # uncaught, Python would exit 1, which reads as "positivity failed"
        sys.stderr.write("resource failure: out of memory\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
