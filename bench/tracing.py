"""Outside-in layer tracing: timing wrappers patched onto statcurv's public functions.

Each traced function is replaced, in every ``statcurv`` module that binds it
(the defining module and every ``from .x import y`` site), by a wrapper that
records one span: name, start, end, parent span, run id and phase.  Nothing
under ``src/`` changes; ``Tracer.uninstall`` puts the originals back.

Self time of a span is its duration minus the time its direct child spans
cover.  Spans nest strictly because the workloads run on one thread.

Which end-to-end metric each layer should move, and on which workload:

    layer          spans                                   moves            carries the time
    expr           eval_jet_batch                          wall, peak RSS   random5-file
    metric         load_spec_file                          setup_s          random5-file
    metric         metric_fields .. frame_components_batch wall, p90        battery (contraction)
    linalg         gauss_inverse, jacobi_eigh              wall             s3-analyze
    stationary     structure_data, residuals, killing      wall             random5-file (per-p rescans)
    frames         orthonormal_completion, adapted_frames  wall             s3-analyze
    curvature_ops  operators_from_data                     wall             s3-analyze, battery
    topology       scan_points, grid_scan                  wall             random5-file (2 scans)
    generators     generate                                setup_s          battery
    cli            main                                    wall             CLI workloads
"""

from __future__ import annotations

import functools
import math
import sys
import time

import numpy as np

SPANS = (
    "expr.eval_jet_batch",
    "metric.load_spec_file",
    "metric.metric_fields",
    "metric.check_signature",
    "metric.christoffel_batch",
    "metric.riemann_batch",
    "metric.frame_components_batch",
    "linalg.gauss_inverse",
    "linalg.jacobi_eigh",
    "stationary.structure_data",
    "stationary.connection_residual_batch",
    "stationary.curvature_residual_batch",
    "stationary.killing_defect_batch",
    "frames.orthonormal_completion",
    "frames.adapted_frames_batch",
    "curvature_ops.operators_from_data",
    "topology.scan_points",
    "topology.grid_scan",
    "generators.generate",
    "cli.main",
)

# spans that fire while inputs are prepared; reported under "setup."
SETUP_SPANS = ("cli.main", "generators.generate", "metric.load_spec_file")


def _matrices(args, kwargs) -> int:
    return math.prod(np.shape(args[0] if args else kwargs["a"])[:-2])


def _points(args, kwargs) -> int:
    shape = np.shape(args[1] if len(args) > 1 else kwargs["pts"])
    return shape[0] if len(shape) == 2 else 1


def _frame_counts(result) -> dict:
    pairs = sum(len(f.pairing) for f in result)
    # the parallel-T fallback is the only path that returns an all-fixed
    # spatial frame with an exactly zero squared-map spectrum
    fallbacks = sum(
        1
        for f in result
        if not f.pairing
        and f.fixed_indices == tuple(range(1, f.dimension))
        and all(v == 0.0 for v in f.nabla_sq_eigenvalues)
    )
    return {"frames.pairs": pairs, "frames.parallel_t_fallbacks": fallbacks}


COUNTERS = (
    "linalg.gauss_inverse.matrices",
    "linalg.jacobi_eigh.matrices",
    "stationary.structure_data.points",
    "frames.pairs",
    "frames.parallel_t_fallbacks",
)

# counters recorded at span boundaries of the run phase, from args or result
_ARG_COUNTERS = {
    "linalg.gauss_inverse": ("linalg.gauss_inverse.matrices", _matrices),
    "linalg.jacobi_eigh": ("linalg.jacobi_eigh.matrices", _matrices),
    "stationary.structure_data": ("stationary.structure_data.points", _points),
}
_RESULT_COUNTERS = {"frames.adapted_frames_batch": _frame_counts}


class Tracer:
    """Records spans and boundary counters in memory while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, run, phase, raised]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.run = ""
        self.phase = "run"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        arg_counter = _ARG_COUNTERS.get(name)
        result_counter = _RESULT_COUNTERS.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, self.phase, False]
            spans.append(span)
            if arg_counter is not None and self.phase == "run":
                key, count = arg_counter
                counters[key] += count(args, kwargs)
            stack.append(sid)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if result_counter is not None and self.phase == "run":
                for key, value in result_counter(result).items():
                    counters[key] += value
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "statcurv" or key.startswith("statcurv.")]
        for name in SPANS:
            module_name, attr = name.split(".")
            original = getattr(sys.modules[f"statcurv.{module_name}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Per-span calls and self time, split by phase, plus the counters."""
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for name in SETUP_SPANS:
            out[f"setup.{name}.calls"] = 0
            out[f"setup.{name}.self_s"] = 0.0
        for span, own in zip(self.spans, self.self_times()):
            prefix = "" if span[5] == "run" else "setup."
            out[f"{prefix}{span[0]}.calls"] += 1
            out[f"{prefix}{span[0]}.self_s"] += own
        out.update(self.counters)
        for key in ("linalg.gauss_inverse", "linalg.jacobi_eigh"):
            out[f"{key}.matrices_per_call"] = out[f"{key}.matrices"] / max(out[f"{key}.calls"], 1)
        # scan_points re-localizes point by point once a chunk call raises
        scans = {i for i, s in enumerate(self.spans) if s[0] == "topology.scan_points" and s[5] == "run"}
        out["topology.relocalizations"] = len({s[3] for s in self.spans if s[3] in scans and s[6]})
        return out

    def run_self_total(self) -> float:
        return sum(own for span, own in zip(self.spans, self.self_times()) if span[5] == "run")

    def dump(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "run", "phase", "raised")
        return [dict(zip(keys, span)) for span in self.spans]
