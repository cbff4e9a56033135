"""What the benchmark under ``bench/`` needs from the library.

The benchmark patches timing wrappers onto the functions named in
``bench/tracing.SPANS``, found by ``getattr`` on their modules, and its
battery workload calls the batched frame and operator functions directly
and reads their per-point views.  Renaming one of those functions or
changing its call shape would break the benchmark without failing any
other test, so these tests run that surface on the smoke inputs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    """A module of ``bench/`` under a private name, so nothing else on sys.path is shadowed."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it executes
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_span_resolves(tracing):
    for name in tracing.SPANS:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"statcurv.{module_name}")
        assert callable(getattr(module, attr, None)), name


def test_battery_operation_runs_traced(tracing, workloads):
    battery = workloads.Battery(0, smoke=True)
    inputs = battery.setup()
    label, operation = next(iter(battery.operations(inputs)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        raw = operation()
    finally:
        tracer.uninstall()
    rec = battery.record(raw)
    assert battery.invariants(rec) == [], label
    metrics = tracer.layer_metrics()
    assert metrics["curvature_ops.operators_from_data.calls"] == 1
    assert metrics["frames.adapted_frames_batch.calls"] == 1
    # one jet evaluation each for g_L's entries and T's components
    assert metrics["expr.eval_jet_batch.calls"] == 2
    assert metrics["frames.pairs"] == rec["pairs"]
