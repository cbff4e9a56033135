"""Shared fixtures: shipped examples, point sampling, and the random battery.

The battery (100 seeded structures, 50 sampled points each) backs several
acceptance criteria at once, so it is computed a single time per session and
only scalar summaries are retained.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from statcurv.curvature_ops import operators_from_data
from statcurv.frames import adapted_frames_batch
from statcurv.generators import battery_recipe, generate
from statcurv.metric import christoffel_batch, first_kind, load_spec_file
from statcurv.stationary import (
    StationaryStructure,
    connection_residual_batch,
    curvature_residual_batch,
    killing_defect_batch,
    structure_data,
)

from oracles import fd_metric_derivative, riemann_residuals, riemann_tensors

settings.register_profile(
    "suite", max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def sample_interior(spec, count, seed, buffer=0.0):
    """Deterministic uniform sample of chart-interior points."""
    rng = np.random.default_rng(seed)
    lo = np.array([iv[0] for iv in spec.intervals]) + spec.margin + buffer
    hi = np.array([iv[1] for iv in spec.intervals]) - spec.margin - buffer
    return lo + (hi - lo) * rng.random((count, len(spec.coords)))


@pytest.fixture(scope="session")
def s3():
    return StationaryStructure.from_spec(load_spec_file(SPEC_DIR / "s3.spec"))


@pytest.fixture(scope="session")
def flat_torus():
    return StationaryStructure.from_spec(load_spec_file(SPEC_DIR / "flat_torus.spec"))


@dataclass(frozen=True)
class BatterySummary:
    """Scalar summaries of one generated structure at its 50 sample points."""

    seed: int
    dimension: int
    killing_defect: float
    connection: tuple[float, float, float, float]
    curvature: tuple[float, float, float]
    central_identity: float
    fd_christoffel: float
    rotation_residual: float
    max_eigenvalue: float
    odd_cluster: bool
    pair_count: int
    max_pairs_allowed: int
    riemann_invariants: dict
    ginv_residual: float
    operator_symmetry: float
    unit_residual: float


def summarize_structure(structure: StationaryStructure, seed: int, count: int = 50) -> BatterySummary:
    pts = sample_interior(structure.spec, count, seed)
    data = structure_data(structure, pts)
    frames = adapted_frames_batch(structure, data)
    stack = np.stack([f.vectors for f in frames])
    conn = connection_residual_batch(data, stack).max(axis=0)
    curv = curvature_residual_batch(data, stack).max(axis=0)
    ops = operators_from_data(structure, data, frames)

    # finite-difference Christoffel oracle against the jet-based symbols
    fd_dg = fd_metric_derivative(structure.spec, pts)
    gamma_fd = christoffel_batch(data.gl_inv, first_kind(fd_dg))
    scale = np.maximum(np.abs(data.gamma_l), 1.0)
    fd_err = float((np.abs(gamma_fd - data.gamma_l) / scale).max())

    inv_res = max(
        float(np.abs(data.gl @ data.gl_inv - np.eye(structure.dimension)).max()),
        float(np.abs(data.g @ data.g_inv - np.eye(structure.dimension)).max()),
    )
    rm_l, rm_g = riemann_tensors(data)
    riem_inv = riemann_residuals(rm_l)
    for key, value in riemann_residuals(rm_g).items():
        riem_inv[key] = max(riem_inv[key], value)

    eigs = [v for f in frames for v in f.nabla_sq_eigenvalues]
    odd = False
    for f in frames:
        negatives = [v for v in f.nabla_sq_eigenvalues if v < -1e-9]
        odd = odd or (len(negatives) % 2 == 1)
    return BatterySummary(
        seed=seed,
        dimension=structure.dimension,
        killing_defect=float(killing_defect_batch(structure, pts).max()),
        connection=tuple(float(v) for v in conn),
        curvature=tuple(float(v) for v in curv),
        central_identity=max(op.central_residual for op in ops),
        fd_christoffel=fd_err,
        rotation_residual=max(f.rotation_residual for f in frames),
        max_eigenvalue=max(eigs),
        odd_cluster=odd,
        pair_count=max(len(f.pairing) for f in frames),
        max_pairs_allowed=(structure.dimension - 1) // 2,
        riemann_invariants=riem_inv,
        ginv_residual=inv_res,
        operator_symmetry=max(op.riemannian.asymmetry() for op in ops),
        unit_residual=float(np.abs(data.gtt + 1.0).max()),
    )


@pytest.fixture(scope="session")
def battery():
    return [summarize_structure(generate(battery_recipe(seed)), seed) for seed in range(100)]
