"""Single-point entry points are [0] views of the batched pipeline.

At sampled battery points, each single-point function must return exactly
the bytes of the matching row of one batched computation over all points.
"""

import numpy as np
import pytest

from statcurv import stationary
from statcurv.curvature_ops import (
    compute_point_operators,
    lorentzian_curvature_operator,
    operators_from_data,
    riemannian_curvature_operator,
    symmetrized_matrix,
)
from statcurv.frames import (
    _completions,
    adapted_frame,
    adapted_frames_batch,
    orthonormal_completion,
)
from statcurv.generators import battery_recipe, generate
from statcurv.metric import RiemannTensor, frame_components, frame_components_batch
from statcurv.stationary import (
    _nabla_t_frames,
    nabla_t_matrix,
    riemannian_counterpart,
    structure_data,
)
from statcurv.tolerances import DEFAULT

from conftest import sample_interior


# battery_recipe cycles the dimension with the seed: n = 3, 4 and 5 are all covered
@pytest.fixture(scope="module", params=[0, 1, 2, 7, 11])
def batch(request):
    structure = generate(battery_recipe(request.param))
    pts = sample_interior(structure.spec, 6, request.param)
    data = structure_data(structure, pts)
    frames = adapted_frames_batch(structure, data)
    return structure, pts, data, frames


def test_point_operators_are_rows(batch):
    structure, _, data, frames = batch
    ops = operators_from_data(structure, data, frames)
    for frame, op in zip(frames, ops):
        riem = riemannian_curvature_operator(structure, frame)
        lor = lorentzian_curvature_operator(structure, frame)
        assert np.array_equal(riem.entries, op.riemannian.entries)
        assert np.array_equal(lor.entries, op.lorentzian.entries)


def test_symmetrized_matrix_is_row(batch):
    structure, _, data, frames = batch
    ops = operators_from_data(structure, data, frames)
    rml = frame_components_batch(data.rm_l, np.stack([f.vectors for f in frames]))
    for b, (frame, op) in enumerate(zip(frames, ops)):
        assert np.array_equal(symmetrized_matrix(rml[b], frame).entries, op.symmetrized.entries)


def test_point_operator_builds_one_riemann_tensor(batch, monkeypatch):
    structure, _, _, frames = batch
    calls = []
    real = stationary.riemann_batch

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stationary, "riemann_batch", counted)
    riemannian_curvature_operator(structure, frames[0])
    assert len(calls) == 1


def test_adapted_frame_and_point_operators_are_rows(batch):
    structure, pts, data, frames = batch
    ops = operators_from_data(structure, data, frames)
    for point, frame, op in zip(pts, frames, ops):
        assert np.array_equal(adapted_frame(structure, point).vectors, frame.vectors)
        alone = compute_point_operators(structure, point)
        assert np.array_equal(alone.symmetrized.entries, op.symmetrized.entries)
        assert alone.frame.pairing == frame.pairing


def test_nabla_t_matrix_is_row(batch):
    structure, _, data, frames = batch
    rows = _nabla_t_frames(data.cov_t_l, np.stack([f.vectors for f in frames]))
    for frame, row in zip(frames, rows):
        assert np.array_equal(nabla_t_matrix(structure, frame), row)


def test_riemannian_counterpart_is_row(batch):
    structure, pts, data, _ = batch
    for point, row in zip(pts, data.g):
        assert np.array_equal(riemannian_counterpart(structure, point), row)


def test_frame_components_is_row(batch):
    _, pts, data, frames = batch
    stack = np.stack([f.vectors for f in frames])
    rows = frame_components_batch(data.rm_l, stack)
    for b, point in enumerate(pts):
        tensor = RiemannTensor(point, "coordinate", data.rm_l[b])
        assert np.array_equal(frame_components(tensor, stack[b]).comps, rows[b])


def test_orthonormal_completion_is_row(batch):
    structure, pts, data, _ = batch
    rows = _completions(data, DEFAULT)
    for b, point in enumerate(pts):
        frame = orthonormal_completion(structure, point)
        assert np.array_equal(frame.vectors, rows[b])
        assert frame.timelike_norm == float(data.gtt[b])
