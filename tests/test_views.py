"""A single point is a (1, n) batch, and each row of a batch is a view.

At sampled battery points, a batch of one point must give exactly the bytes
of the matching row of one batched computation over all points, and each row
of a batch reads its fields from the batch arrays.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from statcurv import curvature_ops, stationary
from statcurv.curvature_ops import (
    CurvatureOperatorMatrix,
    Lambda2Basis,
    _operators,
    _symmetrized,
    operators_at,
    operators_from_data,
)
from statcurv.frames import (
    FramePair,
    adapted_frames_batch,
    orthonormal_completion,
    orthonormal_completions,
)
from statcurv.generators import battery_recipe, generate
from statcurv.lambda2 import pair_components
from statcurv.metric import frame_components_batch, riemann_batch
from statcurv.stationary import nabla_t_form, structure_data
from statcurv.tolerances import DEFAULT

from conftest import sample_interior
from oracles import riemann_tensors
from structures import rotating_warped_plane, two_pair_flat_rotations


# battery_recipe cycles the dimension with the seed: n = 3, 4 and 5 are all covered
@pytest.fixture(scope="module", params=[0, 1, 2, 7, 11])
def batch(request):
    structure = generate(battery_recipe(request.param))
    pts = sample_interior(structure.spec, 6, request.param)
    data = structure_data(structure, pts)
    frames = adapted_frames_batch(structure, data)
    return structure, pts, data, frames


def test_point_operators_are_rows(batch):
    structure, pts, data, frames = batch
    ops = operators_from_data(structure, data, frames)
    for point, op in zip(pts, ops):
        alone = operators_at(structure, [point])[0]
        assert np.array_equal(alone.riemannian.entries, op.riemannian.entries)
        assert np.array_equal(alone.lorentzian.entries, op.lorentzian.entries)


def test_symmetrized_matrix_is_row(batch):
    # omega written from each row's pairing, not by frames.rotation_blocks
    structure, _, data, frames = batch
    ops = operators_from_data(structure, data, frames)
    p_l = pair_components(data.rm_l, frames.vectors, ops.basis)
    n = structure.dimension
    for b, (frame, op) in enumerate(zip(frames, ops)):
        omega = np.zeros((1, n, n))
        for p in frame.pairing:
            omega[0, p.i, p.j], omega[0, p.j, p.i] = p.f, -p.f
        entries = _symmetrized(p_l[b : b + 1], omega, ops.basis)[0]
        assert np.array_equal(entries, op.symmetrized.entries)


def test_point_operator_builds_one_riemann_tensor(batch, monkeypatch):
    # the Riemannian operator of one point reads Rm_g alone, so Rm_L stays unbuilt
    structure, pts, data, frames = batch
    calls = []
    real = stationary.riemann_batch

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stationary, "riemann_batch", counted)
    alone = structure_data(structure, pts[:1])
    vectors = frames.vectors[:1]
    basis = Lambda2Basis.standard(structure.dimension)
    riem = _operators(pair_components(alone.rm_g, vectors, basis), -frames.timelike_norm[:1], basis)
    assert len(calls) == 1
    ops = operators_from_data(structure, data, frames)
    assert np.array_equal(riem[0], ops.m_r[0])


def test_adapted_frame_and_point_operators_are_rows(batch):
    structure, pts, data, frames = batch
    ops = operators_from_data(structure, data, frames)
    for point, frame, op in zip(pts, frames, ops):
        single = adapted_frames_batch(structure, structure_data(structure, [point]))[0]
        assert np.array_equal(single.vectors, frame.vectors)
        alone = operators_at(structure, [point])[0]
        assert np.array_equal(alone.symmetrized.entries, op.symmetrized.entries)
        assert alone.frame.pairing == frame.pairing


def test_nabla_t_matrix_is_row(batch):
    structure, pts, data, frames = batch
    rows = nabla_t_form(data, frames.vectors)
    for point, frame, row in zip(pts, frames, rows):
        alone = structure_data(structure, [point])
        assert np.array_equal(nabla_t_form(alone, frame.vectors[None])[0], row)


def test_riemannian_counterpart_is_row(batch):
    structure, pts, data, _ = batch
    for point, row in zip(pts, data.g):
        assert np.array_equal(structure_data(structure, [point]).g[0], row)


@pytest.mark.parametrize("build", [two_pair_flat_rotations, rotating_warped_plane])
def test_structure_data_rows_are_single_point_batches(build):
    # both structures read several coordinates, so the flip's product-rule
    # terms pair derivatives along different coordinates; every field, stored
    # or built on first read, is bitwise the matching row of the batch
    structure = build()
    pts = sample_interior(structure.spec, 6, 5)
    data = structure_data(structure, pts)
    cached = ["dgtt", "cov_t_g", "rm_l", "rm_g", "killing"]
    names = [f.name for f in dataclasses.fields(data)] + cached
    for b in range(len(pts)):
        alone = structure_data(structure, pts[b : b + 1])
        for name in names:
            assert getattr(alone, name)[0].tobytes() == getattr(data, name)[b].tobytes(), (b, name)


def test_frame_components_is_row(batch):
    _, pts, data, frames = batch
    stack = frames.vectors
    rm_l = riemann_tensors(data)[0]
    rows = frame_components_batch(rm_l, stack)
    for b in range(len(pts)):
        alone = frame_components_batch(rm_l[b : b + 1], stack[b : b + 1])[0]
        assert np.array_equal(alone, rows[b])


def test_pair_components_is_row(batch):
    structure, pts, data, frames = batch
    basis = Lambda2Basis.standard(structure.dimension)
    rows = pair_components(data.rm_g, frames.vectors, basis)
    for b in range(len(pts)):
        alone = pair_components(data.rm_g[b : b + 1], frames.vectors[b : b + 1], basis)[0]
        assert np.array_equal(alone, rows[b])


def test_riemann_pairs_are_rows(batch):
    # Rm on coordinate pairs, and its contraction with one compound matrix
    # shared by Rm_L and Rm_g, give row [0] of a one-row call the bytes of
    # the matching row of the batch
    structure, pts, data, frames = batch
    basis = Lambda2Basis.standard(structure.dimension)
    vectors = frames.vectors
    shared = pair_components((data.rm_l, data.rm_g), vectors, basis)
    metrics = (
        (data.gamma_l, data.first_l, data.d2gl, data.rm_l),
        (data.gamma_g, data.first_g, data.d2g, data.rm_g),
    )
    for b in range(len(pts)):
        row = slice(b, b + 1)
        for k, (gamma, first, d2g, rc) in enumerate(metrics):
            alone = riemann_batch(gamma[row], first[row], d2g[row])
            assert alone[0].tobytes() == rc[b].tobytes()
            assert pair_components(alone, vectors[row], basis)[0].tobytes() == shared[k][b].tobytes()


def test_orthonormal_completion_is_row(batch):
    structure, pts, data, _ = batch
    rows = orthonormal_completions(data, DEFAULT)
    for b, point in enumerate(pts):
        assert orthonormal_completion(structure, point).tobytes() == rows[b].tobytes()


FRAME_FIELDS = (
    "point",
    "vectors",
    "pairing",
    "fixed_indices",
    "timelike_norm",
    "rotation_residual",
    "nabla_sq_eigenvalues",
    "dimension",
    "f_values",
)


def _eager_frame(frames, b) -> dict:
    """Every field of row b held by value, by name: the reference a FrameRow matches."""
    k = int(frames.pair_count[b])
    fs = frames.f[b, :k].tolist()
    return {
        "point": frames.points[b],
        "vectors": frames.vectors[b],
        "pairing": tuple(FramePair(2 * t + 1, 2 * t + 2, f) for t, f in enumerate(fs)),
        "fixed_indices": tuple(range(2 * k + 1, frames.vectors.shape[1])),
        "timelike_norm": float(frames.timelike_norm[b]),
        "rotation_residual": float(frames.rotation_residual[b]),
        "nabla_sq_eigenvalues": tuple(frames.nabla_sq_eigenvalues[b].tolist()),
        "dimension": frames.vectors.shape[1],
        "f_values": tuple(fs),
    }


def _assert_same(got, want):
    """Equal in value and in type, down to the tuple items and dataclass fields."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    elif isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    elif dataclasses.is_dataclass(want):
        for field in dataclasses.fields(want):
            _assert_same(getattr(got, field.name), getattr(want, field.name))
    else:
        assert got == want


def test_frame_rows_match_eager_frames(batch):
    _, _, _, frames = batch
    for b, row in enumerate(frames):
        want = _eager_frame(frames, b)
        for name in FRAME_FIELDS:
            _assert_same(getattr(row, name), want[name])
        assert np.shares_memory(row.vectors, frames.vectors)
        assert np.shares_memory(row.point, frames.points)


def test_operator_rows_match_eager_rows(batch):
    structure, _, data, frames = batch
    ops = operators_from_data(structure, data, frames)
    for b, op in enumerate(ops):
        want = _eager_frame(frames, b)
        for name in FRAME_FIELDS:
            _assert_same(getattr(op.frame, name), want[name])
        for flavor, matrices in (("riemannian", ops.m_r), ("lorentzian", ops.m_l), ("symmetrized", ops.m_s)):
            _assert_same(getattr(op, flavor), CurvatureOperatorMatrix(matrices[b], flavor))
            assert np.shares_memory(getattr(op, flavor).entries, matrices)
        _assert_same(op.central_residual, float(ops.central[b]))


def test_rows_index_like_a_sequence(batch):
    structure, _, data, frames = batch
    ops = operators_from_data(structure, data, frames)
    for rows in (frames, ops):
        size = len(rows)
        # islice: a row past the end must end the iteration, not be yielded
        assert [row.b for row in itertools.islice(rows, size + 1)] == list(range(size))
        assert rows[-1].b == size - 1 and rows[-size].b == 0
        assert type(rows[np.int64(1)].b) is int
        for b in (size, -size - 1):
            with pytest.raises(IndexError):
                rows[b]
    assert np.array_equal(frames[-1].vectors, frames.vectors[-1])
    assert np.array_equal(ops[-1].symmetrized.entries, ops.m_s[-1])


def test_only_a_lorentzian_read_builds_m_l(batch, monkeypatch):
    structure, _, data, frames = batch
    ops = operators_from_data(structure, data, frames)
    for op in ops:
        for name in FRAME_FIELDS:
            getattr(op.frame, name)
        op.riemannian, op.symmetrized, op.central_residual
    assert "m_l" not in vars(ops)
    calls = []
    real = curvature_ops._operators
    monkeypatch.setattr(curvature_ops, "_operators", lambda *args: calls.append(1) or real(*args))
    for op in ops:
        op.lorentzian
    assert "m_l" in vars(ops)
    assert len(calls) == 1
