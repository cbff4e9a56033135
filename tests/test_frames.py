"""Orthonormal completion and the adapted rotation-block frames."""

import math
from dataclasses import replace

import numpy as np
import pytest

from statcurv.errors import EigenstructureError, FrameError
from statcurv.frames import (
    FramePair,
    _cluster_starts,
    _pair_clusters,
    adapted_frames_batch,
    check_nonpositive,
    check_orthonormal,
    checked_completions,
    orthonormal_completion,
    orthonormal_completions,
)
from statcurv.generators import battery_recipe, generate
from statcurv.linalg import jacobi_eigh
from statcurv.metric import load_spec
from statcurv.stationary import (
    StationaryStructure,
    conformal_normalize,
    nabla_t_form,
    structure_data,
)
from statcurv.tolerances import DEFAULT
from statcurv.topology import build_grid

from conftest import sample_interior
from structures import s3_times_torus, two_pair_flat_rotations


def frame_gram(structure, point, frame):
    """E g_L E^T of a frame (n, n) at ``point``."""
    return frame @ structure_data(structure, point).gl[0] @ frame.T


def adapted_at(s, point):
    """The adapted frame at one point: row 0 of a (1, n) batch."""
    return adapted_frames_batch(s, structure_data(s, [point]))[0]


class TestCompletion:
    def test_s3_reproduces_hopf_frame(self, s3):
        t = 0.8
        frame = orthonormal_completion(s3, [t, 1.0, 2.0])
        assert np.array_equal(frame[0], [0.0, 1.0, 1.0])
        assert np.abs(frame[1] - [1.0, 0.0, 0.0]).max() < 1e-14
        x2 = np.array([0.0, 1.0 / math.tan(t), -math.tan(t)])
        assert min(np.abs(frame[2] - x2).max(), np.abs(frame[2] + x2).max()) < 1e-12

    def test_flat_torus_axes(self, flat_torus):
        frame = orthonormal_completion(flat_torus, [1.0, 2.0, 3.0])
        assert np.array_equal(frame, np.eye(3))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_gram_is_minkowski(self, seed):
        structure = generate(battery_recipe(seed))
        for point in sample_interior(structure.spec, 4, seed + 80):
            gram = frame_gram(structure, point, orthonormal_completion(structure, point))
            expected = np.diag([-1.0] + [1.0] * (structure.dimension - 1))
            assert np.abs(gram - expected).max() < 1e-9

    def test_non_unit_rejected_by_default(self):
        # a completion keeps T at its own length; the gate every command
        # passes refuses the same data for a T that is not unit
        raw = generate(replace(battery_recipe(0), normalize=False))
        pts = sample_interior(raw.spec, 3, 0)
        data = structure_data(raw, pts)
        frames = orthonormal_completions(data, DEFAULT)
        for point, frame, gtt in zip(pts, frames, data.gtt):
            gram = frame_gram(raw, point, frame)
            assert abs(gram[0, 0] - gtt) < 1e-9 and abs(gtt + 1.0) > 0.1
            assert np.abs(gram[1:, 1:] - np.eye(raw.dimension - 1)).max() < 1e-9
            assert np.abs(gram[0, 1:]).max() < 1e-9
        with pytest.raises(FrameError, match=r"T is not unit at this point: g_L\(T,T\) = "):
            checked_completions(data, DEFAULT)

    def test_completion_claims_no_structure(self, s3):
        # a completion is the bare (n, n) array: no pairing, kernel or residual
        point = [0.5, 1.0, 2.0]
        frame = orthonormal_completion(s3, point)
        assert type(frame) is np.ndarray and frame.shape == (3, 3)
        assert frame.tobytes() == orthonormal_completions(structure_data(s3, [point]), DEFAULT)[0].tobytes()


class TestAdaptedFrame:
    def test_s3_single_pair(self, s3):
        frame = adapted_at(s3, [0.7, 1.0, 2.0])
        assert len(frame.pairing) == 1
        pair = frame.pairing[0]
        assert (pair.i, pair.j) == (1, 2)
        assert pair.f == pytest.approx(-1.0, abs=1e-12)
        assert frame.fixed_indices == ()
        assert frame.nabla_sq_eigenvalues == pytest.approx([-1.0, -1.0, 0.0], abs=1e-12)
        assert frame.rotation_residual < 1e-12

    def test_flat_torus_parallel_fallback(self, flat_torus):
        frame = adapted_at(flat_torus, [1.0, 2.0, 3.0])
        assert frame.pairing == ()
        assert frame.fixed_indices == (1, 2)
        assert frame.rotation_residual == 0.0
        assert frame.nabla_sq_eigenvalues == (0.0, 0.0, 0.0)

    def test_s3_times_torus_block_structure(self):
        structure = s3_times_torus()
        frame = adapted_at(structure, [0.6, 1.0, 2.0, 3.0, 4.0])
        assert len(frame.pairing) == 1
        assert frame.pairing[0].f == pytest.approx(-1.0, abs=1e-10)
        assert frame.fixed_indices == (3, 4)
        # block eigenstructure of the product: (-1, -1, 0, 0) plus T's zero
        assert frame.nabla_sq_eigenvalues == pytest.approx([-1, -1, 0, 0, 0], abs=1e-10)

    def test_two_pair_example(self):
        structure = two_pair_flat_rotations()
        frame = adapted_at(structure, [1.0, 0.5, 0.7, 0.9, 0.4])
        assert len(frame.pairing) == 2
        assert frame.fixed_indices == ()
        # pairs ordered by |f| descending at indices (1,2), (3,4)
        assert [(p.i, p.j) for p in frame.pairing] == [(1, 2), (3, 4)]
        assert abs(frame.pairing[0].f) > abs(frame.pairing[1].f)
        assert all(p.f < 0 for p in frame.pairing)

    def test_pair_count_bound(self):
        for seed in range(8):
            structure = generate(battery_recipe(seed))
            point = sample_interior(structure.spec, 1, seed)[0]
            frame = adapted_at(structure, point)
            assert len(frame.pairing) <= (structure.dimension - 1) // 2

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_invariants(self, seed):
        structure = generate(battery_recipe(seed))
        pts = sample_interior(structure.spec, 6, seed + 90)
        data = structure_data(structure, pts)
        frames = adapted_frames_batch(structure, data)
        for b, frame in enumerate(frames):
            assert max(frame.nabla_sq_eigenvalues) <= 1e-9
            assert frame.rotation_residual < 1e-7
            gram = frame.vectors @ data.gl[b] @ frame.vectors.T
            expected = np.diag([-1.0] + [1.0] * (structure.dimension - 1))
            assert np.abs(gram - expected).max() < 1e-9
            # nab_v T = -nab^L_v T for spatial v (the flip reverses it)
            x = frame.vectors[1:]
            img_l = np.einsum("ki,ai->ak", data.cov_t_l[b], x)
            img_g = np.einsum("ki,ai->ak", data.cov_t_g[b], x)
            assert np.abs(img_l + img_g).max() < 1e-9

    def test_deterministic(self, s3):
        a = adapted_at(s3, [0.8, 1.0, 2.0])
        b = adapted_at(s3, [0.8, 1.0, 2.0])
        assert np.array_equal(a.vectors, b.vectors)
        assert a.pairing == b.pairing

    def test_odd_eigenspace_aborts(self, s3, monkeypatch):
        # clustering that splits a true eigenspace leaves an odd block; the
        # construction must refuse rather than emit a broken pairing
        import statcurv.frames as frames_mod

        def bad_split(vals, tol):
            kernel = np.ones(vals.shape, dtype=bool)
            kernel[:, 0] = False  # one cluster [0], the rest kernel
            return kernel, ~kernel

        monkeypatch.setattr(frames_mod, "_cluster_starts", bad_split)
        with pytest.raises(EigenstructureError, match="odd-dimensional"):
            adapted_at(s3, [0.7, 1.0, 2.0])

    def test_non_killing_field_rejected(self):
        # T = d_t + x d_y on the flat torus is not Killing; after conformal
        # normalization the squared map loses self-adjointness / gains
        # positive eigenvalues, which must abort rather than mis-report
        text = (
            "[chart]\ncoords = t, x, y\nt = 0, 6.28\nx = -0.45, 0.45\ny = 0, 6.28\n"
            'margin = 0.001\n[metric]\ng_0_0 = "-1"\ng_1_1 = "1"\ng_2_2 = "1"\n'
            "[signature]\nkind = lorentzian\n"
            '[killing]\nT_0 = "1"\nT_1 = "0"\nT_2 = "x"\nunit = false\n'
        )
        broken = conformal_normalize(StationaryStructure.from_spec(load_spec(text)))
        with pytest.raises((EigenstructureError, FrameError)):
            adapted_at(broken, [1.0, 0.3, 1.0])


class TestOrthonormalityContract:
    def test_scaled_adapted_rows_are_refused(self, s3, monkeypatch):
        # the solved components of nab T are the same in E and in cE, so only
        # the orthonormality check on the adapted rows sees the scale
        import statcurv.frames as frames_mod

        real = frames_mod._adapt

        def scaled(*args):
            rows, *rest = real(*args)
            return (rows * (1.0 + 1e-6), *rest)

        monkeypatch.setattr(frames_mod, "_adapt", scaled)
        with pytest.raises(FrameError, match="orthonormality"):
            adapted_at(s3, [0.7, 1.0, 2.0])

    def test_check_names_the_first_failing_frame(self, flat_torus):
        data = structure_data(flat_torus, np.tile([1.0, 2.0, 3.0], (3, 1)))
        frames = np.tile(np.eye(3), (3, 1, 1))
        check_orthonormal(frames, data, DEFAULT)
        frames[1, 2] *= 1.0 + 1e-8
        frames[2, 1] *= 1.0 + 1e-6
        with pytest.raises(FrameError, match="orthonormality") as err:
            check_orthonormal(frames, data, DEFAULT)
        # row 1's own residual, 2 x 1e-8 on its X_2 diagonal, not row 2's 2e-6
        assert float(str(err.value).split("residual ")[1].rstrip(")")) == pytest.approx(2e-8, rel=1e-6)


class TestEigenSplitting:
    def test_small_rotation_is_paired(self):
        # |f| = 2.7e-6: above the |f| cut tol.pairing, while f^2 = 7e-12 lies
        # below eigen_nonpositive; the kernel cut on f^2 must be tol.pairing^2
        structure = generate(battery_recipe(120))
        point = sample_interior(structure.spec, 50, 120)[25]
        frame = adapted_at(structure, point)
        assert len(frame.pairing) == 1
        assert abs(frame.pairing[0].f) == pytest.approx(2.68e-6, rel=1e-2)
        assert frame.rotation_residual <= DEFAULT.pairing

    def test_positive_eigenvalue_error(self):
        with pytest.raises(EigenstructureError, match="positive eigenvalue"):
            check_nonpositive(np.array([[-1.0, 0.5]]), DEFAULT)

    def test_small_positive_folded_into_kernel(self):
        kernel, starts = _cluster_starts(np.array([[-1.0, 1e-12]]), DEFAULT)
        assert kernel.tolist() == [[False, True]]
        assert starts.tolist() == [[True, False]]

    def test_clustering_merges_close_values(self):
        vals = np.array([-2.0 - 1e-9, -2.0, -1.0, 0.0])
        kernel, starts = _cluster_starts(vals[None], DEFAULT)
        assert kernel.tolist() == [[False, False, False, True]]
        assert starts.tolist() == [[True, False, True, False]]  # clusters {0, 1} and {2}

    def test_odd_eigenspace_detected(self, s3):
        # synthetic spatial map whose square has a 1-dimensional eigenspace
        vals = np.array([-1.0, -0.25, 0.0])
        kernel, starts = _cluster_starts(vals[None], DEFAULT)
        assert starts.tolist() == [[True, True, False]]  # two clusters of one
        assert kernel.tolist() == [[False, False, True]]

    def test_pairing_spans_four_dimensional_eigenspace(self):
        # two rotation blocks with equal speed: one 4-dimensional eigenspace
        f = 0.75
        spatial = np.zeros((4, 4))
        spatial[1, 0], spatial[0, 1] = f, -f
        spatial[3, 2], spatial[2, 3] = f, -f
        vecs = np.eye(4)
        kernel = np.zeros((1, 4), dtype=bool)
        starts = np.array([[True, False, False, False]])
        v, w, f_values, count = _pair_clusters(vecs[None], spatial[None], kernel, starts)
        assert count.tolist() == [2]
        basis = np.concatenate([v[0], w[0]])
        gram = basis @ basis.T
        assert np.abs(gram - np.eye(4)).max() < 1e-12
        assert f_values[0] == pytest.approx([-f, -f])


# --- per-point reference ------------------------------------------------------
# The single-point construction the batched pass replaced, kept as the
# reference (its error checks become asserts): the batched pass does the same
# arithmetic in the same order, so every frame must agree with it byte for
# byte.


def _reference_complete(g, t_vec):
    n = t_vec.size
    basis = [np.asarray(t_vec, dtype=float)]
    norms = [float(basis[0] @ g @ basis[0])]
    for axis in range(n):
        if len(basis) == n:
            break
        cand = np.zeros(n)
        cand[axis] = 1.0
        for vec, nrm in zip(basis, norms):
            cand = cand - (float(cand @ g @ vec) / nrm) * vec
        norm_sq = float(cand @ g @ cand)
        if norm_sq <= 1e-24 * float(g[axis, axis]):
            continue
        cand /= np.sqrt(norm_sq)
        basis.append(cand)
        norms.append(1.0)
    assert len(basis) == n
    return np.array(basis)


def _pair_cluster(vecs, spatial_nabla):
    dim = vecs.shape[1]
    chosen = []
    pairs = []
    for idx in range(dim):
        if len(chosen) == dim:
            break
        v = vecs[:, idx].copy()
        for c in chosen:
            v -= (c @ v) * c
        nrm = float(np.sqrt(v @ v))
        if nrm < 0.5:
            continue
        v /= nrm
        u = spatial_nabla @ v
        nrm_u = float(np.sqrt(u @ u))
        assert nrm_u != 0.0
        f = -nrm_u
        w = -u / nrm_u
        for c in chosen:
            w -= (c @ w) * c
        w -= (v @ w) * v
        w /= float(np.sqrt(w @ w))
        chosen += [v, w]
        pairs.append((v, w, f))
    assert 2 * len(pairs) == dim
    return pairs


def _reference_split(vals, tol):
    assert not np.any(vals > tol.eigen_error)
    zero_cut = max(tol.pairing**2, tol.cluster_rel * abs(float(vals[0])))
    clusters = []
    kernel = []
    for idx, lam in enumerate(vals):
        if lam >= -zero_cut:
            kernel.append(idx)
        elif clusters and abs(lam - vals[clusters[-1][-1]]) <= tol.cluster_rel * abs(
            vals[clusters[-1][-1]]
        ):
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return clusters, kernel


def _reference_adapt(e, omega, tol):
    n = e.shape[0]
    spatial = omega[1:, 1:].T  # column i: nab^L_{X_i} T along X_1..X_{n-1}
    if float(np.abs(spatial).max(initial=0.0)) <= tol.pairing:
        return e, (), tuple(range(1, n)), tuple([0.0] * n)
    squared = spatial @ spatial
    vals, vecs = jacobi_eigh(0.5 * (squared + squared.T))
    clusters, kernel = _reference_split(vals, tol)
    pairs = []
    for cluster in clusters:
        pairs.extend(_pair_cluster(vecs[:, cluster], spatial))
    pairs.sort(key=lambda p: -abs(p[2]))
    rows = [e[0]]
    pairing = []
    for v, w, f in pairs:
        pairing.append(FramePair(len(rows), len(rows) + 1, float(f)))
        rows.append(v @ e[1:])
        rows.append(w @ e[1:])
    fixed = []
    for idx in kernel:
        fixed.append(len(rows))
        rows.append(vecs[:, idx] @ e[1:])
    eigs = sorted([float(v) for v in vals] + [0.0])
    return np.array(rows), tuple(pairing), tuple(fixed), tuple(eigs)


def _reference_frames(data, tol=DEFAULT):
    """(vectors, pairing, fixed indices, spectrum, rotation residual) per point."""
    completions = np.stack(
        [_reference_complete(g, t) for g, t in zip(data.g, data.t)]
    )
    omega = nabla_t_form(data, completions)
    parts = [_reference_adapt(e, w, tol) for e, w in zip(completions, omega)]
    omega_final = nabla_t_form(data, np.stack([part[0] for part in parts]))
    out = []
    for b, (vectors, pairing, fixed, eigs) in enumerate(parts):
        pattern = np.zeros(vectors.shape)
        for p in pairing:
            pattern[p.i, p.j] = p.f
            pattern[p.j, p.i] = -p.f
        out.append((vectors, pairing, fixed, eigs, float(np.abs(omega_final[b] - pattern).max())))
    return out


def _bits(values):
    return [float(v).hex() for v in values]


def assert_matches_reference(frames, data, label=""):
    reference = _reference_frames(data)
    assert len(frames) == len(reference)
    for b, (frame, (vectors, pairing, fixed, eigs, residual)) in enumerate(zip(frames, reference)):
        where = f"{label} point {b}"
        assert frame.vectors.tobytes() == vectors.tobytes(), where
        assert [(p.i, p.j) for p in frame.pairing] == [(p.i, p.j) for p in pairing], where
        assert _bits(frame.f_values) == _bits(p.f for p in pairing), where
        assert frame.fixed_indices == fixed, where
        assert _bits(frame.nabla_sq_eigenvalues) == _bits(eigs), where
        assert _bits([frame.rotation_residual]) == _bits([residual]), where


def _flat_five_torus():
    text = (
        "[chart]\ncoords = t, a, b, c, d\n"
        + "".join(f"{x} = 0, 6.28\n" for x in "tabcd")
        + "margin = 0.001\n[metric]\n"
        + 'g_0_0 = "-1"\n'
        + "".join(f'g_{i}_{i} = "1"\n' for i in range(1, 5))
        + "[signature]\nkind = lorentzian\n[killing]\n"
        + 'T_0 = "1"\n'
        + "".join(f'T_{i} = "0"\n' for i in range(1, 5))
        + "unit = true\n"
    )
    return StationaryStructure.from_spec(load_spec(text))


def _synthetic(spatial_maps):
    """Flat 5-torus data whose nab^L T has the given spatial blocks (B, 4, 4).

    The completion of the flat torus is the identity frame, so each map is
    exactly the spatial block the adapted construction sees.
    """
    structure = _flat_five_torus()
    pts = np.tile([1.0, 1.0, 2.0, 3.0, 4.0], (len(spatial_maps), 1))
    data = structure_data(structure, pts)
    cov = np.zeros((len(spatial_maps), 5, 5))
    cov[:, 1:, 1:] = spatial_maps
    return structure, replace(data, cov_t_l=cov)


def _two_blocks(fa, fb, seed):
    blocks = np.zeros((4, 4))
    blocks[1, 0], blocks[0, 1] = fa, -fa
    blocks[3, 2], blocks[2, 3] = fb, -fb
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(4, 4)))
    return q @ blocks @ q.T


class TestBatchedFramesMatchPerPoint:
    def test_s3(self, s3):
        pts, _ = build_grid(s3.spec, 6)
        data = structure_data(s3, pts)
        assert_matches_reference(adapted_frames_batch(s3, data), data, "s3")

    def test_flat_torus(self, flat_torus):
        data = structure_data(flat_torus, sample_interior(flat_torus.spec, 5, 1))
        frames = adapted_frames_batch(flat_torus, data)
        assert all(f.fixed_indices == (1, 2) for f in frames)  # the parallel-T fallback
        assert_matches_reference(frames, data, "flat torus")

    @pytest.mark.parametrize("make", [two_pair_flat_rotations, s3_times_torus])
    def test_generator_examples(self, make):
        structure = make()
        data = structure_data(structure, sample_interior(structure.spec, 12, 3))
        assert_matches_reference(adapted_frames_batch(structure, data), data, make.__name__)

    def test_battery(self):
        for seed in range(100):
            structure = generate(battery_recipe(seed))
            data = structure_data(structure, sample_interior(structure.spec, 8, seed))
            assert_matches_reference(adapted_frames_batch(structure, data), data, f"seed {seed}")

    def test_four_dimensional_eigenspace_beside_generic_rows(self):
        # row 1 has one 4-dimensional eigenspace, so its second eigenvector
        # is projected off the first pair; its neighbours (two distinct
        # blocks, parallel T) must not notice, and every row must equal the
        # same row built alone
        maps = np.stack([_two_blocks(0.9, 0.4, 0), _two_blocks(0.75, 0.75, 1), np.zeros((4, 4))])
        structure, data = _synthetic(maps)
        frames = adapted_frames_batch(structure, data)
        assert_matches_reference(frames, data, "synthetic")
        assert [len(f.pairing) for f in frames] == [2, 2, 0]
        assert frames[1].f_values == pytest.approx([-0.75, -0.75])
        for b in range(len(maps)):
            alone = adapted_frames_batch(*_synthetic(maps[b : b + 1]))[0]
            assert alone.vectors.tobytes() == frames[b].vectors.tobytes()
            assert alone.pairing == frames[b].pairing
            assert _bits(alone.nabla_sq_eigenvalues) == _bits(frames[b].nabla_sq_eigenvalues)
            assert _bits([alone.rotation_residual]) == _bits([frames[b].rotation_residual])


class TestBatchedErrors:
    def test_positive_eigenvalue_names_its_own_point(self):
        # the first failing row's largest eigenvalue, never the batch-wide one
        vals = np.array([[-1.0, -1.0], [-1.0, 5e-6], [-1.0, 0.25]])
        with pytest.raises(EigenstructureError, match=r"positive eigenvalue 5e-06 of"):
            check_nonpositive(vals, DEFAULT)

    def test_batch_reports_first_failing_point(self):
        # symmetric spatial maps square to positive eigenvalues: 1e-4 at row 1
        # and 1.0 at row 2; row 0 is a valid rotation
        maps = np.stack([_two_blocks(0.9, 0.4, 0), np.diag([0.01] * 4), np.eye(4)])
        with pytest.raises(EigenstructureError) as batch_error:
            adapted_frames_batch(*_synthetic(maps))
        with pytest.raises(EigenstructureError) as alone_error:
            adapted_frames_batch(*_synthetic(maps[1:2]))
        assert str(batch_error.value) == str(alone_error.value)
        assert "positive eigenvalue 0.0001" in str(batch_error.value)
