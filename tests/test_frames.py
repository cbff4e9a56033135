"""Orthonormal completion and the adapted rotation-block frames."""

import math
from dataclasses import replace

import numpy as np
import pytest

from statcurv.errors import EigenstructureError, FrameError
from statcurv.frames import (
    _pair_cluster,
    _split_eigenvalues,
    adapted_frame,
    adapted_frames_batch,
    orthonormal_completion,
)
from statcurv.generators import battery_recipe, generate, s3_times_torus, two_pair_flat_rotations
from statcurv.metric import load_spec
from statcurv.stationary import StationaryStructure, conformal_normalize, structure_data
from statcurv.tolerances import DEFAULT

from conftest import sample_interior


def frame_gram(structure, frame):
    data = structure_data(structure, frame.point)
    return frame.vectors @ data.gl[0] @ frame.vectors.T


class TestCompletion:
    def test_s3_reproduces_hopf_frame(self, s3):
        t = 0.8
        frame = orthonormal_completion(s3, [t, 1.0, 2.0])
        assert np.array_equal(frame.vectors[0], [0.0, 1.0, 1.0])
        assert np.abs(frame.vectors[1] - [1.0, 0.0, 0.0]).max() < 1e-14
        x2 = np.array([0.0, 1.0 / math.tan(t), -math.tan(t)])
        assert min(
            np.abs(frame.vectors[2] - x2).max(), np.abs(frame.vectors[2] + x2).max()
        ) < 1e-12

    def test_flat_torus_axes(self, flat_torus):
        frame = orthonormal_completion(flat_torus, [1.0, 2.0, 3.0])
        assert np.array_equal(frame.vectors, np.eye(3))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_gram_is_minkowski(self, seed):
        structure = generate(battery_recipe(seed))
        for point in sample_interior(structure.spec, 4, seed + 80):
            frame = orthonormal_completion(structure, point)
            gram = frame_gram(structure, frame)
            expected = np.diag([-1.0] + [1.0] * (structure.dimension - 1))
            assert np.abs(gram - expected).max() < 1e-9

    def test_non_unit_rejected_by_default(self):
        recipe = battery_recipe(0)
        raw = generate(replace(recipe, normalize=False))
        point = sample_interior(raw.spec, 1, 0)[0]
        with pytest.raises(FrameError, match="not unit"):
            orthonormal_completion(raw, point)
        frame = orthonormal_completion(raw, point, require_unit=False)
        gram = frame_gram(raw, frame)
        assert np.abs(gram[1:, 1:] - np.eye(raw.dimension - 1)).max() < 1e-9
        assert np.abs(gram[0, 1:]).max() < 1e-9

    def test_completion_claims_no_structure(self, s3):
        frame = orthonormal_completion(s3, [0.5, 1.0, 2.0])
        assert frame.pairing == ()
        assert frame.fixed_indices == ()
        assert not frame.is_adapted


class TestAdaptedFrame:
    def test_s3_single_pair(self, s3):
        frame = adapted_frame(s3, [0.7, 1.0, 2.0])
        assert len(frame.pairing) == 1
        pair = frame.pairing[0]
        assert (pair.i, pair.j) == (1, 2)
        assert pair.f == pytest.approx(-1.0, abs=1e-12)
        assert frame.fixed_indices == ()
        assert frame.nabla_sq_eigenvalues == pytest.approx([-1.0, -1.0, 0.0], abs=1e-12)
        assert frame.rotation_residual < 1e-12

    def test_flat_torus_parallel_fallback(self, flat_torus):
        frame = adapted_frame(flat_torus, [1.0, 2.0, 3.0])
        assert frame.pairing == ()
        assert frame.fixed_indices == (1, 2)
        assert frame.is_adapted
        assert frame.nabla_sq_eigenvalues == (0.0, 0.0, 0.0)

    def test_s3_times_torus_block_structure(self):
        structure = s3_times_torus()
        frame = adapted_frame(structure, [0.6, 1.0, 2.0, 3.0, 4.0])
        assert len(frame.pairing) == 1
        assert frame.pairing[0].f == pytest.approx(-1.0, abs=1e-10)
        assert frame.fixed_indices == (3, 4)
        # block eigenstructure of the product: (-1, -1, 0, 0) plus T's zero
        assert frame.nabla_sq_eigenvalues == pytest.approx([-1, -1, 0, 0, 0], abs=1e-10)

    def test_two_pair_example(self):
        structure = two_pair_flat_rotations()
        frame = adapted_frame(structure, [1.0, 0.5, 0.7, 0.9, 0.4])
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
            frame = adapted_frame(structure, point)
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
        a = adapted_frame(s3, [0.8, 1.0, 2.0])
        b = adapted_frame(s3, [0.8, 1.0, 2.0])
        assert np.array_equal(a.vectors, b.vectors)
        assert a.pairing == b.pairing

    def test_odd_eigenspace_aborts(self, s3, monkeypatch):
        # clustering that splits a true eigenspace leaves an odd block; the
        # construction must refuse rather than emit a broken pairing
        import statcurv.frames as frames_mod

        def bad_split(vals, tol):
            return [[0]], list(range(1, len(vals)))

        monkeypatch.setattr(frames_mod, "_split_eigenvalues", bad_split)
        with pytest.raises(EigenstructureError, match="odd-dimensional"):
            adapted_frame(s3, [0.7, 1.0, 2.0])

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
            adapted_frame(broken, [1.0, 0.3, 1.0])


class TestEigenSplitting:
    def test_small_rotation_is_paired(self):
        # |f| = 2.7e-6: above the |f| cut tol.pairing, while f^2 = 7e-12 lies
        # below eigen_nonpositive; the kernel cut on f^2 must be tol.pairing^2
        structure = generate(battery_recipe(120))
        point = sample_interior(structure.spec, 50, 120)[25]
        frame = adapted_frame(structure, point)
        assert len(frame.pairing) == 1
        assert abs(frame.pairing[0].f) == pytest.approx(2.68e-6, rel=1e-2)
        assert frame.rotation_residual <= DEFAULT.pairing

    def test_positive_eigenvalue_error(self):
        with pytest.raises(EigenstructureError, match="positive eigenvalue"):
            _split_eigenvalues(np.array([-1.0, 0.5]), DEFAULT)

    def test_small_positive_folded_into_kernel(self):
        clusters, kernel = _split_eigenvalues(np.array([-1.0, 1e-12]), DEFAULT)
        assert clusters == [[0]]
        assert kernel == [1]

    def test_clustering_merges_close_values(self):
        vals = np.array([-2.0 - 1e-9, -2.0, -1.0, 0.0])
        clusters, kernel = _split_eigenvalues(vals, DEFAULT)
        assert clusters == [[0, 1], [2]]
        assert kernel == [3]

    def test_odd_eigenspace_detected(self, s3):
        # synthetic spatial map whose square has a 1-dimensional eigenspace
        vals = np.array([-1.0, -0.25, 0.0])
        clusters, _ = _split_eigenvalues(vals, DEFAULT)
        assert [len(c) for c in clusters] == [1, 1]

    def test_pairing_spans_four_dimensional_eigenspace(self):
        # two rotation blocks with equal speed: one 4-dimensional eigenspace
        f = 0.75
        spatial = np.zeros((4, 4))
        spatial[1, 0], spatial[0, 1] = f, -f
        spatial[3, 2], spatial[2, 3] = f, -f
        vecs = np.eye(4)
        pairs = _pair_cluster(vecs, spatial)
        assert len(pairs) == 2
        basis = np.array([v for pair in pairs for v in pair[:2]])
        gram = basis @ basis.T
        assert np.abs(gram - np.eye(4)).max() < 1e-12
        assert all(p[2] == pytest.approx(-f) for p in pairs)
