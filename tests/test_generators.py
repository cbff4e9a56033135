"""Seeded example generation: determinism, Killing by construction, families."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from statcurv.generators import (
    FAMILIES,
    FLAT_TORUS_SPEC_TEXT,
    S3_SPEC_TEXT,
    GeneratorRecipe,
    battery_recipe,
    generate,
    write_example_specs,
)
from statcurv.expr import eval_jet_batch
from statcurv.metric import load_spec, metric_batch
from statcurv.stationary import killing_defect_batch, structure_data

from conftest import SPEC_DIR, sample_interior


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        for recipe in (GeneratorRecipe(12), GeneratorRecipe(5, 5, "product-with-flat", flat_dims=2)):
            first = generate(recipe).spec.to_text()
            second = generate(recipe).spec.to_text()
            assert first == second

    def test_different_seeds_differ(self):
        assert generate(GeneratorRecipe(1)).spec.to_text() != generate(GeneratorRecipe(2)).spec.to_text()

    def test_generated_spec_reloads(self):
        structure = generate(GeneratorRecipe(3, 4))
        reloaded = load_spec(structure.spec.to_text())
        assert reloaded == structure.spec


class TestFamilies:
    def test_squash_one_is_the_shipped_sphere(self, s3):
        structure = generate(GeneratorRecipe(0, family="s3-squashed", squash=1.0, normalize=False))
        assert structure.spec.coords == s3.spec.coords
        assert structure.spec.intervals == s3.spec.intervals
        pts = sample_interior(s3.spec, 25, seed=1)
        ours, _, _, _ = metric_batch(structure.spec, pts)
        shipped, _, _, _ = metric_batch(s3.spec, pts)
        assert np.abs(ours - shipped).max() < 1e-12
        assert [e.unparse() for e in structure.t] == ["0", "1", "1"]

    def test_squashed_sphere_needs_normalization(self):
        raw = generate(GeneratorRecipe(0, family="s3-squashed", squash=1.4, normalize=False))
        pts = sample_interior(raw.spec, 20, seed=2)
        data = structure_data(raw, pts)
        assert np.abs(data.gtt + 1.0).max() > 1e-3  # genuinely non-unit
        normalized = generate(GeneratorRecipe(0, family="s3-squashed", squash=1.4))
        data2 = structure_data(normalized, pts)
        assert np.abs(data2.gtt + 1.0).max() < 1e-10

    def test_product_with_zero_flat_dims_reduces(self):
        a = generate(GeneratorRecipe(8, 4, "warped-rotational"))
        b = generate(GeneratorRecipe(8, 4, "product-with-flat", flat_dims=0))
        assert a.spec.to_text() == b.spec.to_text()

    def test_flat_dims_appear_as_flat_block(self):
        structure = generate(GeneratorRecipe(4, 5, "product-with-flat", flat_dims=2, normalize=False))
        assert structure.spec.coords[-2:] == ("x1", "x2")
        pts = sample_interior(structure.spec, 5, seed=3)
        g, _, dg, _ = metric_batch(structure.spec, pts)
        assert np.abs(dg[:, :, 3:, 3:]).max() == 0.0  # flat block is constant

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            generate(GeneratorRecipe(0, family="spherical-harmonics"))

    def test_no_rotational_directions_rejected(self):
        with pytest.raises(ValueError, match="rotational"):
            generate(GeneratorRecipe(0, 3, "product-with-flat", flat_dims=2))


class TestGeneratedStructures:
    @pytest.mark.parametrize("seed", range(6))
    def test_killing_and_timelike(self, seed):
        structure = generate(battery_recipe(seed))
        pts = sample_interior(structure.spec, 25, seed + 300)
        assert killing_defect_batch(structure, pts).max() < 1e-10
        data = structure_data(structure, pts)
        assert np.all(data.gtt < 0)
        assert np.abs(data.gtt + 1.0).max() < 1e-10  # battery recipes normalize

    def test_battery_covers_dimensions(self):
        dims = {generate(battery_recipe(seed)).dimension for seed in range(9)}
        assert dims == {3, 4, 5}

    def test_hundred_seeds_are_killing(self, battery):
        assert len(battery) == 100
        assert max(entry.killing_defect for entry in battery) < 1e-10


class TestShippedFiles:
    def test_constants_match_files_on_disk(self):
        assert (SPEC_DIR / "s3.spec").read_bytes().decode() == S3_SPEC_TEXT
        assert (SPEC_DIR / "flat_torus.spec").read_bytes().decode() == FLAT_TORUS_SPEC_TEXT

    def test_write_example_specs(self, tmp_path):
        paths = write_example_specs(tmp_path)
        assert sorted(p.name for p in paths) == ["flat_torus.spec", "s3.spec"]
        spec = load_spec((tmp_path / "s3.spec").read_bytes())
        assert spec.dimension == 3

    def test_shipped_s3_matches_paper_display(self):
        spec = load_spec(S3_SPEC_TEXT)
        entries = {(i, j): e.unparse() for i, j, e in spec.entries}
        assert entries[(1, 1)] == "sin(t)^2*(1-2*sin(t)^2)"
        assert entries[(1, 2)] == "-2*sin(t)^2*cos(t)^2"
        assert entries[(2, 2)] == "cos(t)^2*(1-2*cos(t)^2)"


@st.composite
def recipes(draw):
    """A recipe of any family, dimension and number of flat directions."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    family = draw(st.sampled_from(FAMILIES))
    if family == "s3-squashed":
        return GeneratorRecipe(seed, 3, family, squash=draw(st.floats(min_value=0.5, max_value=1.5)))
    dimension = draw(st.integers(min_value=3, max_value=8))
    flat = draw(st.integers(min_value=0, max_value=dimension - 2)) if family == "product-with-flat" else 0
    return GeneratorRecipe(seed, dimension, family, flat_dims=flat)


@given(recipes())
def test_text_round_trip_keeps_jet_bytes(recipe):
    # a generated structure shares subtrees through composition, its reload
    # through the parser's node table; the jets must not see the difference
    structure = generate(recipe)
    reloaded = load_spec(structure.spec.to_text())
    pts = sample_interior(structure.spec, 3, recipe.seed)
    generated = [e for _, _, e in structure.spec.entries] + list(structure.t)
    loaded = [e for _, _, e in reloaded.entries] + list(reloaded.killing.components)
    assert len(loaded) == len(generated)
    want = eval_jet_batch(generated, pts)
    got = eval_jet_batch(loaded, pts)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
