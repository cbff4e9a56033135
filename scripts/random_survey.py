#!/usr/bin/env python3
"""Survey seeded random stationary structures: identities, pairs, margins.

Usage: python scripts/random_survey.py [count] [grid]
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from statcurv.curvature_ops import operators_from_data
from statcurv.frames import adapted_frames_batch
from statcurv.generators import battery_recipe, generate
from statcurv.stationary import (
    connection_residual_batch,
    curvature_residual_batch,
    structure_data,
)
from statcurv.topology import grid_scan


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    grid = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    rng = np.random.default_rng(0)
    print(f"{'seed':>4} {'n':>2} {'family':<18} {'pairs':>5} {'conn':>9} {'curv':>9} {'central':>9} {'margin(p=1)':>12} verdict")
    for seed in range(count):
        recipe = battery_recipe(seed)
        structure = generate(recipe)
        lo = np.array([iv[0] for iv in structure.spec.intervals]) + structure.spec.margin
        hi = np.array([iv[1] for iv in structure.spec.intervals]) - structure.spec.margin
        pts = lo + (hi - lo) * rng.random((25, structure.dimension))
        data = structure_data(structure, pts)
        frames = adapted_frames_batch(structure, data)
        conn = float(connection_residual_batch(data, frames.vectors).max())
        curv = float(curvature_residual_batch(data, frames.vectors).max())
        ops = operators_from_data(structure, data, frames)
        central = float(ops.central.max())
        result = grid_scan(structure, grid, 1)
        verdict = (
            "b" + ",b".join(str(i) for i in result.verdict.vanishing) + "=0"
            if result.verdict.holds_everywhere
            else "none"
        )
        pairs = int(frames.pair_count.max())
        print(
            f"{seed:>4} {structure.dimension:>2} {recipe.family:<18} {pairs:>5} "
            f"{conn:>9.2e} {curv:>9.2e} {central:>9.2e} {result.min_margin:>12.6f} {verdict}"
        )


if __name__ == "__main__":
    main()
