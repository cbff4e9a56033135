#!/usr/bin/env python3
"""Walk through the Hopf 3-sphere example end to end and print every object.

Shows the flipped round metric, the adapted frame with f = -1, all three
curvature operators, and the Betti verdict from the positivity scan.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from statcurv.curvature_ops import operators_at
from statcurv.frames import orthonormal_completions
from statcurv.metric import load_spec_file
from statcurv.stationary import (
    StationaryStructure,
    connection_residual_batch,
    curvature_residual_batch,
    structure_data,
)
from statcurv.tolerances import DEFAULT
from statcurv.topology import grid_scan

SPEC = pathlib.Path(__file__).resolve().parent.parent / "specs" / "s3.spec"


def main():
    np.set_printoptions(precision=6, suppress=True)
    structure = StationaryStructure.from_spec(load_spec_file(SPEC))
    point = [np.pi / 4, 1.0, 2.0]
    print(f"spec: {SPEC.name}, point t = pi/4")

    # one point is a batch of one: every array below has a leading axis of length 1
    data = structure_data(structure, [point])
    print("\nflipped Riemannian metric (the round metric):")
    print(data.g[0])

    frames = orthonormal_completions(data, DEFAULT)
    print("\ncompletion frame rows (T, X1, X2):")
    print(frames[0])

    conn = connection_residual_batch(data, frames)[0]
    curv = curvature_residual_batch(data, frames)[0]
    print(f"\nconnection identity residuals: {tuple(conn.tolist())}")
    print(f"curvature identity residuals:  {tuple(curv.tolist())}")

    ops = operators_at(structure, [point])[0]
    print(f"\nadapted pairing: {ops.frame.pairing}")
    print("Riemannian operator (identity expected):")
    print(ops.riemannian.entries)
    print("Lorentzian operator (diag(-1,-1,7) expected):")
    print(ops.lorentzian.entries)
    print("symmetrized matrix (equals the Riemannian operator):")
    print(ops.symmetrized.entries)
    print(f"central identity residual: {ops.central_residual:.3e}")

    result = grid_scan(structure, 12, 1)
    v = result.verdict
    print(
        f"\n12^3 scan: 2-positive everywhere = {v.holds_everywhere}, "
        f"margin {result.min_margin:.6f}, vanishing Betti {list(v.vanishing)}"
    )


if __name__ == "__main__":
    main()
