"""Hand-built stationary structures that the generator families cannot produce.

Test-only: nothing under ``src/statcurv`` imports this module.
"""

from __future__ import annotations

from statcurv.expr import Expression, parse_expression
from statcurv.generators import HALF_PI, TWO_PI
from statcurv.metric import KillingField, MetricSpec, load_spec
from statcurv.stationary import StationaryStructure, conformal_normalize, flip_spec


def two_pair_flat_rotations(alpha: float = 1.0, beta: float = 0.6, gamma: float = 1.0) -> StationaryStructure:
    """A 5-dimensional structure whose adapted frame has two rotation blocks.

    Flat Riemannian R^5 with T a translation plus rotations in the (x, y)
    and (u, v) planes; the warped families can only produce one block, so
    this is the example that exercises the off-diagonal f-corrections of
    the symmetrized matrix in dimension >= 5.
    """
    return conformal_normalize(StationaryStructure(flip_spec(two_pair_flat_base(alpha, beta, gamma))))


def two_pair_flat_base(alpha: float, beta: float, gamma: float) -> MetricSpec:
    """The flat Riemannian R^5, with the T that ``two_pair_flat_rotations`` flips."""
    coords = ("t", "x", "y", "u", "v")
    one = Expression.constant(1.0, coords)
    entries = tuple((i, i, one) for i in range(5))
    x, y, u, v = (Expression.coordinate(i, coords) for i in range(1, 5))
    t_exprs = (
        Expression.constant(gamma, coords),
        -alpha * y,
        alpha * x,
        -beta * v,
        beta * u,
    )
    return MetricSpec(
        coords,
        ((0.0, TWO_PI),) + ((0.2, 1.2),) * 4,
        1e-3,
        "riemannian",
        entries,
        KillingField(t_exprs, False),
    )


def s3_times_torus() -> StationaryStructure:
    """The 5-dimensional product of the Hopf 3-sphere with a flat 2-torus."""
    coords = ("t", "theta1", "theta2", "x", "y")
    one = Expression.constant(1.0, coords)
    sin_t = parse_expression("sin(t)", coords)
    cos_t = parse_expression("cos(t)", coords)
    entries = (
        (0, 0, one),
        (1, 1, sin_t * sin_t),
        (2, 2, cos_t * cos_t),
        (3, 3, one),
        (4, 4, one),
    )
    t_exprs = (
        Expression.constant(0.0, coords),
        one,
        one,
        Expression.constant(0.0, coords),
        Expression.constant(0.0, coords),
    )
    riem = MetricSpec(
        coords,
        ((0.0, HALF_PI),) + ((0.0, TWO_PI),) * 4,
        1e-3,
        "riemannian",
        entries,
        KillingField(t_exprs, True),
    )
    return StationaryStructure(flip_spec(riem))


def rotating_warped_plane(omega: float = 0.5, warp: float = 0.3) -> StationaryStructure:
    """A 3-dimensional structure whose T has non-constant components and is not unit.

    g_L = -dt^2 + (1 + warp (x^2 + y^2)) (dx^2 + dy^2) is invariant under time
    translation and under rotation about the origin, so T = d_t + omega
    (x d_y - y d_x) is Killing.  T reads x and y, and g_L(T,T) = -1 +
    omega^2 (1 + warp r^2) r^2 stays negative on the chart (r^2 < 1.28).
    """
    conformal = f"1 + {warp}*(x^2 + y^2)"
    return StationaryStructure.from_spec(
        load_spec(
            "[chart]\ncoords = t, x, y\nt = 0, 6.283185307179586\nx = -0.8, 0.8\ny = -0.8, 0.8\n"
            f'[metric]\ng_0_0 = "-1"\ng_1_1 = "{conformal}"\ng_2_2 = "{conformal}"\n'
            "[signature]\nkind = lorentzian\n"
            f'[killing]\nT_0 = "1"\nT_1 = "-{omega}*y"\nT_2 = "{omega}*x"\nunit = false\n'
        )
    )
