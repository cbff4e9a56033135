"""Hand-built stationary structures that the generator families cannot produce.

Test-only: nothing under ``src/statcurv`` imports this module.
"""

from __future__ import annotations

from statcurv.expr import Expression, parse_expression
from statcurv.generators import HALF_PI, TWO_PI
from statcurv.metric import KillingField, MetricSpec
from statcurv.stationary import StationaryStructure, conformal_normalize, flip_spec


def two_pair_flat_rotations(alpha: float = 1.0, beta: float = 0.6, gamma: float = 1.0) -> StationaryStructure:
    """A 5-dimensional structure whose adapted frame has two rotation blocks.

    Flat Riemannian R^5 with T a translation plus rotations in the (x, y)
    and (u, v) planes; the warped families can only produce one block, so
    this is the example that exercises the off-diagonal f-corrections of
    the symmetrized matrix in dimension >= 5.
    """
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
    riem = MetricSpec(
        coords,
        ((0.0, TWO_PI),) + ((0.2, 1.2),) * 4,
        1e-3,
        "riemannian",
        entries,
        KillingField(t_exprs, False),
    )
    return conformal_normalize(StationaryStructure(flip_spec(riem, t_exprs), t_exprs, False))


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
    return StationaryStructure(flip_spec(riem, t_exprs), t_exprs, True)
