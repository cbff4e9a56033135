"""Seeded generators of stationary structures for tests and the CLI.

Every family starts from a Riemannian warped/product metric with an explicit
rotational Killing field (components constant, metric components depending
on t only), so the Killing condition holds by construction; the metric flip
then yields a Lorentzian structure with T timelike wherever it is nonzero.
Warp functions are drawn from c0 + c1 sin t + c2 cos t with the oscillating
part bounded away from c0, keeping them positive on the whole chart.

Same seed, same bytes: parameters come from ``random.Random(seed)`` and are
embedded through ``repr`` round-tripping.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

from .expr import Expression, parse_expression
from .metric import KillingField, MetricSpec
from .stationary import StationaryStructure, conformal_normalize, flip_spec

FAMILIES = ("warped-rotational", "product-with-flat", "s3-squashed")

TWO_PI = 6.283185307179586
HALF_PI = 1.5707963267948966

WARP_BASE = (1.5, 2.5)  # range of the warp constant c0
WARP_OSC = 0.45  # max oscillation as a fraction of c0
KILLING_RANGE = (0.5, 1.5)  # range of each rotational Killing coefficient, bounded away from 0


@dataclass(frozen=True)
class GeneratorRecipe:
    seed: int
    dimension: int = 3
    family: str = "warped-rotational"
    flat_dims: int = 0
    squash: float = 1.0
    normalize: bool = True


def _warp_expression(rng: random.Random, coords, sin_t: Expression, cos_t: Expression) -> Expression:
    """c0 + c1 sin(t) + c2 cos(t), on the structure's one ``sin_t`` and ``cos_t``."""
    c0 = rng.uniform(*WARP_BASE)
    amp = rng.uniform(0.1, WARP_OSC) * c0
    phase = rng.uniform(0.0, TWO_PI)
    c1 = amp * math.cos(phase)
    c2 = amp * math.sin(phase)
    return Expression.constant(c0, coords) + c1 * sin_t + c2 * cos_t


def _riemannian_base(recipe: GeneratorRecipe) -> MetricSpec:
    n = recipe.dimension
    if recipe.family == "s3-squashed":
        if n != 3:
            raise ValueError("the s3-squashed family is three-dimensional")
        coords = ("t", "theta1", "theta2")
        intervals = ((0.0, HALF_PI), (0.0, TWO_PI), (0.0, TWO_PI))
        a = parse_expression("sin(t)", coords)
        b = recipe.squash * parse_expression("cos(t)", coords)
        warps = [a, b]
        rotational = 2
        flat = 0
        rng = None
    else:
        flat = recipe.flat_dims if recipe.family == "product-with-flat" else 0
        rotational = n - 1 - flat
        if rotational < 1:
            raise ValueError("recipe leaves no rotational direction for the Killing field")
        coords = ("t",) + tuple(f"theta{i + 1}" for i in range(rotational)) + tuple(
            f"x{i + 1}" for i in range(flat)
        )
        intervals = ((0.0, math.pi),) + ((0.0, TWO_PI),) * (n - 1)
        rng = random.Random(recipe.seed)
        sin_t = parse_expression("sin(t)", coords)
        cos_t = parse_expression("cos(t)", coords)
        warps = [_warp_expression(rng, coords, sin_t, cos_t) for _ in range(rotational)]

    one = Expression.constant(1.0, coords)
    entries = [(0, 0, one)]
    for i, warp in enumerate(warps, start=1):
        entries.append((i, i, warp * warp))
    for i in range(1 + rotational, len(coords)):
        entries.append((i, i, one))

    if recipe.family == "s3-squashed":
        alphas = [1.0, 1.0]
    else:
        # same stream as the warps, fixed draw order: same seed, same bytes
        alphas = [rng.uniform(*KILLING_RANGE) for _ in range(rotational)]
    t_exprs = [Expression.constant(0.0, coords)]
    for a in alphas:
        t_exprs.append(Expression.constant(a, coords))
    t_exprs += [Expression.constant(0.0, coords)] * flat

    killing = KillingField(tuple(t_exprs), False)
    return MetricSpec(coords, intervals, 1e-3, "riemannian", tuple(entries), killing)


def generate(recipe: GeneratorRecipe) -> StationaryStructure:
    """Seeded stationary structure; T is Killing by construction."""
    if recipe.family not in FAMILIES:
        raise ValueError(f"unknown family '{recipe.family}'")
    if not 3 <= recipe.dimension <= 8:
        raise ValueError("supported dimensions are 3..8")
    if recipe.flat_dims < 0:
        raise ValueError("flat_dims must be nonnegative")
    structure = StationaryStructure(flip_spec(_riemannian_base(recipe)))
    return conformal_normalize(structure) if recipe.normalize else structure


# --- shipped example files ---------------------------------------------------

S3_SPEC_TEXT = """\
# Hopf presentation of the 3-sphere: Lorentzian metric whose flipped
# Riemannian counterpart is the round metric, with the Hopf field as T.
[chart]
coords = t, theta1, theta2
t = 0, 1.5707963267948966
theta1 = 0, 6.283185307179586
theta2 = 0, 6.283185307179586
margin = 0.001

[metric]
g_0_0 = "1"
g_1_1 = "sin(t)^2*(1-2*sin(t)^2)"
g_1_2 = "-2*sin(t)^2*cos(t)^2"
g_2_2 = "cos(t)^2*(1-2*cos(t)^2)"

[signature]
kind = lorentzian

[killing]
T_0 = "0"
T_1 = "1"
T_2 = "1"
unit = true
"""

FLAT_TORUS_SPEC_TEXT = """\
# Flat Lorentzian 3-torus with the parallel timelike Killing field.
[chart]
coords = t, x, y
t = 0, 6.283185307179586
x = 0, 6.283185307179586
y = 0, 6.283185307179586
margin = 0.001

[metric]
g_0_0 = "-1"
g_1_1 = "1"
g_2_2 = "1"

[signature]
kind = lorentzian

[killing]
T_0 = "1"
T_1 = "0"
T_2 = "0"
unit = true
"""

SHIPPED = {"s3.spec": S3_SPEC_TEXT, "flat_torus.spec": FLAT_TORUS_SPEC_TEXT}


def write_example_specs(directory) -> list[Path]:
    """Write the shipped example spec files into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for name, text in SHIPPED.items():
        path = directory / name
        path.write_bytes(text.encode("utf-8"))
        out.append(path)
    return out


def battery_recipe(seed: int) -> GeneratorRecipe:
    """The deterministic recipe family used for the randomized test battery.

    Cycles dimensions 3, 4, 5 and alternates warped and product families so
    that single pairs, pair-plus-fixed, and two-pair structures all occur.
    """
    dimension = 3 + seed % 3
    if dimension == 5 and seed % 2 == 0:
        return GeneratorRecipe(seed, dimension, "product-with-flat", flat_dims=1 + (seed // 2) % 2)
    if dimension == 4 and seed % 2 == 1:
        return GeneratorRecipe(seed, dimension, "product-with-flat", flat_dims=1)
    return GeneratorRecipe(seed, dimension, "warped-rotational")
