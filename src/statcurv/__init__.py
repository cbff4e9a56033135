"""Curvature operators and Betti-number obstructions for stationary Lorentzian metrics."""

__version__ = "0.1.0"

from .expr import Expression, parse_expression
from .metric import MetricSpec, load_spec, load_spec_file
from .stationary import StationaryStructure, conformal_normalize
from .frames import orthonormal_completion
from .curvature_ops import CurvatureOperatorMatrix, Lambda2Basis
from .topology import BettiVerdict, betti_conclusions, grid_scan, k_positivity
from .generators import GeneratorRecipe, generate

__all__ = [
    "Expression",
    "parse_expression",
    "MetricSpec",
    "load_spec",
    "load_spec_file",
    "StationaryStructure",
    "conformal_normalize",
    "orthonormal_completion",
    "CurvatureOperatorMatrix",
    "Lambda2Basis",
    "BettiVerdict",
    "betti_conclusions",
    "grid_scan",
    "k_positivity",
    "GeneratorRecipe",
    "generate",
]
