"""Curvature operators and Betti-number obstructions for stationary Lorentzian metrics."""

__version__ = "0.1.0"

from .expr import Expression, JetValue, eval_jet, parse_expression
from .metric import MetricSpec, MetricAtPoint, RiemannTensor, christoffel, frame_components
from .metric import load_spec, load_spec_file, metric_at, riemann_coordinate
from .stationary import StationaryStructure, conformal_normalize, killing_defect
from .stationary import nabla_t_matrix, riemannian_counterpart
from .stationary import verify_connection_relations, verify_curvature_relations
from .frames import OrthonormalFrame, adapted_frame, orthonormal_completion
from .curvature_ops import CurvatureOperatorMatrix, Lambda2Basis
from .curvature_ops import lorentzian_curvature_operator, riemannian_curvature_operator
from .curvature_ops import symmetrized_matrix
from .topology import BettiVerdict, betti_conclusions, grid_scan, k_positivity
from .generators import GeneratorRecipe, generate

__all__ = [
    "Expression",
    "JetValue",
    "eval_jet",
    "parse_expression",
    "MetricSpec",
    "MetricAtPoint",
    "RiemannTensor",
    "christoffel",
    "frame_components",
    "load_spec",
    "load_spec_file",
    "metric_at",
    "riemann_coordinate",
    "StationaryStructure",
    "conformal_normalize",
    "killing_defect",
    "nabla_t_matrix",
    "riemannian_counterpart",
    "verify_connection_relations",
    "verify_curvature_relations",
    "OrthonormalFrame",
    "adapted_frame",
    "orthonormal_completion",
    "CurvatureOperatorMatrix",
    "Lambda2Basis",
    "lorentzian_curvature_operator",
    "riemannian_curvature_operator",
    "symmetrized_matrix",
    "BettiVerdict",
    "betti_conclusions",
    "grid_scan",
    "k_positivity",
    "GeneratorRecipe",
    "generate",
]
