"""Numerical tolerances, fixed globally and scaled by a single knob.

Two base classes of tolerance (identity residuals 1e-8, oracle comparisons
1e-6) plus the finer thresholds derived from them.
``Tolerances.scaled`` multiplies everything by one factor; the CLI exposes
it as ``--tol-scale`` restricted to [1e-2, 1e2].
"""

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    # identity residuals: Bianchi, operator symmetry
    identity: float = 1e-8
    # oracle comparisons: finite differences vs jets, curvature identity class
    oracle: float = 1e-6
    # antisymmetry / pair symmetry of the curvature 4-tensor, skew-adjointness
    antisymmetry: float = 1e-9
    # rotation-block residuals, central identity, connection identity classes
    pairing: float = 1e-7
    # eigenvalues of the squared map must not exceed this
    eigen_nonpositive: float = 1e-9
    # eigenvalues above this abort with an error (precondition broken)
    eigen_error: float = 1e-6
    # relative gap that merges eigenvalues into one eigenspace
    cluster_rel: float = 1e-7
    # singular: smallest |eigenvalue| of g below this times the largest
    # (unchanged by g -> c^2 g); frame |det| below this
    near_singular: float = 1e-12
    # strict positivity margin for eigenvalue sums
    positivity: float = 1e-10
    # |g_L(T,T) + 1| allowed when a unit field is required
    unit_timelike: float = 1e-8

    def scaled(self, factor: float) -> "Tolerances":
        if not (1e-2 <= factor <= 1e2):
            raise ValueError(f"tolerance scale {factor} outside [1e-2, 1e2]")
        return Tolerances(**{f.name: getattr(self, f.name) * factor for f in fields(self)})


DEFAULT = Tolerances()
