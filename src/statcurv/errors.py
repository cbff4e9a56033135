"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: input problems (parsing, file format,
bad arguments) exit 2, numerical invariant violations exit 3.
"""


class StatcurvError(Exception):
    """Base class for all toolkit errors."""


class ExprSyntaxError(StatcurvError):
    """Malformed expression text; ``offset`` is the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnknownIdentifierError(StatcurvError):
    """Expression references a name that is not a chart coordinate."""

    def __init__(self, name, offset):
        super().__init__(f"unknown identifier '{name}' (byte offset {offset})")
        self.name = name
        self.offset = offset


class EvalDomainError(StatcurvError):
    """Evaluation left the domain of a function (log, sqrt, division, ...)."""

    def __init__(self, message, subexpression):
        super().__init__(f"{message} in subexpression '{subexpression}'")
        self.subexpression = subexpression


class SpecFormatError(StatcurvError):
    """Metric spec file violates the documented key/value format."""


class ChartDomainError(StatcurvError):
    """Point is outside the chart interior (margin included)."""


class SignatureError(StatcurvError):
    """Evaluated metric eigenvalue signs disagree with the declared signature."""


class NearSingularError(StatcurvError):
    """Matrix is numerically singular (|det| below threshold)."""


class LinearAlgebraError(StatcurvError):
    """A dense solver got non-finite input or did not converge."""


class NonTimelikeError(StatcurvError):
    """g_L(T,T) is not negative where it has to be."""


class FrameError(StatcurvError):
    """Frame construction failed (rank-deficient seed, non-unit T, not adapted)."""


class EigenstructureError(StatcurvError):
    """The operator v -> second covariant step of T has the wrong spectrum.

    Raised on positive eigenvalues, loss of self-adjointness, or an
    odd-dimensional nonzero eigenspace; all three signal that the Killing /
    unit-length preconditions are broken or clustering failed.
    """


class GridPointError(StatcurvError):
    """A per-point computation failed during a grid scan."""

    def __init__(self, point, cause):
        self.point = tuple(float(x) for x in point)
        self.cause = cause
        super().__init__(f"failure at grid point {list(self.point)}: {cause}")
