"""Exception types raised by the estimation library."""


class EstimationError(Exception):
    """Base class for all errors raised by this package.

    ``field`` names the input value at fault (``"Q"``, ``"gamma"``, ...)
    when the error is about one; ``validate`` sets it.
    """

    def __init__(self, message="", field=None):
        super().__init__(message)
        self.field = field


class DimensionMismatch(EstimationError):
    """Array shapes are inconsistent with the model set, or an entry is not finite."""


class NotPositiveDefinite(EstimationError):
    """A weight matrix is missing, non-finite, or not symmetric positive definite."""


class EmptyModelSet(EstimationError):
    """The candidate model family contains no models."""


class NonpositiveGamma(EstimationError):
    """The attenuation level gamma must be a finite real number > 0."""


class FactorizationFailure(EstimationError):
    """A matrix that must be positive definite could not be factorized.

    For valid inputs the affected matrices are positive definite by
    construction, so this signals numerically corrupted data.
    """


class NoConvergence(EstimationError):
    """An iterative solver stopped short of its tolerance.

    It hit its iteration cap or, for the minimax solver, a step broke down
    numerically.  The last iterate is attached as ``last`` for diagnostics.
    """

    def __init__(self, message, last=None):
        super().__init__(message)
        self.last = last


class HorizonExceeded(EstimationError):
    """A filter step was requested past the precomputed gain horizon."""


class IndexOutOfRange(EstimationError):
    """A model index is outside the family."""


class GammaInfeasible(EstimationError):
    """The condition lambda_max(H P H^T) < gamma^2 is violated.

    Carries ``lambda_max`` and ``gamma_sq``; ``model`` and ``t`` are set when
    the violation is located at a model and time.
    """

    def __init__(self, message, lambda_max=None, gamma_sq=None, model=None, t=None):
        super().__init__(message)
        self.lambda_max = lambda_max
        self.gamma_sq = gamma_sq
        self.model = model
        self.t = t


class EmptyPieceList(EstimationError):
    """The minimax solver needs at least one quadratic piece."""


class ConfigError(EstimationError):
    """An experiment configuration file could not be parsed or validated."""
