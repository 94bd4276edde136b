"""Exception types raised by the estimation library.

An input is either wrong (:class:`InvalidInput`) or the numerics could not
produce a certified answer from it: the bank is not gamma-feasible
(:class:`GammaInfeasible`), a solver stopped short
(:class:`NoConvergence`), or a matrix that must be positive definite was not
(:class:`FactorizationFailure`).
"""


class EstimationError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(EstimationError, ValueError):
    """An argument, model-bank entry or config value is malformed.

    ``field`` names the input value at fault (``"Q"``, ``"gamma"``,
    ``"models.H"``, ...) when the error is about one, else it is None.
    """

    def __init__(self, message="", field=None):
        super().__init__(message)
        self.field = field


class FactorizationFailure(EstimationError):
    """A matrix that must be positive definite could not be factorized.

    For valid inputs the affected matrices are positive definite by
    construction, so this signals numerically corrupted data.
    """


class NoConvergence(EstimationError):
    """A solver stopped short of its tolerance.

    The Riccati iteration hit its iteration cap, or the minimax solver,
    which has none, ended with a duality gap above its tolerance or not
    finite.  The last iterate is attached as ``last`` for diagnostics.
    """

    def __init__(self, message, last=None):
        super().__init__(message)
        self.last = last


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
