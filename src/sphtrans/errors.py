"""Exception types shared by all sphtrans modules."""


class SphtransError(Exception):
    """Base class for every error raised by this package."""


class UnknownPresetError(SphtransError, KeyError):
    """Requested group preset does not exist."""


class DomainError(SphtransError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole.

    ``pole`` carries the offending nonpositive integer (or pole location).
    """

    def __init__(self, message, pole=None):
        super().__init__(message)
        self.pole = pole


class SingularPointError(DomainError):
    """Operator evaluated at a point where it is singular (e.g. radial Casimir at t=0)."""


class AccuracyError(SphtransError):
    """Requested tolerance could not be met.

    Carries the partial ``value`` and the achieved error estimate ``err_est``.
    """

    def __init__(self, message, value=None, err_est=None):
        super().__init__(message)
        self.value = value
        self.err_est = err_est


class PreconditionError(SphtransError, ValueError):
    """Input violates a documented precondition (decay, parity, smoothness...)."""


class ConditioningError(SphtransError):
    """A fit or solve is too ill-conditioned to be trusted."""


class GridContractError(SphtransError, ValueError):
    """A sampled-function grid violates its contract (e.g. not symmetric about 0)."""


class EvaluationError(SphtransError):
    """Non-finite sample produced during a grid scan; message names the location."""


class ConfigError(SphtransError, ValueError):
    """Invalid run configuration; ``path`` names the offending field."""

    def __init__(self, message, path=""):
        super().__init__(message)
        self.path = path
