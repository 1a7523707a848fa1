"""Exception types shared across the toolkit, and its one positivity check."""


class RobustSpecError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(RobustSpecError):
    """A constructor or operation parameter is outside its valid range."""


class DomainError(RobustSpecError):
    """An evaluation point lies outside the function's domain."""


class AbsoluteContinuityError(RobustSpecError):
    """PMF supports are incompatible with the requested density ratios."""


class NotPositiveDefiniteError(RobustSpecError):
    """A covariance factorization failed even after jitter escalation."""


class UniquenessViolationError(RobustSpecError):
    """Two distinct set members both pass the dominated-element test."""


class EstimationInfeasibleError(RobustSpecError):
    """Every Monte Carlo estimate in a run was censored."""


class ConfigError(RobustSpecError):
    """An experiment configuration document violates its schema."""


def require_positive(name: str, value: float) -> None:
    """Raise ParameterError naming `name` unless 0 < value < inf (nan fails too)."""
    if not 0.0 < value < float("inf"):
        raise ParameterError(f"{name} must be finite and > 0, got {value}")
