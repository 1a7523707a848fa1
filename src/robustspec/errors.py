"""Exception types shared across the toolkit, its positivity, count and
index checks, and the one log of its numerical fallbacks."""

import numbers


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


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_count(name: str, value, top=None) -> None:
    """Raise ParameterError naming `name` unless value is an integer (not a
    bool) >= 1, and <= top when top is given."""
    if not _integer(value) or value < 1 or (top is not None and value > top):
        bound = ">= 1" if top is None else f"in [1, {top}]"
        raise ParameterError(f"{name} must be an integer {bound}, got {value!r}")


def require_index(name: str, value, size: int) -> None:
    """Raise ParameterError naming `name` unless value is an integer (not a
    bool) in [0, size)."""
    if not _integer(value) or not 0 <= value < size:
        raise ParameterError(f"{name} must be an integer in [0, {size}), got {value!r}")


def warn_fallback(message: str, *args) -> None:
    """Log a numerical fallback (jitter, aliasing) as a warning on the
    "robustspec" logger.  `logging` is imported on first use, so a run with
    no fallback does not pay its import, about 10 ms of a 0.2 s start."""
    import logging

    logging.getLogger("robustspec").warning(message, *args, stacklevel=2)
