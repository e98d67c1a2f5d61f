"""Exception types shared across the package, and the finite-value check."""

import math


class IcmeasError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(IcmeasError, ValueError):
    """A configuration value is invalid or inconsistent."""


class PreconditionError(IcmeasError, ValueError):
    """Input data violates a documented precondition (e.g. unsorted trace)."""


class InsufficientDataError(IcmeasError, RuntimeError):
    """Not enough data to compute the requested quantity."""


def require_finite(**values) -> None:
    """Raise ConfigError for the first of the named float values that is NaN or infinite.

    NaN slips through every ordered comparison, so range checks alone let it in.
    """
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, not {value!r}")
