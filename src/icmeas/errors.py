"""Exception types shared across the package, and the finite-value and int64 checks."""

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


def require_int64(**values) -> None:
    """Raise ConfigError for the first of the named values that is an int outside int64.

    Other values pass.  A config calls it on all its fields (vars(self))
    before its own rules, so no rule or kernel meets an integer that numpy
    cannot hold, and a float field gets an int past int64 refused as the
    config codec refuses it.
    """
    for name, value in values.items():
        if isinstance(value, int) and not -(2**63) <= value < 2**63:
            raise ConfigError(f"{name} must fit int64, not {value!r}")
