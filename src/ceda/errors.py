"""Error types shared across the package.

Each class carries the process exit code the command line tool maps it to.
"""

import numbers


class CedaError(Exception):
    """Base class for errors raised by this package."""

    exit_code = 3


class ConfigError(CedaError):
    """Bad or inconsistent configuration (exit code 1)."""

    exit_code = 1


class DataError(CedaError):
    """Unusable input data (exit code 2)."""

    exit_code = 2


class ComputationError(CedaError):
    """A computation could not be completed (exit code 3)."""

    exit_code = 3


def check_number(name, value, integer):
    """value when it is an integer (integer true) or a real number, a bool
    being neither: a config file may give any JSON value.  Otherwise a
    ConfigError naming the setting."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
        raise ConfigError("%s must be %s, got %r" % (name, "an integer" if integer else "a number", value))
    return value
