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


KIND_TEXT = {int: "an integer", float: "a number", bool: "true or false", str: "a string", list: "a list",
             dict: "an object"}


def check_kind(name, value, kind):
    """value when it has the JSON kind int, float (any number), bool, str,
    list or dict, a bool being no number: a config file may give any JSON
    value.  Otherwise a ConfigError naming the setting."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(
            value, {int: numbers.Integral, float: numbers.Real}.get(kind, kind)):
        raise ConfigError("%s must be %s, got %r" % (name, KIND_TEXT[kind], value))
    return value
