"""Exception types raised across the package, and the rules for the
integer, exponent and sequence arguments that raise ``InvalidParameterError``."""

import numbers

import numpy as np


class InvalidParameterError(ValueError):
    """An argument, spec, or configuration value violates its contract."""


class InsufficientDataError(ValueError):
    """Too few data points for the requested fit or average."""


class DegenerateSeriesError(ValueError):
    """A series contains values (e.g. zeros) that make a log-log fit undefined."""


class ResourceLimitError(RuntimeError):
    """A run was refused because it exceeds the update cap (``ensemble.UPDATE_CAP``)."""


def _is_int(value) -> bool:
    """An integer that is not a ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number that is not a ``bool``."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an ``int`` if it is an integer, not a ``bool``, in
    ``[low, high]`` (no upper bound for ``high=None``)."""
    if not _is_int(value) or value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise InvalidParameterError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def _exponent(name: str, value) -> float:
    """``value`` as a float if it is a finite non-negative real, not a ``bool``."""
    if not _is_real(value) or not np.isfinite(value) or value < 0:
        raise InvalidParameterError(f"{name} must be a finite non-negative real, got {value!r}")
    return float(value)


def _entries(name: str, values) -> tuple:
    """The entries of ``values`` if it can be iterated."""
    try:
        return tuple(values)
    except TypeError:
        raise InvalidParameterError(f"{name} must be a sequence, got {values!r}") from None
