"""Exception types, one per kind a caller can act on; one rule per kind of scalar argument,
`real`, `count` and `times`; and the two bands: the roundoff rule `_band` for data entering
the package and the certificates, the drift band TARGET_TOL for RK4 propagator output."""

import math
import numbers

import numpy as np


_ROUNDOFF = 1e-12
TARGET_TOL = 1e-8


def _band(data, axis=None):
    """_ROUNDOFF max(1, M), M the largest entry magnitude of data (per block along axis)."""
    return _ROUNDOFF * np.maximum(1.0, np.abs(data).max(axis=axis))


class TswError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(TswError):
    """An argument breaks its function's contract; the message says what and where."""


class ValidationError(InvalidInput):
    """A stack of 2x2 blocks, such as an assemblage, failed validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class CertificateInvalid(TswError):
    """Optimality certificate failed verification."""


def real(name, value, above=False):
    """value as a float; InvalidInput unless it is a real, not a bool, finite and >= 0
    (> 0 when above is set). Strings, complex numbers and arrays, 0-d too, fail, and so
    does an int beyond the float range."""
    try:
        number = (float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool)
                  else math.nan)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number) or (number <= 0 if above else number < 0):
        raise InvalidInput(f"{name} must be a finite real {'>' if above else '>='} 0, "
                           f"got {value!r}")
    return number


def count(name, value, low, high=None):
    """value as an int; InvalidInput unless it is an integer, not a bool, in low..high
    (unbounded above when high is None). Floats fail, 2.0 too."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low
            or (high is not None and value > high)):
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise InvalidInput(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


def times(name, value):
    """value as a float array; InvalidInput unless its dtype is integer or float and every
    entry is finite and >= 0."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or not (np.isfinite(arr) & (arr >= 0)).all():
        raise InvalidInput(f"{name} must be finite reals >= 0, got {value!r}")
    return np.asarray(arr, dtype=float)
