"""Exception types and the input checks shared across the package: n, ratios, lists of numbers."""

import math

import numpy as np

# The largest degree any entry point accepts. tests/test_high_degree.py holds
# the closed form, the criterion and Remez to an mpmath oracle up to it.
MAX_DEGREE = 40


class RegimeError(ValueError):
    """Parameter outside the validity window of the requested construction."""


class SolverError(RuntimeError):
    """An iterative solver failed to deliver a trustworthy answer."""


class ConvergenceError(SolverError):
    """Iteration or step budget exhausted before the tolerance was met."""

    def __init__(self, message: str, *, last=None):
        super().__init__(message)
        # last useful iterate, for postmortems; shape depends on the solver
        self.last = last


class OptimalityError(SolverError):
    """A solved design failed the global optimality inequality by margin, relative to H."""

    def __init__(self, message: str, *, margin: float | None = None, last=None):
        super().__init__(message)
        self.margin = margin
        self.last = last


def check_integer(value, name: str, minimum: int) -> int:
    """int(value), after checking that it is an integer >= minimum.

    A float with an integral value counts; NaN, infinities and what
    check_ratio refuses as no number do not.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        ok = value >= minimum
    else:
        try:
            x = check_ratio(value, name)
        except ValueError:
            x = math.nan
        ok = math.isfinite(x) and x == int(x) and x >= minimum
    if not ok:
        raise ValueError(f"{name} must be an integer >= {minimum}")
    return int(value)


def check_degree(n, minimum: int) -> int:
    """check_integer for the degree n, which must also be at most MAX_DEGREE."""
    n = check_integer(n, "n", minimum)
    if n > MAX_DEGREE:
        raise ValueError(f"n = {n} exceeds the maximum degree {MAX_DEGREE}")
    return n


def check_ratio(value, name: str, *, finite: bool = False) -> float:
    """float(value), after checking that it is a number, not NaN, nor infinite when finite is set.

    As for check_integer, strings and bools are not numbers, nor is a numpy
    array or scalar of any kind but integer or float, nor anything float()
    refuses. Entry points with a regime leave finite unset, so that their
    regime check rejects an infinite ratio as out of range.
    """
    try:
        if isinstance(value, (str, bytes, bool)) or (
                isinstance(value, (np.ndarray, np.generic))
                and value.dtype.kind not in "iuf"):
            raise TypeError
        x = float(value)
    except TypeError:
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if math.isnan(x):
        raise ValueError(f"{name} must be a number, got {x!r}")
    if finite and math.isinf(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def _numbers(values) -> np.ndarray:
    """values as floats, if numpy reads them as integers or floats: no str, bool or None.

    numpy reads a bool among floats as a number, so the elements of a list
    or tuple are checked too; an array is judged by its kind alone.
    """
    try:
        a = np.asarray(values)
    except ValueError:  # a ragged list
        a = np.asarray(None)
    if isinstance(values, (list, tuple)) and any(
            isinstance(v, bool) or getattr(v, "dtype", None) == bool for v in values):
        a = np.asarray(None)
    if a.dtype.kind not in "iuf":
        raise ValueError("design points and weights must be lists of numbers")
    return a.astype(float, copy=False)
