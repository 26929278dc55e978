"""Exception types shared across the package, and the input rules that raise them.

The split matters for the CLI: validation problems (bad parameters, bad
shapes, degenerate data) exit with code 1, numerical-accuracy failures
with code 2.

Each input rule is defined once, here, and nan fails every one of them:
tail_index (alpha in (0, 2]), loss_power (p in [1, 2]), integer (a whole
count, at least `least`), positive (a finite scale above 0), and the array
rules, which refuse empty and non-finite input: sample_rows (a matrix of
samples), vector (a frequency u) and stationary._gap_probes (probe rows,
each a vector). The mixing rule, that a Gram matrix with a smallest
eigenvalue not above 0 has no stationary law, is simulate.require_mixing.
"""

import math
import numbers
import sys

import numpy as np


class StableOUError(Exception):
    """Base class for all package errors."""


class ParameterError(StableOUError, ValueError):
    """A parameter is outside its documented domain."""


class ShapeError(StableOUError, ValueError):
    """Array arguments have inconsistent or unsupported shapes."""


class DegenerateDataError(StableOUError, ValueError):
    """Data is degenerate for the requested operation (zero norms, singular Gram matrix, ...)."""


class PoleError(StableOUError, ValueError):
    """A special function was evaluated at one of its poles."""


class UnstableRegimeError(StableOUError, ValueError):
    """The requested quantity is infinite because (p, alpha) falls in the unstable regime."""


class AccuracyError(StableOUError, ArithmeticError):
    """A numerical routine could not reach its accuracy target.

    ``estimate`` carries the best value achieved so callers can inspect it.
    """

    def __init__(self, message: str, estimate: float | None = None):
        super().__init__(message)
        self.estimate = estimate


def is_real(x, integral: bool = False) -> bool:
    """Whether x is a real number within float range that is not a bool, and whole if integral.

    abs(x) <= max fails for nan, +-inf and an int beyond float range alike."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max and (not integral or float(x).is_integer()))


def integer(name: str, value, least: int | None = None) -> int:
    """value as an int, or a ParameterError naming `name` unless it is whole and >= least."""
    if not is_real(value, integral=True):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if least is not None and value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value}")
    return value


def tail_index(alpha: float) -> None:
    """A ParameterError unless 0 < alpha <= 2."""
    if not (0.0 < alpha <= 2.0):
        raise ParameterError(f"alpha must lie in (0, 2], got {alpha}")


def loss_power(p: float) -> None:
    """A ParameterError unless 1 <= p <= 2."""
    if not (1.0 <= p <= 2.0):
        raise ParameterError(f"p must lie in [1, 2], got {p}")


def positive(name: str, x) -> None:
    """A ParameterError naming `name` unless x is_real and above 0."""
    if not (is_real(x) and x > 0):
        raise ParameterError(f"{name} must be positive and finite, got {x}")


def sample_rows(x) -> np.ndarray:
    """x as a float array of rows, a 1-d x as one column: a nonempty matrix with finite entries.

    max and min propagate nan, and neither allocates an array the size of x."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or 0 in arr.shape:
        raise ShapeError(f"sample rows must form a nonempty matrix, got shape {arr.shape}")
    if not (math.isfinite(arr.max()) and math.isfinite(arr.min())):
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise ParameterError(f"sample rows must be finite; entry ({i}, {j}) is {arr[i, j]}")
    return arr


def vector(u, d: int, name: str = "u") -> np.ndarray:
    """u as a finite float array of shape (d,), a scalar counting as length 1."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (d,):
        raise ShapeError(f"{name} has shape {u.shape}, expected ({d},)")
    if not all(map(math.isfinite, u.tolist())):
        raise ParameterError(f"{name} must be finite, got {u.tolist()}")
    return u


def reject_unread(what: str, unread: tuple, values: dict, defaults: dict) -> None:
    """Raise ParameterError if values sets a key that `what` does not read off its default.

    A key in `unread` missing from values counts as its entry in defaults."""
    changed = [f"{key}={values[key]}" for key in unread
               if values.get(key, defaults[key]) != defaults[key]]
    if changed:
        raise ParameterError(f"{what} does not read {', '.join(unread)}; "
                             f"got {', '.join(changed)}")
