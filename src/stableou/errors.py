"""Exception types shared across the package, and the input rules that raise them.

The split matters for the CLI: validation problems (bad parameters, bad
shapes, degenerate data) exit with code 1, numerical-accuracy failures
with code 2.
"""

import numbers
import sys


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


def integer(name: str, value) -> int:
    """value as an int, or a ParameterError naming `name` unless it is_real and integral."""
    if not is_real(value, integral=True):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)


def reject_unread(what: str, unread: tuple, values: dict, defaults: dict) -> None:
    """Raise ParameterError if values sets a key that `what` does not read off its default.

    A key in `unread` missing from values counts as its entry in defaults."""
    changed = [f"{key}={values[key]}" for key in unread
               if values.get(key, defaults[key]) != defaults[key]]
    if changed:
        raise ParameterError(f"{what} does not read {', '.join(unread)}; "
                             f"got {', '.join(changed)}")
