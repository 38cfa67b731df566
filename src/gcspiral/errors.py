"""Exception types and the input checks shared across the toolkit.

One policy holds at every boundary: a real number is any `numbers.Real`
but a bool (NumPy scalars count), a count is any integer but a bool, a
column of numbers has an integer or float dtype (no strings, bools or
ragged rows), and a grid is a one-dimensional, finite, strictly
increasing column. Every rejected input raises a subclass of InputError.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "DomainError",
    "QuadratureError",
    "SingularProfileError",
    "SingularPointError",
    "DegenerateDataError",
    "MismatchedInputsError",
]


class InputError(ValueError):
    """An input that an operation rejects."""


class DomainError(InputError):
    """Input outside the mathematical domain of an operation."""


class QuadratureError(RuntimeError):
    """Adaptive integration could not meet the requested tolerance."""


class SingularProfileError(InputError):
    """Profile parameters make the requested quantity undefined everywhere."""


class SingularPointError(InputError):
    """Requested quantity is undefined at this parameter value."""


class DegenerateDataError(InputError):
    """Input data carries no usable curvature information."""


class MismatchedInputsError(InputError):
    """Inputs that must describe the same curve disagree."""


def real(name: str, value, above: float | None = None, least: float | None = None) -> float:
    """`value` as a float, if it is a finite real (not a bool), > above and >= least."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if (
            math.isfinite(number)
            and (above is None or number > above)
            and (least is None or number >= least)
        ):
            return number
    bound = f" > {above:g}" if above is not None else ""
    bound += f" >= {least:g}" if least is not None else ""
    raise DomainError(f"{name} must be a finite real number{bound}, got {value!r}")


def count(name: str, value, least: int = 1) -> int:
    """`value` as an int, if it is an integer (not a bool) of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def numeric(name: str, values) -> np.ndarray:
    """`values` as a float array, if its dtype is an integer or float one."""
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged sequence; rejected below as not numeric
        array = np.asarray(None)
    if array.dtype.kind not in "iuf":
        raise DomainError(f"{name} must hold only numbers")
    return array.astype(float, copy=False)


def increasing(name: str, values, least: int) -> np.ndarray:
    """`values` as a float array: at least `least` numbers, 1-D, finite, strictly increasing."""
    grid = numeric(name, values)
    if grid.ndim != 1 or len(grid) < least:
        raise DomainError(f"{name} must be a one-dimensional sequence of {least} or more values")
    if not np.isfinite(grid).all():
        raise DomainError(f"{name} must be finite")
    if not (grid[1:] - grid[:-1] > 0.0).all():
        raise DomainError(f"{name} must be strictly increasing")
    return grid
