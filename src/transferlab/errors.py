"""Exception types, and the input checks, shared across the package."""

import math
import numbers


class ContractViolation(ValueError):
    """An argument failed a documented precondition (shape, finiteness, range)."""


class DegenerateInput(ValueError):
    """Input is numerically rank-deficient where full rank is required."""


class SingularMatrixError(ValueError):
    """A positive-definite factorization failed."""


def check_scalars(where: str, values: dict, defaults: dict) -> None:
    """Require each scalar setting to have the type of its default.

    Integers must be integers and floats finite real numbers (an integer
    is accepted for a float; a boolean is neither); settings whose default
    is not a number are checked where they are used.
    """
    for key, default in defaults.items():
        if key not in values:
            continue
        value = values[key]
        if isinstance(default, int):
            kind = "an integer"
            ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
        elif isinstance(default, float):
            kind = "a finite number"
            ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                  and math.isfinite(value))
        else:
            continue
        if not ok:
            raise ContractViolation(f"config {where}{key} must be {kind}, got {value!r}")


def require_keys(doc, keys, what: str) -> None:
    """Require ``doc`` to be a mapping that holds every one of ``keys``."""
    if not isinstance(doc, dict):
        raise ContractViolation(f"{what} must be a JSON object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ContractViolation(f"{what} lacks {', '.join(map(repr, missing))}")


def _json_shape(value, what: str) -> tuple:
    if isinstance(value, list):
        shapes = {_json_shape(item, what) for item in value}
        if len(shapes) > 1:
            raise ContractViolation(f"{what} is a ragged array")
        return (len(value), *(shapes.pop() if shapes else ()))
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return ()
    raise ContractViolation(f"{what} must hold only numbers, got {value!r}")


def require_numbers(value, ndim: int, what: str):
    """Require a JSON number (``ndim`` 0) or a regular ``ndim``-deep nested list of them.

    Booleans and strings are not numbers. Returns ``value`` unchanged.
    """
    shape = _json_shape(value, what)
    if len(shape) != ndim:
        raise ContractViolation(f"{what} must be {ndim}-D, got shape {shape}")
    return value
