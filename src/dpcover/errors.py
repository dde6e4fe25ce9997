"""Exception types shared across the package, and the one count check."""

import numpy as np


class DpcoverError(Exception):
    """Base class for all package errors."""


class InputError(DpcoverError, ValueError):
    """Invalid argument values (non-finite entries, bad dimensions, ...)."""


class InfeasibleError(DpcoverError):
    """Constraint set admits no point."""


class SizeError(DpcoverError):
    """Problem exceeds the exact-solver size cap; caller must subsample."""


class ExhaustionError(DpcoverError):
    """Remaining sample-point mass cannot satisfy the requested demand."""


class ScenarioError(DpcoverError, ValueError):
    """Scenario file violates the schema or is internally inconsistent."""


def check_count(value, name: str, minimum: int):
    """value if it is an int or np.integer (not a bool) >= minimum, else InputError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise InputError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value
