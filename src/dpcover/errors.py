"""Exception types shared across the package, the one count check, the
one small-vector finiteness check and the one check of a cloud's
positions."""

import math

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


def check_finite(value, size: int, name: str) -> np.ndarray:
    """value as a (size,) float array if it holds size finite numbers, else
    InputError. The test runs over .tolist(): on the few entries of a state,
    centre or input it is ~8x faster than np.isfinite(v).all()."""
    v = np.asarray(value, dtype=float)
    if v.size == size:
        v = v.reshape(size)
        if all(map(math.isfinite, v.tolist())):
            return v
    raise InputError(f"{name} must be finite, with {size} entries, got {v}")


def check_points(points, name: str) -> np.ndarray:
    """points as a float (N, 2) array if its values are finite and lie in a
    bounding box whose squared diagonal is finite, so that no squared
    distance between two of them overflows, else InputError. N may be 0.
    One min and one max pass decide both: NaN and inf propagate to the
    box, and in Python floats an overflow is inf, not a RuntimeWarning."""
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or p.shape[1] != 2:
        raise InputError(f"{name} must be (N, 2), got shape {p.shape}")
    if p.shape[0]:
        lo, hi = p.min(axis=0).tolist(), p.max(axis=0).tolist()
        dx, dy = hi[0] - lo[0], hi[1] - lo[1]
        if not math.isfinite(dx * dx + dy * dy):
            if not all(map(math.isfinite, lo + hi)):
                raise InputError(f"{name} must be finite")
            raise InputError(f"{name} must be in a bounding box of finite squared diagonal")
    return p
