"""Input validation helpers shared across the package."""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray


def as_float_vector(x, n: int | None = None, name: str = "x") -> NDArray[np.float64]:
    """Coerce to a finite 1-d C-contiguous float64 array (a scalar to length 1), optionally checking its length."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"{name} must have length {n}, got {arr.shape[0]}")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:  # cheaper than .all() on short arrays
        raise ValueError(f"{name} has non-finite entries")
    return arr


def as_float_matrix(x, shape: tuple[int, int] | None = None, name: str = "x") -> NDArray[np.float64]:
    """Coerce to a finite 2-d float64 array, optionally checking its shape."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {arr.shape}")
    if shape is not None and arr.shape != tuple(shape):
        raise ValueError(f"{name} must have shape {tuple(shape)}, got {arr.shape}")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:  # cheaper than .all() on short arrays
        raise ValueError(f"{name} has non-finite entries")
    return arr


# Coerces to a float; a non-finite one is rejected with as_float_vector's message.
def check_finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} has non-finite entries")
    return value


def check_positive(value: float, name: str) -> float:
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite number, got {value}")
    return value


def check_nonnegative(value: float, name: str) -> float:
    value = float(value)
    if not np.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be a non-negative finite number, got {value}")
    return value


def check_symmetric_pd(a, name: str = "matrix") -> NDArray[np.float64]:
    """Validate that ``a`` is symmetric positive definite and well conditioned.

    Returns the validated array. A matrix whose condition number exceeds
    1e12 is treated as singular.
    """
    arr = as_float_matrix(a, name=name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    scale = np.abs(arr).max() or 1.0
    if np.abs(arr - arr.T).max() > 1e-10 * scale:
        raise ValueError(f"{name} must be symmetric")
    eigs = np.linalg.eigvalsh(arr)
    if eigs[0] <= 0.0:
        raise ValueError(f"{name} must be positive definite (min eigenvalue {eigs[0]:.3g})")
    if eigs[-1] / eigs[0] > 1e12:
        raise ValueError(f"{name} is numerically singular (condition number {eigs[-1] / eigs[0]:.3g})")
    return arr
