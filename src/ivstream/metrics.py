"""Scalar evaluation of iterates: distance to the planted optimum and test MSE."""

from __future__ import annotations

import numpy as np

from ._validation import as_float_vector
from .dgp import OneSample


def dist_to_opt(theta, theta_star) -> float:
    """Squared Euclidean distance ||theta - theta_star||^2."""
    theta = as_float_vector(theta, name="theta")
    theta_star = as_float_vector(theta_star, n=theta.shape[0], name="theta_star")
    d = theta - theta_star
    return float(d @ d)


def stack_test_set(test: list[OneSample]) -> tuple[np.ndarray, np.ndarray]:
    """Stack a held-out sample list into (X, y) arrays for repeated scoring."""
    if len(test) == 0:
        raise ValueError("test set must be non-empty")
    x = np.stack([s.x for s in test])
    y = np.array([s.y for s in test])
    return x, y


def test_mse_arrays(theta, x: np.ndarray, y: np.ndarray) -> float:
    """Mean of (y - x . theta)^2 over pre-stacked test arrays."""
    theta = as_float_vector(theta, n=x.shape[1], name="theta")
    r = y - x @ theta
    return float(r @ r / len(y))
