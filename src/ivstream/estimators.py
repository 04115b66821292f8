"""Streaming update rules for instrumental-variable regression.

Four single-pass algorithms, each consuming one observation per step:

``two_sample_update``
    One-stage SGD with the two-sample gradient estimator: for a draw
    (Z, X, X', Y) with X, X' conditionally independent given Z,

        theta' = theta - alpha * (X . theta - Y) * X'.

    Weighting the residual by the second draw X' instead of X makes the step
    unbiased for the population gradient despite the confounding.

``two_stage_update``
    Two-timescale SGD on one-sample data. The fast recursion tracks the
    first stage (gamma), the slow recursion moves theta using the residual
    of the *instrument-predicted* outcome:

        theta' = theta - alpha * (gamma^T Z) * (Z^T gamma theta - Y)
        gamma' = gamma - beta * Z (Z^T gamma - X^T).

    The theta step always sees the positive semi-definite curvature
    gamma^T Z Z^T gamma, which is what keeps the coupled system stable from
    arbitrary initialisation.

``direct_residual_update``
    Same fast recursion, but the theta step plugs the raw residual in
    directly:

        theta' = theta - alpha * (gamma^T Z) * (X^T theta - Y).

    The effective curvature gamma^T Z Z^T gamma_star is not sign-definite
    while gamma is far from gamma_star, so the iterates can diverge before
    they converge; the update is included as the natural plug-in baseline.

``online_2sls_update``
    Streaming two-stage least squares. Rank-one (Sherman-Morrison) updates
    maintain U ~ (lam I + sum gamma_t^T Z Z^T gamma_t)^{-1} and
    V ~ (lam I + sum Z Z^T)^{-1} with no explicit matrix inversions; theta
    and gamma are the exact ridge-regularised two-stage solutions of the
    data seen so far.

All updates are pure functions of (state, sample, steps): inputs are never
mutated. Shape errors surface as ``ValueError`` from the array operations.

:data:`BATCH_KERNELS` holds the same four updates for B trials stacked along
a leading axis, which the experiment harness advances in lockstep. Their
products are ``np.matmul`` calls on stacked slices, which run the same BLAS
routine per trial as the 1-d kernels, so each trial's iterates are bitwise
equal to the 1-d kernels' (``np.einsum`` and ``.sum`` reduce in another
order and differ in the last bit).

The ``*Regressor`` classes wrap the kernels behind a scikit-learn style
``fit`` / ``partial_fit`` / ``predict`` / ``get_params`` surface so the
algorithms compose with the wider ecosystem; fitted state lives in the
``theta_`` (and ``gamma_``, ``u_``, ``v_``) attributes.
"""

from __future__ import annotations

import numpy as np

from ._validation import as_float_matrix, as_float_vector, check_finite, check_positive
from .schedule import Constant, StepSchedule, step

DEFAULT_RIDGE = 0.1


def two_sample_update(theta, x, x_prime, y: float, alpha: float):
    """One two-sample SGD step; returns the new theta."""
    resid = x @ theta - y
    return theta - (alpha * resid) * x_prime


def two_stage_update(theta, gamma, z, x, y: float, alpha: float, beta: float):
    """One coupled two-timescale step; returns (theta', gamma').

    The theta step uses the pre-update gamma, and both steps consume the same
    observation.
    """
    zg = z @ gamma
    pred_resid = zg @ theta - y
    new_theta = theta - (alpha * pred_resid) * zg
    new_gamma = gamma - (beta * z)[:, None] * (zg - x)[None, :]
    return new_theta, new_gamma


def direct_residual_update(theta, gamma, z, x, y: float, alpha: float, beta: float):
    """One plug-in two-timescale step (raw residual); returns (theta', gamma')."""
    zg = z @ gamma
    resid = x @ theta - y
    new_theta = theta - (alpha * resid) * zg
    new_gamma = gamma - (beta * z)[:, None] * (zg - x)[None, :]
    return new_theta, new_gamma


def online_2sls_update(theta, gamma, u, v, z, x, y: float):
    """One streaming 2SLS step; returns (theta', gamma', U', V').

    V tracks (lam I + sum_{i<=t} Z_i Z_i^T)^{-1} and U tracks the analogous
    inverse for the first-stage predictions w_i = gamma_i^T Z_i, so each is
    downdated with the incoming sample first and the parameter moves by the
    resulting Kalman gain (classical recursive least squares):

        V' = V - (Vz)(Vz)^T / (1 + z^T V z)
        gamma' = gamma + (V'z) (x - gamma^T z)^T
        U' = U - (Uw)(Uw)^T / (1 + w^T U w),   w = gamma^T z (pre-update gamma)
        theta' = theta + (U'w) (y - w^T theta)

    With zero initial iterates, gamma' and theta' are exactly the
    ridge-regularised two-stage solutions of the samples seen so far. The
    rank-one denominators are positive for positive-definite U, V; a
    non-positive denominator indicates corrupted state and raises.
    """
    w = z @ gamma
    vz = v @ z
    denom_v = 1.0 + z @ vz
    uw = u @ w
    denom_u = 1.0 + w @ uw
    if denom_u <= 0.0 or denom_v <= 0.0:
        raise FloatingPointError("rank-one denominator is not positive; U/V state corrupted")
    gain_v = vz / denom_v
    new_v = v - vz[:, None] * gain_v[None, :]
    new_gamma = gamma + gain_v[:, None] * (x - w)[None, :]
    gain_u = uw / denom_u
    new_u = u - uw[:, None] * gain_u[None, :]
    new_theta = theta + gain_u * (y - w @ theta)
    return new_theta, new_gamma, new_u, new_v


# Batched kernels: ``kernel(state, z, x, x_prime, y, alpha, beta) -> state``.
# ``state`` is (theta, gamma), plus (U, V) for streaming 2SLS, with shapes
# (B, d_x), (B, d_z, d_x), (B, d_x, d_x) and (B, d_z, d_z); the sample is
# z (B, d_z), x and x_prime (B, d_x), y (B,), and the steps are shared scalars.
# Arguments an update does not use may be None.


def two_sample_batch(state, z, x, x_prime, y, alpha, beta):
    """:func:`two_sample_update` on B stacked trials (gamma passes through)."""
    theta, gamma = state
    resid = (x[:, None, :] @ theta[:, :, None])[:, 0] - y[:, None]
    return theta - (alpha * resid) * x_prime, gamma


def two_stage_batch(state, z, x, x_prime, y, alpha, beta):
    """:func:`two_stage_update` on B stacked trials."""
    theta, gamma = state
    zg = z[:, None, :] @ gamma
    pred_resid = (zg @ theta[:, :, None])[:, 0] - y[:, None]
    zg = zg[:, 0]
    return theta - (alpha * pred_resid) * zg, gamma - (beta * z)[:, :, None] * (zg - x)[:, None, :]


def direct_residual_batch(state, z, x, x_prime, y, alpha, beta):
    """:func:`direct_residual_update` on B stacked trials."""
    theta, gamma = state
    zg = (z[:, None, :] @ gamma)[:, 0]
    resid = (x[:, None, :] @ theta[:, :, None])[:, 0] - y[:, None]
    return theta - (alpha * resid) * zg, gamma - (beta * z)[:, :, None] * (zg - x)[:, None, :]


def online_2sls_batch(state, z, x, x_prime, y, alpha, beta):
    """:func:`online_2sls_update` on B stacked trials.

    A trial whose rank-one denominator is not positive, where the 1-d kernel
    raises, gets a NaN state from that step on; the other trials go on as
    before, and the harness records that trial as diverged.
    """
    theta, gamma, u, v = state
    w = z[:, None, :] @ gamma
    vz = v @ z[:, :, None]
    denom_v = 1.0 + (z[:, None, :] @ vz)[:, 0]
    uw = u @ w.transpose(0, 2, 1)
    denom_u = 1.0 + (w @ uw)[:, 0]
    corrupted = (denom_u <= 0.0) | (denom_v <= 0.0)
    if corrupted.any():
        denom_u[corrupted] = denom_v[corrupted] = np.nan
    w, vz, uw = w[:, 0], vz[:, :, 0], uw[:, :, 0]
    gain_v = vz / denom_v
    new_v = v - vz[:, :, None] * gain_v[:, None, :]
    new_gamma = gamma + gain_v[:, :, None] * (x - w)[:, None, :]
    gain_u = uw / denom_u
    new_u = u - uw[:, :, None] * gain_u[:, None, :]
    new_theta = theta + gain_u * (y[:, None] - (w[:, None, :] @ theta[:, :, None])[:, 0])
    return new_theta, new_gamma, new_u, new_v


#: Batched kernel of each harness algorithm.
BATCH_KERNELS = {
    "two_sample_sgd": two_sample_batch,
    "two_stage_sgd": two_stage_batch,
    "direct_sgd": direct_residual_batch,
    "online_2sls": online_2sls_batch,
}


def _as_schedule(value) -> StepSchedule:
    if isinstance(value, (int, float)):
        return Constant(float(value))
    return value


class _BaseIVRegressor:
    """Shared scikit-learn style plumbing: params, prediction, validation."""

    _param_names: tuple[str, ...] = ()

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names}

    def set_params(self, **params) -> "_BaseIVRegressor":
        for name, value in params.items():
            if name not in self._param_names:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def predict(self, X) -> np.ndarray:
        if not hasattr(self, "theta_"):
            raise AttributeError(f"{type(self).__name__} is not fitted yet")
        X = np.asarray(X, dtype=float)
        return as_float_matrix(X[None, :] if X.ndim == 1 else X, name="X") @ self.theta_

    def _init_iterates(self, d_x: int, d_z: int) -> None:
        """Validated (theta0, gamma0), or zeros, as the first iterates."""
        theta = np.zeros(d_x) if self.theta0 is None else as_float_vector(self.theta0, d_x, "theta0")
        gamma = np.zeros((d_z, d_x)) if self.gamma0 is None else as_float_matrix(self.gamma0, (d_z, d_x), "gamma0")
        self.theta_, self.gamma_, self.n_iter_ = theta, gamma, 0

    # Sets up the iterates on first use; afterwards, checks the rows' widths.
    def _start(self, d_x: int, d_z: int) -> None:
        if not hasattr(self, "theta_"):
            self._init_iterates(d_x, d_z)
        elif self.theta_.shape != (d_x,) or (hasattr(self, "gamma_") and self.gamma_.shape != (d_z, d_x)):
            raise ValueError(f"rows have d_x={d_x}, d_z={d_z}, which do not match the fitted state")

    def _stack(self, Z, X, y):
        Z = as_float_matrix(np.atleast_2d(np.asarray(Z, dtype=float)), name="Z")
        X = as_float_matrix(np.atleast_2d(np.asarray(X, dtype=float)), name="X")
        y = as_float_vector(y, name="y")
        if not (Z.shape[0] == X.shape[0] == y.shape[0]):
            raise ValueError("Z, X and y must have the same number of rows")
        return Z, X, y

    # ``fit`` validates the whole stream once and ``partial_fit`` its one row;
    # both then run the subclass's ``_update``, its one loop over the kernel.
    # ``_update`` writes the iterates and ``n_iter_`` back in a ``finally``, so
    # after a row raises they reflect exactly the rows consumed before it.

    def partial_fit(self, z, x, y: float):
        z, x, y = as_float_vector(z, name="z"), as_float_vector(x, name="x"), check_finite(y, "y")
        self._start(x.shape[0], z.shape[0])
        return self._update((z,), (x,), (y,))

    def fit(self, Z, X, y):
        """Consume the rows of (Z, X, y) in order as a stream."""
        Z, X, y = self._stack(Z, X, y)
        self._start(X.shape[1], Z.shape[1])
        return self._update(Z, X, y.tolist())


class TwoSampleSGDRegressor(_BaseIVRegressor):
    """One-stage streaming IV regression from a two-sample oracle.

    Parameters
    ----------
    alpha : float or StepSchedule
        Step-size schedule for the theta recursion.
    theta0 : array of shape (d_x,), optional
        Initial iterate; defaults to zero.
    """

    _param_names = ("alpha", "theta0")

    def __init__(self, alpha=0.01, theta0=None):
        self.alpha = alpha
        self.theta0 = theta0

    def _init_iterates(self, d_x: int, d_z: int) -> None:
        self.theta_ = np.zeros(d_x) if self.theta0 is None else as_float_vector(self.theta0, d_x, "theta0")
        self.n_iter_ = 0

    def _update(self, X, X_prime, y) -> "TwoSampleSGDRegressor":
        alpha = _as_schedule(self.alpha)
        theta, t = self.theta_, self.n_iter_
        try:
            for x, x_prime, y_t in zip(X, X_prime, y):
                theta = two_sample_update(theta, x, x_prime, y_t, step(alpha, t + 1))
                t += 1
        finally:
            self.theta_, self.n_iter_ = theta, t
        return self

    def partial_fit(self, z, x, y: float, x_prime) -> "TwoSampleSGDRegressor":
        z, x, y = as_float_vector(z, name="z"), as_float_vector(x, name="x"), check_finite(y, "y")
        x_prime = as_float_vector(x_prime, n=x.shape[0], name="x_prime")
        self._start(x.shape[0], z.shape[0])
        return self._update((x,), (x_prime,), (y,))

    def fit(self, Z, X, y, X_prime) -> "TwoSampleSGDRegressor":
        """Consume the rows of (Z, X, y, X_prime) in order as a stream."""
        Z, X, y = self._stack(Z, X, y)
        X_prime = as_float_matrix(np.atleast_2d(np.asarray(X_prime, dtype=float)), X.shape, "X_prime")
        self._start(X.shape[1], Z.shape[1])
        return self._update(X, X_prime, y.tolist())


class _TwoTimescaleRegressor(_BaseIVRegressor):
    _param_names = ("alpha", "beta", "theta0", "gamma0")
    _kernel = staticmethod(two_stage_update)

    def __init__(self, alpha=0.01, beta=0.1, theta0=None, gamma0=None):
        self.alpha = alpha
        self.beta = beta
        self.theta0 = theta0
        self.gamma0 = gamma0

    def _update(self, Z, X, y):
        alpha, beta, kernel = _as_schedule(self.alpha), _as_schedule(self.beta), self._kernel
        theta, gamma, t = self.theta_, self.gamma_, self.n_iter_
        try:
            for z, x, y_t in zip(Z, X, y):
                theta, gamma = kernel(theta, gamma, z, x, y_t, step(alpha, t + 1), step(beta, t + 1))
                t += 1
        finally:
            self.theta_, self.gamma_, self.n_iter_ = theta, gamma, t
        return self


class TwoStageSGDRegressor(_TwoTimescaleRegressor):
    """Two-timescale streaming IV regression (instrument-predicted residual)."""


class DirectSGDRegressor(_TwoTimescaleRegressor):
    """Plug-in two-timescale variant (raw residual in the theta step)."""

    _kernel = staticmethod(direct_residual_update)


class Online2SLSRegressor(_BaseIVRegressor):
    """Streaming two-stage least squares with rank-one inverse updates.

    Parameters
    ----------
    lam : float
        Ridge parameter; U and V start at I / lam.
    theta0, gamma0 : arrays, optional
        Initial iterates; default zero.
    """

    _param_names = ("lam", "theta0", "gamma0")

    def __init__(self, lam=DEFAULT_RIDGE, theta0=None, gamma0=None):
        self.lam = lam
        self.theta0 = theta0
        self.gamma0 = gamma0

    def _init_iterates(self, d_x: int, d_z: int) -> None:
        lam = check_positive(self.lam, "lam")
        super()._init_iterates(d_x, d_z)
        self.u_, self.v_ = np.eye(d_x) / lam, np.eye(d_z) / lam

    def _update(self, Z, X, y) -> "Online2SLSRegressor":
        theta, gamma, u, v, t = self.theta_, self.gamma_, self.u_, self.v_, self.n_iter_
        try:
            for z, x, y_t in zip(Z, X, y):
                theta, gamma, u, v = online_2sls_update(theta, gamma, u, v, z, x, y_t)
                t += 1
        finally:
            self.theta_, self.gamma_, self.u_, self.v_, self.n_iter_ = theta, gamma, u, v, t
        return self
