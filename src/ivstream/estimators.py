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

These four updates are pure functions of (state, sample, steps): inputs are
never mutated. Shape errors surface as ``ValueError`` from the array
operations.

The window kernels run the same four updates for B trials stacked along a
leading axis, which the experiment harness advances in lockstep. One call
steps a whole window of rows in one Python loop and updates the stacked state
in place; it never writes the window. Its buffers are allocated once per call,
and the terms that do not depend on the state (``beta * z``) once per window.
The products are the gufuncs ``np.vecdot``, ``np.matvec`` and ``np.vecmat``
writing into those buffers. Each of their outputs is one trial's product,
reduced by the same routine in the same order as the 1-d kernels' ``@`` on
that trial's vectors, so each trial's iterates are bitwise equal to the 1-d
kernels' (``np.einsum`` and ``.sum`` reduce in another order and differ in
the last bit); ``tests/test_estimators.py`` checks this bit for bit.
:func:`two_timescale_window` is the one kernel of both two-timescale
updates. It steps S thetas against one gamma, so the harness steps the
two-timescale specs that share a first stage (same stream, alpha, beta and
gamma0) in one call; :data:`WINDOW_KERNELS` holds the other two.

The ``*Regressor`` classes wrap the kernels behind a scikit-learn style
``fit`` / ``partial_fit`` / ``predict`` / ``get_params`` surface so the
algorithms compose with the wider ecosystem; fitted state lives in the
``theta_`` (and ``gamma_``, ``u_``, ``v_``) attributes.
"""

from __future__ import annotations

import numbers

import numpy as np

from ._validation import as_float_matrix, as_float_vector, check_finite, check_positive
from .schedule import Constant, Polynomial, StepSchedule, step

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


# Window kernels: ``kernel(state, z, x, x_prime, y, alphas, betas)`` steps B
# stacked trials through a window of rows, updating ``state`` in place.
# ``state`` is (theta, gamma), plus (U, V) for streaming 2SLS, with shapes
# (B, d_x), (B, d_z, d_x), (B, d_x, d_x) and (B, d_z, d_z); theta is (S, B, d_x)
# for :func:`two_timescale_window`, which also takes the S flags ``direct``.
# The window is z (rows, B, d_z), x and x_prime (rows, B, d_x) and y (rows, B),
# and alphas and betas hold one step per row. Arguments an update does not use
# may be None.


def two_sample_window(state, z, x, x_prime, y, alphas, betas):
    """:func:`two_sample_update` over a window on B stacked trials (gamma is untouched)."""
    theta = state[0]
    resid = np.empty(len(theta))
    resid_col = resid[:, None]
    step = np.empty_like(theta)
    for x_t, xp_t, y_t, alpha in zip(x, x_prime, y, alphas.tolist()):
        np.vecdot(x_t, theta, out=resid)
        resid -= y_t
        resid *= alpha
        np.multiply(resid_col, xp_t, out=step)
        theta -= step


def two_timescale_window(state, z, x, x_prime, y, alphas, betas, direct):
    """S two-timescale updates on one gamma over a window of B stacked trials.

    ``state`` is (theta, gamma) with S thetas stacked as (S, B, d_x) and one
    gamma (B, d_z, d_x). Theta s takes :func:`direct_residual_update`'s raw
    residual X^T theta - Y when ``direct[s]``, else :func:`two_stage_update`'s
    predicted one (Z^T gamma) theta - Y; all S take the same ``alphas``. The
    gamma step reads only (gamma, z, x, beta), never theta, so each theta is
    bitwise equal to its own one-theta run.
    """
    theta, gamma = state
    beta_z = (betas[:, None, None] * z)[..., None]  # (rows, B, d_z, 1)
    zg = np.empty(theta.shape[1:])
    zg_row = zg[:, None, :]
    resid = np.empty(theta.shape[:2])
    resid_col = resid[..., None]
    step = np.empty_like(theta)
    outer = np.empty_like(gamma)
    residuals = list(zip(theta, resid, direct))
    for z_t, x_t, y_t, bz_t, alpha in zip(z, x, y, beta_z, alphas.tolist()):
        np.vecmat(z_t, gamma, out=zg)
        for theta_s, resid_s, direct_s in residuals:
            np.vecdot(x_t if direct_s else zg, theta_s, out=resid_s)
        resid -= y_t
        resid *= alpha
        np.multiply(resid_col, zg, out=step)
        theta -= step
        zg -= x_t
        np.multiply(bz_t, zg_row, out=outer)
        gamma -= outer


def online_2sls_window(state, z, x, x_prime, y, alphas, betas):
    """:func:`online_2sls_update` over a window on B stacked trials.

    A trial whose rank-one denominator is not positive, where the 1-d kernel
    raises, ends the window with a NaN state: the same state as turning its
    denominators to NaN at that step, since NaN spreads to every entry. Each
    row keeps its smaller denominator (``np.fmin``, so a NaN one cannot hide a
    negative one), and the check runs once per window. The other trials go on
    as before, and the harness records that trial as diverged.
    """
    theta, gamma, u, v = state
    b, d_z, d_x = gamma.shape
    w, uw, gain_u, x_w, step = (np.empty((b, d_x)) for _ in range(5))
    vz, gain_v = np.empty((b, d_z)), np.empty((b, d_z))
    denom, resid = np.empty((2, b)), np.empty(b)  # rows: U's and V's denominators
    denom_u, denom_v = denom
    outer_u, outer_v, outer_g = np.empty_like(u), np.empty_like(v), np.empty_like(gamma)
    lowest = np.empty(y.shape)  # each row's smaller denominator, NaN-ignoring
    # Broadcasting views of the buffers, made once.
    uw_col, vz_col, gain_v_col = uw[:, :, None], vz[:, :, None], gain_v[:, :, None]
    gain_u_row, gain_v_row, x_w_row = gain_u[:, None, :], gain_v[:, None, :], x_w[:, None, :]
    denom_u_col, denom_v_col, resid_col = denom_u[:, None], denom_v[:, None], resid[:, None]
    for z_t, x_t, y_t, low_t in zip(z, x, y, lowest):
        np.vecmat(z_t, gamma, out=w)
        np.matvec(v, z_t, out=vz)
        np.vecdot(z_t, vz, out=denom_v)
        np.matvec(u, w, out=uw)
        np.vecdot(w, uw, out=denom_u)
        denom += 1.0
        np.fmin(denom_u, denom_v, out=low_t)
        np.divide(vz, denom_v_col, out=gain_v)
        np.multiply(vz_col, gain_v_row, out=outer_v)
        v -= outer_v
        np.subtract(x_t, w, out=x_w)
        np.multiply(gain_v_col, x_w_row, out=outer_g)
        gamma += outer_g
        np.divide(uw, denom_u_col, out=gain_u)
        np.multiply(uw_col, gain_u_row, out=outer_u)
        u -= outer_u
        np.vecdot(w, theta, out=resid)
        np.subtract(y_t, resid, out=resid)
        np.multiply(gain_u, resid_col, out=step)
        theta += step
    corrupted = (lowest <= 0.0).any(axis=0)
    if corrupted.any():
        for part in state:
            part[corrupted] = np.nan


#: Window kernel of each harness algorithm that steps its own state; the
#: two-timescale algorithms share :func:`two_timescale_window`.
WINDOW_KERNELS = {
    "two_sample_sgd": two_sample_window,
    "online_2sls": online_2sls_window,
}


def _as_schedule(value, name: str) -> StepSchedule:
    if isinstance(value, numbers.Real):
        return Constant(float(value))
    if not isinstance(value, (Constant, Polynomial)):
        raise ValueError(f"{name} must be a number or a step schedule, got {value!r}")
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
        alpha = _as_schedule(self.alpha, "alpha")
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
        alpha, beta, kernel = _as_schedule(self.alpha, "alpha"), _as_schedule(self.beta, "beta"), self._kernel
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
