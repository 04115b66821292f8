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
steps a whole window of rows and updates the stacked state in place; it never
writes the window. The loops are C, in ``_windows.c``, compiled on the first
window call with the system ``cc`` and cached in ``~/.cache/ivstream`` (see
:mod:`ivstream._native`). Importing the package, the 1-d kernels and the
regressors' ``partial_fit`` and ``predict`` need no compiler; a regressor's
``fit`` runs the loops, so its first call compiles them. Each product calls
the routine of numpy's own scipy-openblas64 that numpy's ``@`` calls on the
same vectors, and the elementwise arithmetic keeps the 1-d kernels' order
without fused multiply-adds, so each trial's iterates are bitwise equal to
the 1-d kernels'; ``tests/test_estimators.py`` checks this bit for bit.
Like the 1-d kernels' bits, they still depend on the BLAS kernel OpenBLAS
picks for the CPU. :func:`two_timescale_window` is the one kernel of both two-timescale
updates. It steps S thetas against one gamma, so the harness steps the
two-timescale specs that share a first stage (same stream, alpha, beta and
gamma0) in one call; :data:`WINDOW_KERNELS` holds the other two.

The ``*Regressor`` classes wrap the kernels behind a scikit-learn style
``fit`` / ``partial_fit`` / ``predict`` / ``get_params`` surface so the
algorithms compose with the wider ecosystem; fitted state lives in the
``theta_`` (and ``gamma_``, ``u_``, ``v_``) attributes. ``partial_fit``
steps its row through the 1-d kernel. ``fit`` makes its rows C-contiguous
float64 once and steps windows of up to :data:`FIT_WINDOW_ROWS` rows, each
one call of the compiled loop with B = 1 on addresses read once per fit. The
loops' ``fit_steps`` computes each window's steps with libm's ``pow``, which
has the bits of :func:`ivstream.schedule.step`, so a ``fit`` is bitwise equal
to ``partial_fit`` row by row. A window whose iterates end non-finite, or
whose loop raised a floating-point event that ``np.geterr`` does not ignore,
is undone and replayed row by row through the 1-d kernel, so ``fit`` warns
and raises where ``partial_fit`` does.

:func:`initial_state` builds every first iterate: the regressors', the harness's,
``ivstream check``'s and the oracle's. A real step size is a ``Constant`` schedule.
"""

from __future__ import annotations

import numbers

import numpy as np

from . import _native
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
# may be None. Each kernel checks the shapes and calls its loop in
# ``_windows.c``.


def _read(a, shape, name):
    """``a`` as a C-contiguous float64 array of ``shape`` for a loop to read."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    return a


def _written(a, shape, name):
    """``a`` itself, for a loop to update in place: never a copy, so it must already fit."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.c_contiguous and a.flags.writeable):
        raise ValueError(f"{name} must be a writeable C-contiguous float64 array, as it is updated in place")
    return _read(a, shape, name)


def _checked(events: int) -> int:
    """A loop's result, the floating-point events it raised, unless it could not allocate its work rows."""
    if events < 0:
        raise MemoryError("the window loop could not allocate its work rows")
    return events


def _run(loop, args, *arrays) -> None:
    """Call ``loop`` on ``args`` and the arrays' addresses; ``arrays`` holds each array for the call."""
    _checked(loop(*args, *(a.ctypes.data for a in arrays)))


def two_sample_window(state, z, x, x_prime, y, alphas, betas):
    """:func:`two_sample_update` over a window on B stacked trials (gamma is untouched)."""
    rows, b, d_x = np.shape(x)
    _run(_native.loops().two_sample_window, (rows, b, d_x), _written(state[0], (b, d_x), "theta"),
         _read(x, (rows, b, d_x), "x"), _read(x_prime, (rows, b, d_x), "x_prime"), _read(y, (rows, b), "y"),
         _read(alphas, (rows,), "alphas"))


def two_timescale_window(state, z, x, x_prime, y, alphas, betas, direct):
    """S two-timescale updates on one gamma over a window of B stacked trials.

    ``state`` is (theta, gamma) with S thetas stacked as (S, B, d_x) and one
    gamma (B, d_z, d_x). Theta s takes :func:`direct_residual_update`'s raw
    residual X^T theta - Y when ``direct[s]``, else :func:`two_stage_update`'s
    predicted one (Z^T gamma) theta - Y; all S take the same ``alphas``. The
    gamma step reads only (gamma, z, x, beta), never theta, so each theta is
    bitwise equal to its own one-theta run.
    """
    (rows, b, d_z), d_x, s = np.shape(z), np.shape(x)[-1], len(direct)
    _run(_native.loops().two_timescale_window, (rows, b, d_z, d_x, s, bytes(map(bool, direct))),
         _written(state[0], (s, b, d_x), "theta"), _written(state[1], (b, d_z, d_x), "gamma"),
         _read(z, (rows, b, d_z), "z"), _read(x, (rows, b, d_x), "x"), _read(y, (rows, b), "y"),
         _read(alphas, (rows,), "alphas"), _read(betas, (rows,), "betas"))


def online_2sls_window(state, z, x, x_prime, y, alphas, betas):
    """:func:`online_2sls_update` over a window on B stacked trials.

    A trial whose rank-one denominator is not positive, where the 1-d kernel
    raises, ends the window with a NaN state, and a NaN denominator does not
    hide a negative one. The other trials go on as before, and the harness
    records that trial as diverged.
    """
    (rows, b, d_z), d_x = np.shape(z), np.shape(x)[-1]
    shapes = ((b, d_x), (b, d_z, d_x), (b, d_x, d_x), (b, d_z, d_z))
    _run(_native.loops().online_2sls_window, (rows, b, d_z, d_x),
         *(_written(a, shape, name) for a, shape, name in zip(state, shapes, ("theta", "gamma", "U", "V"))),
         _read(z, (rows, b, d_z), "z"), _read(x, (rows, b, d_x), "x"), _read(y, (rows, b), "y"))


#: Window kernel of each harness algorithm that steps its own state; the
#: two-timescale algorithms share :func:`two_timescale_window`.
WINDOW_KERNELS = {
    "two_sample_sgd": two_sample_window,
    "online_2sls": online_2sls_window,
}


def initial_state(d_x: int, d_z: int, theta0=None, gamma0=None, lam=None) -> tuple[np.ndarray, ...]:
    """The first iterates: (theta, gamma), zero unless given, plus (U, V) = (I / lam, I / lam)
    of streaming 2SLS when ``lam`` is given. ``lam`` is checked first, then ``theta0`` and
    ``gamma0``; a bad one raises ``ValueError``."""
    if lam is not None:
        lam = check_positive(lam, "lam")
    theta = np.zeros(d_x) if theta0 is None else as_float_vector(theta0, d_x, "theta0")
    gamma = np.zeros((d_z, d_x)) if gamma0 is None else as_float_matrix(gamma0, (d_z, d_x), "gamma0")
    return (theta, gamma) if lam is None else (theta, gamma, np.eye(d_x) / lam, np.eye(d_z) / lam)


# A real number is a constant step; anything else that is not a schedule raises, naming ``name``.
def _as_schedule(value, name: str) -> StepSchedule:
    if isinstance(value, (Constant, Polynomial)):
        return value
    if isinstance(value, numbers.Real):
        return Constant(check_positive(value, name))
    raise ValueError(f"{name} must be a number or a step schedule, got {value!r}")


#: Rows per window of a regressor's ``fit``. A window copies none of its rows;
#: its iterates are copied before it runs, for a replay.
FIT_WINDOW_ROWS = 4096

#: The bit the window loops return for each floating-point event, by its ``np.geterr`` name.
_FP_EVENTS = {"divide": 1, "over": 2, "under": 4, "invalid": 8}


def _terms(s: StepSchedule) -> tuple[float, float]:
    """(coeff, exponent) of ``s`` for the loops' ``fit_steps``: a constant step has exponent 0."""
    return (float(s.alpha), 0.0) if isinstance(s, Constant) else (float(s.coeff), float(s.exponent))


class _BaseIVRegressor:
    """Shared scikit-learn style plumbing: params, prediction, validation, the update loop."""

    _param_names: tuple[str, ...] = ()
    _schedules: tuple[str, ...] = ()  # the step sizes the update takes, in its order
    _iterates = ("theta_", "gamma_")  # the attributes set from :func:`initial_state`, in its order

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

    # Sets up the iterates on first use; afterwards, checks the rows' widths.
    def _start(self, d_x: int, d_z: int) -> None:
        if not hasattr(self, "theta_"):
            start = initial_state(d_x, d_z, self.theta0, getattr(self, "gamma0", None), getattr(self, "lam", None))
            for name, value in zip(self._iterates, start):
                setattr(self, name, value)
            self.n_iter_ = 0
        elif self.theta_.shape != (d_x,) or (hasattr(self, "gamma_") and self.gamma_.shape != (d_z, d_x)):
            raise ValueError(f"rows have d_x={d_x}, d_z={d_z}, which do not match the fitted state")

    def _stack(self, Z, X, y):
        Z = as_float_matrix(np.atleast_2d(np.asarray(Z, dtype=float)), name="Z")
        X = as_float_matrix(np.atleast_2d(np.asarray(X, dtype=float)), name="X")
        y = as_float_vector(y, name="y")
        if not (Z.shape[0] == X.shape[0] == y.shape[0]):
            raise ValueError("Z, X and y must have the same number of rows")
        return Z, X, y

    # ``fit`` validates the whole stream once and runs ``_update_windows``;
    # ``partial_fit`` validates its one row and runs ``_update``. A subclass
    # gives only its two calls of one update: ``_window``, its compiled loop
    # with B = 1 on the addresses of the iterates and of a window's first rows,
    # and ``_row``, its 1-d kernel; the two are bitwise equal. ``fit`` makes the
    # rows C-contiguous float64 and copies the iterates once, reads each address
    # once and steps windows of up to FIT_WINDOW_ROWS rows in place, each after
    # ``fit_steps`` has computed its steps. A window that ends non-finite, or
    # that raised a floating-point event numpy does not ignore, is undone and
    # its rows are replayed through ``_update``, as ``partial_fit`` runs its
    # row, so a row warns or raises just where it would in ``partial_fit``:
    # where the iterates overflow, where a 2SLS denominator overflows or is not
    # positive. ``_row`` sets the iterates, and then ``n_iter_`` is counted,
    # only once the kernel has returned, so after a row raises they reflect
    # exactly the rows consumed before it.

    def _update(self, Z, X, X_prime, y):
        schedules = [_as_schedule(getattr(self, name), name) for name in self._schedules]
        for i in range(len(y)):
            self._row(Z[i], X[i], None if X_prime is None else X_prime[i], float(y[i]),
                      *[step(s, self.n_iter_ + 1) for s in schedules])
            self.n_iter_ += 1
        return self

    def _update_windows(self, *rows):
        schedules = [_as_schedule(getattr(self, name), name) for name in self._schedules]
        lib, n, k = _native.loops(), len(rows[-1]), len(schedules)
        rows = [None if a is None else np.ascontiguousarray(a, np.float64) for a in rows]
        d_z, d_x = rows[0].shape[1], rows[1].shape[1]
        row_bytes = (8 * d_z, 8 * d_x, 8 * d_x, 8)
        work = [np.array(getattr(self, name), np.float64, order="C") for name in self._iterates]
        terms = np.array([_terms(s) for s in schedules], np.float64)
        steps = np.empty(k * min(n, FIT_WINDOW_ROWS))
        bases = [None if a is None else a.ctypes.data for a in rows]
        state, terms_at, steps_at = [a.ctypes.data for a in work], terms.ctypes.data, steps.ctypes.data
        reported = sum(bit for name, bit in _FP_EVENTS.items() if np.geterr()[name] != "ignore")
        for name, a in zip(self._iterates, work):
            setattr(self, name, a)
        for start in range(0, n, FIT_WINDOW_ROWS):
            size, t, saved = min(FIT_WINDOW_ROWS, n - start), self.n_iter_, [a.copy() for a in work]
            lib.fit_steps(size, t, k, terms_at, steps_at)
            events = _checked(self._window(lib, size, d_z, d_x, state,
                                           *(None if b is None else b + start * w for b, w in zip(bases, row_bytes)),
                                           *(steps_at + 8 * size * j for j in range(k))))
            if events & reported or not all(np.isfinite(a).all() for a in work):
                for a, before in zip(work, saved):
                    np.copyto(a, before)
                self._update(*[None if a is None else a[start:start + size] for a in rows])
                for name, a in zip(self._iterates, work):
                    np.copyto(a, getattr(self, name))
                    setattr(self, name, a)
            else:
                self.n_iter_ = t + size
        return self

    def partial_fit(self, z, x, y: float):
        z, x, y = as_float_vector(z, name="z"), as_float_vector(x, name="x"), check_finite(y, "y")
        self._start(x.shape[0], z.shape[0])
        return self._update((z,), (x,), None, (y,))

    def fit(self, Z, X, y):
        """Consume the rows of (Z, X, y) in order as a stream."""
        Z, X, y = self._stack(Z, X, y)
        self._start(X.shape[1], Z.shape[1])
        return self._update_windows(Z, X, None, y)


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
    _schedules = ("alpha",)
    _iterates = ("theta_",)

    def __init__(self, alpha=0.01, theta0=None):
        self.alpha = alpha
        self.theta0 = theta0

    @staticmethod
    def _window(lib, rows, d_z, d_x, state, z, x, x_prime, y, alphas):
        return lib.two_sample_window(rows, 1, d_x, *state, x, x_prime, y, alphas)

    def _row(self, z, x, x_prime, y, alpha):
        self.theta_ = two_sample_update(self.theta_, x, x_prime, y, alpha)

    def partial_fit(self, z, x, y: float, x_prime) -> "TwoSampleSGDRegressor":
        z, x, y = as_float_vector(z, name="z"), as_float_vector(x, name="x"), check_finite(y, "y")
        x_prime = as_float_vector(x_prime, n=x.shape[0], name="x_prime")
        self._start(x.shape[0], z.shape[0])
        return self._update((z,), (x,), (x_prime,), (y,))

    def fit(self, Z, X, y, X_prime) -> "TwoSampleSGDRegressor":
        """Consume the rows of (Z, X, y, X_prime) in order as a stream."""
        Z, X, y = self._stack(Z, X, y)
        X_prime = as_float_matrix(np.atleast_2d(np.asarray(X_prime, dtype=float)), X.shape, "X_prime")
        self._start(X.shape[1], Z.shape[1])
        return self._update_windows(Z, X, X_prime, y)


class _TwoTimescaleRegressor(_BaseIVRegressor):
    _param_names = ("alpha", "beta", "theta0", "gamma0")
    _schedules = ("alpha", "beta")
    _kernel = staticmethod(two_stage_update)

    def __init__(self, alpha=0.01, beta=0.1, theta0=None, gamma0=None):
        self.alpha = alpha
        self.beta = beta
        self.theta0 = theta0
        self.gamma0 = gamma0

    def _window(self, lib, rows, d_z, d_x, state, z, x, x_prime, y, alphas, betas):
        return lib.two_timescale_window(rows, 1, d_z, d_x, 1, bytes([self._kernel is direct_residual_update]),
                                        *state, z, x, y, alphas, betas)

    def _row(self, z, x, x_prime, y, alpha, beta):
        self.theta_, self.gamma_ = self._kernel(self.theta_, self.gamma_, z, x, y, alpha, beta)


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
    _iterates = ("theta_", "gamma_", "u_", "v_")

    def __init__(self, lam=DEFAULT_RIDGE, theta0=None, gamma0=None):
        self.lam = lam
        self.theta0 = theta0
        self.gamma0 = gamma0

    @staticmethod
    def _window(lib, rows, d_z, d_x, state, z, x, x_prime, y):
        return lib.online_2sls_window(rows, 1, d_z, d_x, *state, z, x, y)

    def _row(self, z, x, x_prime, y):
        self.theta_, self.gamma_, self.u_, self.v_ = online_2sls_update(self.theta_, self.gamma_, self.u_, self.v_,
                                                                        z, x, y)
