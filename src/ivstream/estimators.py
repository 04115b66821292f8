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
    gamma^T Z Z^T gamma. That does not make the coupled system stable from
    every initialisation: under the ``fig3`` preset's steps from gamma0 = 10,
    a first row with a large |z| makes the first gamma step overshoot and
    theta blow up, and at ``fig3`` seeds 7, 8, 11 and 101 one trial in 50
    has not recovered by T = 1e5 (the preset's seed 303 has no such trial).

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

The window loops are the one executed copy of each update: the harness steps
its lockstep trials through them, and each regressor's ``fit`` and
``partial_fit`` with B = 1; the 1-d kernels above state each update in numpy.
A :class:`Window` binds a loop once to B trials' stacked
state and one sample block per trial; each call steps a window of rows of
every block, read in place, and updates the state in place. The loops are C,
in ``_windows.c``, compiled with the system ``cc`` on the first bind, for the
CPU it runs on (see :mod:`ivstream._native`); importing the package, the 1-d
kernels and ``predict`` need no compiler. A product of more than one term is
summed in one order on every CPU and at every length, that of the OpenBLAS
routine numpy's ``@`` calls on OpenBLAS's SkylakeX core; one of one term is a
rounded multiply added to +0 as in numpy; and the elementwise arithmetic
keeps the 1-d kernels' order without fused multiply-adds. So each trial is
bitwise equal to the row updates of ``tests/reference.py``, the 1-d kernels
on those products, which the tests check it against, and to the 1-d kernels
themselves where OpenBLAS runs SkylakeX; no BLAS kernel or thread count moves
the loops' bits.
A loop steps every trial on each row before the next row; the one exception
is :func:`online_2sls_window` at d > 1, which steps each trial through the
whole window in turn, as that measured 4-8% cheaper per trial-row there
(``_windows.c``). At d_x = d_z = 1 the trials of a row run side by side in
SIMD lanes; a lane is its trial's scalar operations in their order, with no
sum across lanes and no product of more than one term, so the bits are the
same at every vector width. A trial runs the same operations in either
order, so a window's events are the OR of each trial's own.
:func:`two_timescale_window` steps S thetas on one gamma, for the specs that
share a first stage.

The ``*Regressor`` classes put a scikit-learn style surface on the loops;
fitted state lives in ``theta_`` (and ``gamma_``, ``u_``, ``v_``), and
:data:`REGRESSORS` maps each algorithm id to its class, which states its facts
for the harness too. ``fit`` is bitwise equal to ``partial_fit`` row by row,
and both report a row's floating-point events through numpy's error handling
(as "... encountered in divide"), so they warn and raise at the same row.

:func:`initial_state` builds every first iterate: the regressors', the harness's,
``ivstream check``'s and the oracle's. A real step size is a ``Constant`` schedule.
"""

from __future__ import annotations

import ctypes
import functools
import numbers
import operator

import numpy as np

from . import _native
from ._validation import as_float_matrix, as_float_vector, check_finite, check_in_place, check_positive
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


# Window loops. Each entry below checks B trials' state and sample blocks once
# and returns a :class:`Window` on them, whose ``step`` runs a window of rows
# through the compiled loop in ``_windows.c``, updating the state in place; the
# blocks are read in place, never written or copied. ``state`` is (theta,
# gamma), plus (U, V) for streaming 2SLS, with shapes (S, B, d_x), (B, d_z, d_x),
# (B, d_x, d_x) and (B, d_z, d_z), and ``direct`` holds the S thetas' flags; only
# :func:`two_timescale_window` takes S > 1 and reads the flags. ``z``, ``x``,
# ``x_prime`` and ``y`` hold one block per trial, of shapes (n, d_z), (n, d_x),
# (n, d_x) and (n,); a field the loop does not read may be None. Theta gives B,
# and the first trial's blocks give n, d_z and d_x.


def _trials(state) -> int:
    """B, the trial axis of theta: its second to last."""
    return next(iter(np.shape(state[0])[-2:]), 0)


def _table(blocks, shape, name, b) -> np.ndarray:
    """The addresses of the B trials' blocks of ``name``, each read in place."""
    if len(blocks) != b:
        raise ValueError(f"need one {name} block for each of the {b} trials, got {len(blocks)}")
    return np.array([check_in_place(a, shape, f"{name} block", writeable=False) for a in blocks], np.uintp)


class Window:
    """A window loop bound to B trials' state and sample blocks, all checked once, when it is made.

    :meth:`step` runs rows ``t0`` to ``t0 + rows - 1`` of every trial's blocks
    in one call of the loop, on addresses read once. The window holds the
    arrays whose addresses it passes; once a state part is replaced, make a
    new one. ``direct`` is the two-timescale loop's S flags, else None.
    """

    def __init__(self, loop: str, head: tuple, state: dict, fields: dict, n: int, direct=None):
        # ``state`` maps each state part's name to (array, shape), ``fields`` each field's to (blocks, shape).
        addresses = [check_in_place(a, shape, name) for name, (a, shape) in state.items()]
        tables = [_table(blocks, shape, name, head[0]) for name, (blocks, shape) in fields.items()]
        self.n, self.direct = n, direct
        self._held = ([a for a, _ in state.values()], [tuple(blocks) for blocks, _ in fields.values()], tables)
        loop = getattr(_native.loops(), loop)  # its arguments made C values once: each call converts fewer
        self._call = functools.partial(loop, *(c(a) for c, a in zip(loop.argtypes, (
            *head, *addresses, *(t.ctypes.data for t in tables)))))

    def step(self, t0: int, rows: int, alphas: int = 0, betas: int = 0) -> int:
        """Step rows ``t0`` to ``t0 + rows - 1`` and return the loop's events (see ``_windows.c``); ``alphas``
        and ``betas`` are the addresses of the rows' steps of the schedules it takes, 0 for one it does not."""
        if not 0 <= t0 < t0 + rows <= self.n:
            raise ValueError(f"rows {t0} to {t0 + rows} are not within the blocks' {self.n} rows")
        events = self._call(t0, rows, alphas, betas)
        if events < 0:
            raise MemoryError("the window loop could not allocate its work rows")
        return events


def two_sample_window(state, z, x, x_prime, y, direct) -> Window:
    """:func:`two_sample_update` on B trials; it takes ``alphas`` and reads neither gamma nor ``z``."""
    b, n, d_x = _trials(state), len(y[0]), np.shape(x[0])[-1]
    return Window("two_sample_window", (b, d_x), {"theta": (state[0], (1, b, d_x))},
                  {"x": (x, (n, d_x)), "x_prime": (x_prime, (n, d_x)), "y": (y, (n,))}, n)


def two_timescale_window(state, z, x, x_prime, y, direct) -> Window:
    """S two-timescale updates on one gamma over B trials; it takes ``alphas`` and ``betas``.

    ``state`` is (theta, gamma) with S thetas stacked as (S, B, d_x) and one
    gamma (B, d_z, d_x). Theta s takes :func:`direct_residual_update`'s raw
    residual X^T theta - Y when ``direct[s]``, else :func:`two_stage_update`'s
    predicted one (Z^T gamma) theta - Y; all S take the same alphas. The
    gamma step reads only (gamma, z, x, beta), never theta, so each theta is
    bitwise equal to its own one-theta run.
    """
    b, n, d_z, d_x, direct = _trials(state), len(y[0]), np.shape(z[0])[-1], np.shape(x[0])[-1], tuple(map(bool, direct))
    s = len(direct)
    return Window("two_timescale_window", (b, d_z, d_x, s, bytes(direct)),
                  {"theta": (state[0], (s, b, d_x)), "gamma": (state[1], (b, d_z, d_x))},
                  {"z": (z, (n, d_z)), "x": (x, (n, d_x)), "y": (y, (n,))}, n, direct)


def online_2sls_window(state, z, x, x_prime, y, direct) -> Window:
    """:func:`online_2sls_update` on B trials; it takes no steps.

    A trial whose rank-one denominator is not positive, where the 1-d kernel
    raises, is NaN from that row on, and the loop adds ``_NOT_POSITIVE`` to its
    events; a NaN denominator does not hide a negative one. The other trials go
    on, and the harness, which ignores the bit, records that trial as diverged.
    """
    b, n, d_z, d_x = _trials(state), len(y[0]), np.shape(z[0])[-1], np.shape(x[0])[-1]
    shapes = ((1, b, d_x), (b, d_z, d_x), (b, d_x, d_x), (b, d_z, d_z))
    return Window("online_2sls_window", (b, d_z, d_x), dict(zip(("theta", "gamma", "U", "V"), zip(state, shapes))),
                  {"z": (z, (n, d_z)), "x": (x, (n, d_x)), "y": (y, (n,))}, n)


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
#: The bit ``online_2sls_window`` adds when a rank-one denominator was not positive.
_NOT_POSITIVE = 16
# 1 / 0, 1e308 / 1e-10, 1e-308 / 1e10 and 0 / 0: each divide raises one event, in _FP_EVENTS' order.
_EVENT_DIVISIONS = np.array([[1.0, 1e308, 1e-308, 0.0], [0.0, 1e-10, 1e10, 0.0]])


def _report(events: int) -> None:
    """Report a loop call's events through numpy's error handling, one divide raising each floating-point event,
    so every ``np.errstate`` mode acts as numpy's own; a non-positive 2SLS denominator raises FloatingPointError."""
    if events < 0:
        raise MemoryError("the window loop could not allocate its work rows")
    if events:
        np.divide(*_EVENT_DIVISIONS[:, [i for i in range(4) if events >> i & 1]])
    if events & _NOT_POSITIVE:
        raise FloatingPointError("rank-one denominator is not positive; U/V state corrupted")


def _terms(s: StepSchedule) -> tuple[float, float]:
    """(coeff, exponent) of ``s`` for the loops' ``fit_steps``: a constant step has exponent 0."""
    return (float(s.alpha), 0.0) if isinstance(s, Constant) else (float(s.coeff), float(s.exponent))


# A regressor's loop bound with B = 1 to copies of its iterates, ``work``, to
# ``rows`` (z, x, x_prime and y, None for a field it does not read) and to
# ``steps``, room from ``steps_at`` for ``n`` rows' steps of two schedules, the
# most a loop takes. ``step_row`` steps the first row, as partial_fit does with
# n = 1; partial_fit also sets ``handed``, the iterates it last handed out.
class _Bound:
    def __init__(self, reg, rows, n: int):
        self.work = [np.array(getattr(reg, name), np.float64, order="C") for name in reg._iterates]
        state = (self.work[0][None, None], *(a[None] for a in self.work[1:]))
        self.window = reg._loop(state, *(None if a is None else (a,) for a in rows), (reg._raw_residual,))
        self.rows = [a.reshape(-1) for a in rows if a is not None]  # flat, for partial_fit to fill
        self.steps = (ctypes.c_double * (2 * n))()
        self.steps_at = ctypes.addressof(self.steps)
        # without Window.step's checks: partial_fit's one row is in range, and it checks for -1 (no memory) itself
        self.step_row = functools.partial(self.window._call, 0, 1, *(self.steps_at + 8 * n * j for j in range(2)))


class _BaseIVRegressor:
    """Shared scikit-learn style plumbing: params, prediction, validation, the update loop."""

    _param_names: tuple[str, ...] = ()
    _schedules: tuple[str, ...] = ()  # the step sizes the update takes, in its order
    _iterates = ("theta_", "gamma_")  # the attributes set from :func:`initial_state`, in its order
    _reads_x_prime = False  # whether a row holds X', the two-sample oracle's second draw
    _raw_residual = False  # whether the theta step takes the raw residual X^T theta - Y

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names}

    def set_params(self, **params) -> "_BaseIVRegressor":
        for name, value in params.items():
            if name not in self._param_names:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    # A copy or an unpickled regressor binds its own loop for partial_fit: the loop holds addresses.
    def __getstate__(self) -> dict:
        return {name: value for name, value in vars(self).items() if name != "_one_row"}

    def predict(self, X) -> np.ndarray:
        if not hasattr(self, "theta_"):
            raise AttributeError(f"{type(self).__name__} is not fitted yet")
        X = np.asarray(X, dtype=float)
        return as_float_matrix(X[None, :] if X.ndim == 1 else X, name="X") @ self.theta_

    # Sets up the iterates on first use; afterwards, checks the rows' widths.
    def _start(self, d_x: int, d_z: int) -> None:
        if not hasattr(self, "theta_"):
            start = initial_state(d_x, d_z, self.theta0, getattr(self, "gamma0", None), getattr(self, "lam", None))
            vars(self).update(zip(self._iterates, start), n_iter_=0)
        elif self.theta_.shape != (d_x,) or (hasattr(self, "gamma_") and self.gamma_.shape != (d_z, d_x)):
            raise ValueError(f"rows have d_x={d_x}, d_z={d_z}, which do not match the fitted state")

    def _stack(self, Z, X, y):
        Z = as_float_matrix(np.atleast_2d(np.asarray(Z, dtype=float)), name="Z")
        X = as_float_matrix(np.atleast_2d(np.asarray(X, dtype=float)), name="X")
        y = as_float_vector(y, name="y")
        if not (Z.shape[0] == X.shape[0] == y.shape[0]):
            raise ValueError("Z, X and y must have the same number of rows")
        return Z, X, y

    # The compiled loops are the one executed copy of each update.
    # ``partial_fit`` validates its row and runs ``_update_row``: it copies
    # the row into the one-row buffers of a loop it keeps bound (bound again
    # only when an attribute is not the array it last handed out: fit ran, or
    # a user set one), writes the row's steps, makes one call and reports the
    # row's events; then it hands out copies, so it never writes an array it
    # handed out. ``fit`` validates its rows once and runs ``_update_windows``:
    # it binds the loop to them and to copies of the iterates once, and steps
    # windows of up to FIT_WINDOW_ROWS rows, each after ``fit_steps`` has
    # computed its steps. A window that raised a floating-point event numpy
    # does not ignore, or met a non-positive 2SLS denominator, is undone and
    # its rows are stepped again one per call of the same loop, with the same
    # steps, each row's events reported as partial_fit reports them, so fit
    # warns or raises just where partial_fit does. A row that raises is
    # undone, so the iterates and ``n_iter_`` are as they were before it: the
    # rows before it are stepped again from the window's start in one call,
    # which gives the bits of one call per row.

    def _update_windows(self, Z, X, X_prime, y):
        self._start(X.shape[1], Z.shape[1])
        terms = np.array([_terms(_as_schedule(getattr(self, name), name)) for name in self._schedules], np.float64)
        n, k, terms_at = len(y), len(terms), terms.ctypes.data
        rows = [None if a is None else np.ascontiguousarray(a, np.float64) for a in (Z, X, X_prime, y)]
        bound = _Bound(self, rows, min(n, FIT_WINDOW_ROWS))
        errors = np.geterr()
        reported = sum(bit for name, bit in _FP_EVENTS.items() if errors[name] != "ignore") | _NOT_POSITIVE
        vars(self).update(zip(self._iterates, bound.work))
        for start in range(0, n, FIT_WINDOW_ROWS):
            size, before = min(FIT_WINDOW_ROWS, n - start), [a.copy() for a in bound.work]
            _native.loops().fit_steps(size, self.n_iter_, k, terms_at, bound.steps_at)
            at = [bound.steps_at + 8 * size * j for j in range(2)]  # the addresses of the window's steps
            if not bound.window.step(start, size, *at) & reported:
                self.n_iter_ += size
                continue
            for a, b in zip(bound.work, before):  # undo the window, then step its rows one per call
                np.copyto(a, b)
            for r in range(size):
                try:
                    _report(bound.window._call(start + r, 1, at[0] + 8 * r, at[1] + 8 * r))
                except BaseException:  # undo the row
                    for a, b in zip(bound.work, before):
                        np.copyto(a, b)
                    if r:
                        bound.window.step(start, r, *at)
                    raise
                self.n_iter_ += 1
        return self

    def _update_row(self, z, x, x_prime, y):
        self._start(x.shape[0], z.shape[0])
        one = self.__dict__.get("_one_row")
        if one is None or any(map(operator.is_not, map(self.__dict__.get, self._iterates), one.handed)):
            fields = (None, x, x_prime, y) if self._reads_x_prime else (z, x, None, y)
            one = self._one_row = _Bound(self, [None if a is None else np.empty((1, *np.shape(a))) for a in fields], 1)
        t = self.n_iter_ + 1
        for j, name in enumerate(self._schedules):
            one.steps[j] = step(_as_schedule(getattr(self, name), name), t)
        for row, value in zip(one.rows, (x, x_prime) if self._reads_x_prime else (z, x)):
            row[...] = value
        one.rows[-1][0] = y
        try:
            _report(one.step_row())
        except BaseException:  # the attributes keep the state before the row; its loop holds the row
            del self._one_row
            raise
        self.n_iter_, one.handed = t, [a.copy() for a in one.work]
        vars(self).update(zip(self._iterates, one.handed))
        return self

    def partial_fit(self, z, x, y: float):
        z, x, y = as_float_vector(z, name="z"), as_float_vector(x, name="x"), check_finite(y, "y")
        return self._update_row(z, x, None, y)

    def fit(self, Z, X, y):
        """Consume the rows of (Z, X, y) in order as a stream."""
        Z, X, y = self._stack(Z, X, y)
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
    _reads_x_prime = True
    _loop = staticmethod(two_sample_window)

    def __init__(self, alpha=0.01, theta0=None):
        self.alpha = alpha
        self.theta0 = theta0

    def partial_fit(self, z, x, y: float, x_prime) -> "TwoSampleSGDRegressor":
        z, x, y = as_float_vector(z, name="z"), as_float_vector(x, name="x"), check_finite(y, "y")
        x_prime = as_float_vector(x_prime, n=x.shape[0], name="x_prime")
        return self._update_row(z, x, x_prime, y)

    def fit(self, Z, X, y, X_prime) -> "TwoSampleSGDRegressor":
        """Consume the rows of (Z, X, y, X_prime) in order as a stream."""
        Z, X, y = self._stack(Z, X, y)
        X_prime = as_float_matrix(np.atleast_2d(np.asarray(X_prime, dtype=float)), X.shape, "X_prime")
        return self._update_windows(Z, X, X_prime, y)


class _TwoTimescaleRegressor(_BaseIVRegressor):
    _param_names = ("alpha", "beta", "theta0", "gamma0")
    _schedules = ("alpha", "beta")
    _loop = staticmethod(two_timescale_window)

    def __init__(self, alpha=0.01, beta=0.1, theta0=None, gamma0=None):
        self.alpha = alpha
        self.beta = beta
        self.theta0 = theta0
        self.gamma0 = gamma0


class TwoStageSGDRegressor(_TwoTimescaleRegressor):
    """Two-timescale streaming IV regression (instrument-predicted residual)."""


class DirectSGDRegressor(_TwoTimescaleRegressor):
    """Plug-in two-timescale variant (raw residual in the theta step)."""

    _raw_residual = True


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
    _loop = staticmethod(online_2sls_window)

    def __init__(self, lam=DEFAULT_RIDGE, theta0=None, gamma0=None):
        self.lam = lam
        self.theta0 = theta0
        self.gamma0 = gamma0


#: Each algorithm id of the harness and the configs, with the regressor class
#: that states its facts once: the schedules it takes (``_schedules``), whether
#: its rows hold X' (``_reads_x_prime``), whether its theta step takes the raw
#: residual (``_raw_residual``), its window loop (``_loop``), and ``lam`` among
#: its parameters for streaming 2SLS.
REGRESSORS = {
    "two_sample_sgd": TwoSampleSGDRegressor,
    "two_stage_sgd": TwoStageSGDRegressor,
    "direct_sgd": DirectSGDRegressor,
    "online_2sls": Online2SLSRegressor,
}
