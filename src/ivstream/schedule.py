"""Step-size schedules and the theoretical constants that parameterize them.

Two schedule shapes cover everything the streaming estimators need:

* ``Constant(alpha)`` — a fixed step size, with the horizon-tuned choice
  alpha = log(T) / (mu * T) provided by :func:`log_horizon_alpha`.
* ``Polynomial(coeff, exponent)`` — steps coeff * t**(-exponent); the
  two-timescale prescription with decay exponent 1 - iota/2 for both the
  fast and slow recursions is provided by :func:`two_timescale_schedules`.

:class:`TheoryConstants` collects the model-level quantities (strong
convexity, instrument spectrum bound, iterate-set diameter, gradient-noise
second moment, first-stage norm) from which the prescribed schedules are
computed. In simulation they are measured from the planted data-generating
process by :func:`ivstream.oracle.theory_constants`.

:func:`step` (libm's ``pow``) gives a regressor's ``partial_fit`` its steps, with the
bits of ``fit``'s, which C computes with the same ``pow``; :func:`steps` (numpy's ``power``) the harness's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._validation import as_float, check_nonnegative, check_positive


@dataclass(frozen=True)
class Constant:
    """Constant step size alpha > 0, kept as a Python float."""

    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_positive(self.alpha, "alpha"))


@dataclass(frozen=True)
class Polynomial:
    """Polynomially decaying step size coeff * t**(-exponent).

    The exponent must lie in (0, 1]; values below one keep the cumulative
    step mass divergent, which the streaming recursions rely on. Both numbers
    are kept as Python floats, so a numpy scalar given for one steps in
    float64 like any other number.
    """

    coeff: float
    exponent: float

    def __post_init__(self):
        object.__setattr__(self, "coeff", check_positive(self.coeff, "coeff"))
        e = as_float(self.exponent, "exponent")
        if not (0.0 < e <= 1.0):
            raise ValueError(f"exponent must be in (0, 1], got {e}")
        object.__setattr__(self, "exponent", e)


StepSchedule = Union[Constant, Polynomial]


def step(s: StepSchedule, t: int) -> float:
    """Step size at iteration t >= 1: coeff * t**(-exponent) by libm's ``pow``, as ``fit_steps`` in C."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if isinstance(s, Constant):
        return s.alpha
    return s.coeff * math.pow(t, -s.exponent)


def steps(s: StepSchedule, stop: int, start: int = 0) -> np.ndarray:
    """Vectorized step sizes for t = start + 1, ..., stop (used by the trial loop).

    numpy's SIMD ``power`` may differ from :func:`step` in the last bits
    (README, reproducibility), but each t's step does not depend on the range
    it is computed in.
    """
    if not 0 <= start < stop:
        raise ValueError(f"need 0 <= start < stop, got start={start}, stop={stop}")
    if isinstance(s, Constant):
        return np.full(stop - start, s.alpha)
    t = np.arange(start + 1, stop + 1, dtype=np.float64)
    return s.coeff * t ** (-s.exponent)


@dataclass(frozen=True)
class TheoryConstants:
    """Model constants from which the prescribed step-size rules are computed.

    Fields
    ------
    mu : strong-convexity constant, the smallest eigenvalue of
        E[E[X|Z] E[X|Z]^T].
    lambda_z : largest eigenvalue bound of Cov(Z).
    c_gamma : diameter of the fast-iterate set.
    sigma1_sq : second-moment bound on the X'X^T part of the two-sample
        gradient noise; when given, it clamps :func:`log_horizon_alpha`.
    gamma_star_norm : spectral norm of the planted first-stage parameter.
    """

    mu: float
    lambda_z: float = 1.0
    c_gamma: float = 1.0
    sigma1_sq: float | None = None
    gamma_star_norm: float = 1.0

    def __post_init__(self):
        check_positive(self.mu, "mu")
        check_positive(self.lambda_z, "lambda_z")
        check_positive(self.c_gamma, "c_gamma")
        check_nonnegative(self.gamma_star_norm, "gamma_star_norm")
        if self.sigma1_sq is not None:
            check_nonnegative(self.sigma1_sq, "sigma1_sq")


def log_horizon_alpha(T: int, k: TheoryConstants) -> tuple[Constant, bool]:
    """Horizon-tuned constant step size alpha = log(T) / (mu * T).

    The step is clamped to mu / (mu^2 + 3 * sigma1_sq) when ``sigma1_sq`` is
    supplied (the admissibility side condition for the constant-step rate).

    Returns
    -------
    (schedule, clamped) : the constant schedule and whether clamping bound.
    """
    T = int(T)
    if T < 2:
        raise ValueError(f"T must be >= 2, got {T}")
    alpha = math.log(T) / (k.mu * T)
    clamped = False
    if k.sigma1_sq is not None:
        bound = k.mu / (k.mu**2 + 3.0 * k.sigma1_sq)
        if alpha > bound:
            alpha = bound
            clamped = True
    return Constant(alpha), clamped


def two_timescale_schedules(k: TheoryConstants, d_z: int, iota: float = 0.1) -> tuple[Polynomial, Polynomial]:
    """Prescribed slow/fast schedules alpha_t, beta_t = C * t**(-(1 - iota/2)).

    ``iota`` > 0 is the rate-loss parameter of the one-sample rate
    O(1/T^(1 - iota)). The coefficients follow the worst-case prescription::

        C_alpha = min(0.5 / (lambda_z * c_gamma^2), 0.5 / (gamma_star_norm * lambda_z)^2)
        C_beta  = mu^2 * d_z**(-1) / 128

    Both schedules share the exponent 1 - iota/2. The exponent pair must
    satisfy the summability conditions 2*(1 - iota/2) > 1 and
    (3/2)*(1 - iota/2) > 1 that the convergence analysis relies on; the
    second implies the first, and the function raises when it fails.
    """
    d_z = int(d_z)
    if d_z < 1:
        raise ValueError("d_z must be >= 1")
    if k.gamma_star_norm <= 0.0:
        raise ValueError("gamma_star_norm must be positive to form the schedules")
    iota = check_positive(iota, "iota")
    exponent = 1.0 - iota / 2.0
    if not 1.5 * exponent > 1.0:
        raise ValueError(f"iota={iota} violates (3/2)*(1 - iota/2) > 1")
    c_alpha = min(0.5 / (k.lambda_z * k.c_gamma**2), 0.5 / (k.gamma_star_norm * k.lambda_z) ** 2)
    c_beta = k.mu**2 * d_z ** -1.0 / 128.0
    return Polynomial(c_alpha, exponent), Polynomial(c_beta, exponent)
