"""Closed-form population quantities for the synthetic models.

For a linear well-specified process the identifying moments are

    gamma_closed = Sigma_Z^{-1} Sigma_ZX
    theta_closed = (gamma_closed^T Sigma_Z gamma_closed)^{-1} gamma_closed^T Sigma_ZY,

and instrument exogeneity (E[Z] = 0, noise independent of Z) makes
Sigma_ZX = Sigma_Z gamma_star and Sigma_ZY = Sigma_Z gamma_star theta_star,
so theta_closed recovers the planted parameter exactly.

The objective minimised by the streaming estimators is the squared loss of
the conditional means, whose gradient is

    grad F(theta) = M theta - b,
    M = E[E[X|Z] E[X|Z]^T],    b = E[E[Y|Z] E[X|Z]].

For the endogenous-linear family b = M theta_star, so grad F(theta) =
M (theta - theta_star). For the shared-confounder family the confounder mean
shifts the conditional means (E[X|Z] picks up c * 1 and E[Y|Z] picks up c),
which leaves theta_closed untouched but adds a constant to b; the oracle
reports M and b for the process actually sampled, so the Monte-Carlo mean of
the two-sample gradient estimator matches :func:`grad_f` without correction.

Nonlinear links have no closed form here; use :func:`mc_moments`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import _native
from ._validation import as_float_vector, check_symmetric_pd
from .dgp import DgpConfig, EndogenousLinear, conditional_mean_x, sample_two_block
from .estimators import initial_state
from .schedule import TheoryConstants


@dataclass(frozen=True, eq=False)
class PopulationSummary:
    """Population moments of a data-generating process.

    ``cond_xx`` is M = E[E[X|Z] E[X|Z]^T] and ``cond_xy`` is
    b = E[E[Y|Z] E[X|Z]]; together they determine the population gradient.
    ``mu`` is the smallest eigenvalue of M (the strong-convexity constant).
    """

    gamma_closed: NDArray[np.float64]
    theta_closed: NDArray[np.float64]
    mu: float
    cond_xx: NDArray[np.float64]
    cond_xy: NDArray[np.float64]


def _solve_spd(a: NDArray[np.float64], rhs: NDArray[np.float64], name: str) -> NDArray[np.float64]:
    """Solve a x = rhs for symmetric positive-definite a, with a condition check."""
    a = 0.5 * (a + a.T)
    check_symmetric_pd(a, name)
    return np.linalg.solve(a, rhs)


def _summary(sigma_z, sigma_zx, sigma_zy, cond_xx, cond_xy) -> PopulationSummary:
    """The summary of a process with these second moments of (Z, X, Y) and M, b.

    gamma and theta come from the identifying two-stage solves, and ``mu`` from
    0.5 (M + M^T), which is M itself, bit for bit, when M is symmetric.
    """
    gamma_closed = _solve_spd(sigma_z, sigma_zx, "sigma_z")
    gzg = gamma_closed.T @ sigma_z @ gamma_closed
    theta_closed = _solve_spd(gzg, gamma_closed.T @ sigma_zy, "gamma^T sigma_z gamma")
    mu = float(np.linalg.eigvalsh(0.5 * (cond_xx + cond_xx.T))[0])
    if mu <= 0.0:
        raise ValueError("conditional-mean second moment is not positive definite")
    return PopulationSummary(gamma_closed, theta_closed, mu, cond_xx, cond_xy)


def summarize(cfg: DgpConfig) -> PopulationSummary:
    """Analytic population summary for a linear-link process.

    Raises ``ValueError`` for the square link, which has no closed form in
    this module; use :func:`mc_moments` instead.
    """
    if not cfg.is_linear:
        raise ValueError("no closed-form summary for the square link; use mc_moments")
    sigma_z = cfg.z_cov
    gamma = cfg.gamma_star
    theta = cfg.theta_star
    sigma_zx = sigma_z @ gamma
    cond_xx = gamma.T @ sigma_z @ gamma
    cond_xy = cond_xx @ theta
    if isinstance(cfg.family, EndogenousLinear):
        c = 0.0
    else:
        c = cfg.family.c
    if c > 0.0:
        ones = np.ones(cfg.d_x)
        cond_xx = cond_xx + c**2 * np.outer(ones, ones)
        # E[Y|Z] = theta . E[X|Z] + c, so b gains c^2 * 1 on top of M theta.
        cond_xy = cond_xx @ theta + c**2 * ones
    return _summary(sigma_z, sigma_zx, sigma_zx @ theta, cond_xx, cond_xy)


def grad_f(theta, summary: PopulationSummary) -> NDArray[np.float64]:
    """Population gradient M theta - b at ``theta``."""
    theta = as_float_vector(theta, summary.cond_xx.shape[0], "theta")
    return summary.cond_xx @ theta - summary.cond_xy


def _moments(z, x, x_p, y) -> PopulationSummary:
    """The Monte-Carlo summary of these two-sample draws: see :func:`mc_moments`."""
    n, d_x = x.shape
    cond_xx, cond_xy = np.empty((d_x, d_x)), np.empty(d_x)
    _native.loops().cross_sums(n, d_x, x.ctypes.data, x_p.ctypes.data, y.ctypes.data, cond_xx.ctypes.data,
                               cond_xy.ctypes.data)
    cond_xx = cond_xx / n
    cond_xx = 0.5 * (cond_xx + cond_xx.T)
    return _summary(z.T @ z / n, z.T @ x / n, z.T @ y / n, cond_xx, cond_xy / n)


def mc_moments(rng: np.random.Generator, cfg: DgpConfig, n: int) -> PopulationSummary:
    """Monte-Carlo population summary from ``n`` two-sample draws.

    Works for every family, including the square link. The conditional-mean
    second moments are estimated by the two-sample product X' X^T, which is
    unbiased for M without knowing the conditional means. The sums over the
    draws of X' X^T and X' Y are the compiled ``cross_sums``, bitwise numpy's
    ``.sum(axis=0)`` of the (n, d_x, d_x) and (n, d_x) products, and numpy
    divides them by n.
    """
    n = int(n)
    if n < 1000:
        raise ValueError(f"n must be >= 1000, got {n}")
    return _moments(*sample_two_block(rng, cfg, n))


#: Seed and size of the Monte-Carlo samples behind the measured constants.
_MC_SEED = 0xC0FFEE
_MC_N = 50_000


def theory_constants(cfg: DgpConfig, gamma0=None) -> TheoryConstants:
    """Measure schedule constants from the planted process.

    The Monte-Carlo parts take 50 000 draws each from one ``PCG64(0xC0FFEE)``
    stream, whatever the caller, so a process always gets the same constants
    and so the same schedules.

    ``mu`` comes from the analytic summary when the link is linear and from
    :func:`mc_moments`'s summary of the stream's first 50 000 draws
    otherwise. The gradient-noise second moment ``sigma1_sq`` is measured by
    Monte Carlo, from the next 50 000 draws (drawn into the same arrays), in
    the Frobenius norm (an upper bound on the spectral-norm moment, so the
    step-size clamp derived from it stays valid): the compiled
    ``noise_norms`` gives each draw's squared norms, bitwise numpy's
    ``.sum(axis=(1, 2))`` of the (n, d_x, d_x) deviations, and numpy takes
    their means. The fast-iterate set diameter ``c_gamma`` covers a ball
    around the planted first-stage parameter that contains the
    initialisation ``gamma0`` (default zero).

    A single process pins the constants at its actual d_z, so they include
    any growth with d_z. The schedule's rate-loss parameter ``iota`` is not
    a property of the process; it is an argument of
    :func:`ivstream.schedule.two_timescale_schedules`.
    """
    rng = np.random.Generator(np.random.PCG64(_MC_SEED))
    draws = sample_two_block(rng, cfg, _MC_N)
    if cfg.is_linear:
        summary = summarize(cfg)
    else:  # mc_moments's draws, then the sigma1_sq draws into the same arrays
        summary = _moments(*draws)
        sample_two_block(rng, cfg, _MC_N, out=draws)
    lambda_z = float(np.linalg.eigvalsh(cfg.z_cov)[-1])
    gamma = cfg.gamma_star
    gnorm_spec = float(np.linalg.norm(gamma, 2))
    gnorm_fro = float(np.linalg.norm(gamma))
    g0 = initial_state(cfg.d_x, cfg.d_z, gamma0=gamma0)[1]
    c_gamma = max(2.0 * gnorm_fro, float(np.linalg.norm(g0 - gamma)) + gnorm_fro)

    z, x, x_p, _ = draws
    m_z = conditional_mean_x(cfg, z)
    # Frobenius-norm analogue of the gradient-noise second-moment bound.
    sq_xx, sq_mm, work = np.empty(_MC_N), np.empty(_MC_N), np.empty(cfg.d_x**2)
    _native.loops().noise_norms(_MC_N, cfg.d_x, x.ctypes.data, x_p.ctypes.data, m_z.ctypes.data,
                                summary.cond_xx.ctypes.data, sq_xx.ctypes.data, sq_mm.ctypes.data, work.ctypes.data)
    sigma1_sq = 2.0 * float(sq_xx.mean()) + 2.0 * float(sq_mm.mean())

    return TheoryConstants(
        mu=summary.mu,
        lambda_z=lambda_z,
        c_gamma=c_gamma,
        sigma1_sq=sigma1_sq,
        gamma_star_norm=gnorm_spec,
    )

