"""Synthetic data-generating processes for streaming instrumental-variable regression.

Two Gaussian model families are implemented. Both share the structure

    Y = theta_star . X + (outcome noise),    X = link(gamma_star^T Z) + (regressor noise),

where the two noise terms are correlated, so ordinary least squares of Y on X
is biased and Z serves as the instrument.

``shared_confounder`` family (elementwise link ``phi``, confounding strength ``c``)::

    Z  ~ N(0, z_cov)
    X  = phi(gamma_star^T Z) + c * (h + e_x)      h ~ N(1, I_dx), e_x ~ N(0, I_dx)
    Y  = theta_star^T X + c * (h_1 + e_y)         e_y ~ N(0, 1)

The confounder ``h`` enters both X and Y (through its first coordinate h_1),
and ``phi`` is either the identity or the elementwise square. Note that h has
mean one, so E[X | Z] = phi(gamma_star^T Z) + c * 1; the population oracles in
:mod:`ivstream.oracle` account for this shift.

``endogenous_linear`` family (endogeneity level ``rho``)::

    Z  ~ N(0, z_cov)
    X  = gamma_star^T Z + eps                     eps ~ N(0, sigma_eps^2 I_dx)
    Y  = theta_star^T X + nu                      nu = rho * eps_1 + N(0, 0.25)

``rho`` couples the outcome noise to the first coordinate of the regressor
noise; ``sigma_eps`` controls the instrument strength. The distribution of Z
defaults to a standard normal (``z_cov = I``).

Two-sample oracle
-----------------
:func:`sample_two_block` is the one-sample draw with a second copy X' of X
that is independent of X conditionally on Z (a fresh confounder and fresh
noise); Y is generated from X's noise realisation. This is the sampling
interface required by the two-sample gradient estimator.

Stream layout
-------------
All samplers draw from a ``numpy.random.Generator`` in one frozen order, so a
given seed always reproduces the same stream, independent of how trials are
scheduled:

1. the Z block, (n, d_z);
2. for each copy of X in turn (X, then X' in the two-sample oracle), its
   noise: ``eps`` (n, d_x) for ``endogenous_linear``, or ``h`` then ``e_x``,
   each (n, d_x), for ``shared_confounder``;
3. the outcome noise, (n,): ``w`` ~ N(0, 1), which enters nu as 0.5 * w,
   or ``e_y``.

A stream of single observations is the rows of one :func:`sample_one_block`
call; :func:`test_set` boxes such rows as :class:`OneSample` objects. A draw
returns new arrays, or fills the caller's ``out`` arrays in place with the
same bits, as the harness fills one buffer with every block of a pass; the
harness's stream digest reads the generator's state after each draw.

Normals
-------
The generator must be a PCG64 one; any other bit generator is refused with
``ValueError``. Each normal block is drawn by the compiled sampler of
``_windows.c`` (built on first use, see :mod:`ivstream._native`), which
returns the bits of ``rng.standard_normal`` and leaves the generator where
that call would. It steps the generator's state in place, through the address
numpy's ``bit_generator.ctypes.state_address`` gives, not through the
``bit_generator.state`` dict. It writes each normal block straight into the
array that keeps it, Z or a copy of X, or else into one scratch array, and the
model's arithmetic runs in place, so a draw allocates that scratch and no
other block beside the ones it returns (see :func:`_draw`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np
from numpy.typing import NDArray

from . import _native
from ._validation import (
    as_float_matrix,
    as_float_vector,
    check_finite,
    check_in_place,
    check_integer,
    check_nonnegative,
    check_positive,
    check_symmetric_pd,
)

PHI_IDENTITY = "identity"
PHI_SQUARE = "square"

# Standard deviation of the exogenous part of the outcome noise nu in the
# endogenous_linear family: nu = rho * eps_1 + N(0, 0.25).
_NU_EXTRA_STD = 0.5


@dataclass(frozen=True)
class SharedConfounder:
    """Family parameters: elementwise link and confounding strength c >= 0, kept as a Python float."""

    c: float
    phi: str = PHI_IDENTITY

    def __post_init__(self):
        object.__setattr__(self, "c", check_nonnegative(self.c, "c"))
        if self.phi not in (PHI_IDENTITY, PHI_SQUARE):
            raise ValueError(f"phi must be '{PHI_IDENTITY}' or '{PHI_SQUARE}', got {self.phi!r}")


@dataclass(frozen=True)
class EndogenousLinear:
    """Family parameters: endogeneity level rho and regressor noise scale, kept as Python floats."""

    rho: float
    sigma_eps: float

    def __post_init__(self):
        object.__setattr__(self, "rho", check_finite(self.rho, "rho"))
        object.__setattr__(self, "sigma_eps", check_positive(self.sigma_eps, "sigma_eps"))


Family = Union[SharedConfounder, EndogenousLinear]


@dataclass(frozen=True, eq=False)
class DgpConfig:
    """Full description of a synthetic data-generating process.

    Parameters
    ----------
    d_x, d_z : int
        Dimensions of the regressor X and the instrument Z, with d_z >= d_x.
    theta_star : array of shape (d_x,)
        Planted causal parameter.
    gamma_star : array of shape (d_z, d_x)
        Planted first-stage parameter.
    family : SharedConfounder or EndogenousLinear
        Noise/confounding model.
    z_cov : array of shape (d_z, d_z), optional
        Instrument covariance; defaults to the identity.

    Construction validates that gamma_star^T z_cov gamma_star is positive
    definite (the identification condition for the planted model) and that
    all entries are finite.
    """

    d_x: int
    d_z: int
    theta_star: NDArray[np.float64]
    gamma_star: NDArray[np.float64]
    family: Family
    z_cov: NDArray[np.float64] = None  # type: ignore[assignment]
    _z_chol: NDArray[np.float64] = field(init=False, repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self):
        d_x = check_integer(self.d_x, "d_x")
        d_z = check_integer(self.d_z, "d_z")
        if d_x < 1:
            raise ValueError("d_x must be >= 1")
        if d_z < d_x:
            raise ValueError(f"d_z must be >= d_x, got d_z={d_z} < d_x={d_x}")
        object.__setattr__(self, "d_x", d_x)
        object.__setattr__(self, "d_z", d_z)
        object.__setattr__(self, "theta_star", as_float_vector(self.theta_star, d_x, "theta_star"))
        object.__setattr__(self, "gamma_star", as_float_matrix(self.gamma_star, (d_z, d_x), "gamma_star"))
        z_cov = np.eye(d_z) if self.z_cov is None else self.z_cov
        z_cov = check_symmetric_pd(z_cov, "z_cov")
        if z_cov.shape != (d_z, d_z):
            raise ValueError(f"z_cov must have shape ({d_z}, {d_z}), got {z_cov.shape}")
        object.__setattr__(self, "z_cov", z_cov)
        if not isinstance(self.family, (SharedConfounder, EndogenousLinear)):
            raise ValueError(f"unknown family {self.family!r}")
        # Identification: gamma_star^T z_cov gamma_star must be PD.
        gzg = self.gamma_star.T @ z_cov @ self.gamma_star
        check_symmetric_pd(0.5 * (gzg + gzg.T), "gamma_star^T z_cov gamma_star")
        # None for the identity, whose factor would leave each Z block unchanged.
        object.__setattr__(self, "_z_chol", None if np.array_equal(z_cov, np.eye(d_z)) else np.linalg.cholesky(z_cov))

    @property
    def is_linear(self) -> bool:
        """True when E[X | Z] is affine in Z (closed-form moments exist)."""
        return isinstance(self.family, EndogenousLinear) or self.family.phi == PHI_IDENTITY


@dataclass(frozen=True, eq=False)
class OneSample:
    """A single streamed observation (z, x, y)."""

    z: NDArray[np.float64]
    x: NDArray[np.float64]
    y: float

    def __post_init__(self):
        object.__setattr__(self, "z", as_float_vector(self.z, name="z"))
        object.__setattr__(self, "x", as_float_vector(self.x, name="x"))
        y = float(self.y)
        if not np.isfinite(y):
            raise ValueError("y must be finite")
        object.__setattr__(self, "y", y)


def identity_block(d_z: int, d_x: int) -> NDArray[np.float64]:
    """Default first-stage parameter: gamma[i, j] = 1 for i == j <= d_x, else 0."""
    g = np.zeros((d_z, d_x))
    np.fill_diagonal(g, 1.0)
    return g


def unit_theta(d_x: int) -> NDArray[np.float64]:
    """Default planted parameter: the unit vector (1, ..., 1) / sqrt(d_x)."""
    return np.ones(d_x) / np.sqrt(d_x)


def shared_confounder_config(
    d_x: int,
    d_z: int,
    c: float,
    phi: str = PHI_IDENTITY,
    theta_star=None,
    gamma_star=None,
    z_cov=None,
) -> DgpConfig:
    """Build a shared-confounder config with the standard defaults."""
    theta = unit_theta(d_x) if theta_star is None else theta_star
    gamma = identity_block(d_z, d_x) if gamma_star is None else gamma_star
    return DgpConfig(d_x, d_z, theta, gamma, SharedConfounder(c=c, phi=phi), z_cov)


def endogenous_linear_config(
    d_x: int,
    d_z: int,
    rho: float,
    sigma_eps: float,
    theta_star=None,
    gamma_star=None,
    z_cov=None,
) -> DgpConfig:
    """Build an endogenous-linear config with the standard defaults."""
    theta = unit_theta(d_x) if theta_star is None else theta_star
    gamma = identity_block(d_z, d_x) if gamma_star is None else gamma_star
    return DgpConfig(d_x, d_z, theta, gamma, EndogenousLinear(rho=rho, sigma_eps=sigma_eps), z_cov)


def _link(cfg: DgpConfig, z_block: NDArray[np.float64], out=None) -> NDArray[np.float64]:
    """phi(gamma_star^T z) for each row, in ``out`` when given: the square only for a square-link family."""
    base = np.matmul(z_block, cfg.gamma_star, out=out)
    if isinstance(cfg.family, SharedConfounder) and cfg.family.phi == PHI_SQUARE:
        np.square(base, out=base)
    return base


def conditional_mean_x(cfg: DgpConfig, z_block: NDArray[np.float64]) -> NDArray[np.float64]:
    """E[X | Z = z] for each row of ``z_block``: the link, plus c * 1 for a shared confounder."""
    mean = _link(cfg, z_block)
    return mean if isinstance(cfg.family, EndogenousLinear) else mean + cfg.family.c


def _normals(rng: np.random.Generator):
    """A function that fills a C-contiguous float64 array with ``rng.standard_normal(out.shape)``, bit for bit,
    by the compiled sampler, and returns it.

    The sampler steps the PCG64 state in place, at ``bit_generator.ctypes.state_address``, so after each
    call the generator sits where ``standard_normal`` would have left it.
    """
    bit_generator = rng.bit_generator
    if not isinstance(bit_generator, np.random.PCG64):
        raise ValueError(f"the streams are drawn from a PCG64 generator, got {type(bit_generator).__name__}")
    fill = _native.loops().standard_normals

    def normal(out: NDArray[np.float64]) -> NDArray[np.float64]:
        fill(bit_generator.ctypes.state_address, out.size, out.ctypes.data)
        return out

    return normal


def _blocks(out, shapes: tuple) -> tuple:
    """``out``, checked to hold one writeable C-contiguous float64 array of each of ``shapes``, or new arrays."""
    if out is None:
        return tuple(np.empty(shape) for shape in shapes)
    out = tuple(out)
    if len(out) != len(shapes):
        raise ValueError(f"out must hold {len(shapes)} arrays, got {len(out)}")
    for a, shape in zip(out, shapes):
        check_in_place(a, shape, "an out array")
    return out


def _draw(rng: np.random.Generator, cfg: DgpConfig, n: int, copies: int, out) -> tuple:
    """``(Z, X_1, ..., X_copies, Y)``, in ``out`` when given: copies of X independent given Z, Y from X_1.

    The blocks are drawn in the module's frozen layout and the model's
    arithmetic runs in place, each operation on the operands, and in the
    order, of the model's formula: Y adds its terms to theta_star^T X_1 one at
    a time, as summing the terms first would move the last bit. Until then Y's
    array holds rho * eps_1, or h_1 and then c * (e_y + h_1). The one
    temporary, an (n, d_x) scratch ((n, d_z) when z_cov is not the identity),
    holds in turn Z's normals, each copy's e_x, e_y, the link, theta_star^T X_1
    and w.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d_x, d_z = cfg.d_x, cfg.d_z
    z, *xs, y = out = _blocks(out, ((n, d_z), *[(n, d_x)] * copies, (n,)))
    normal = _normals(rng)
    scratch = np.empty(n * (d_x if cfg._z_chol is None else d_z))
    link, head = scratch[:n * d_x].reshape(n, d_x), scratch[:n]
    if cfg._z_chol is None:
        normal(z)
    else:
        np.matmul(normal(scratch.reshape(n, d_z)), cfg._z_chol.T, out=z)
    fam = cfg.family
    if isinstance(fam, EndogenousLinear):
        for x in xs:
            normal(x)  # eps
            x *= fam.sigma_eps
        np.multiply(fam.rho, xs[0][:, 0], out=y)  # rho * eps_1
    else:
        for x in xs:
            normal(x)  # h
            x += 1.0
            if x is xs[0]:
                np.copyto(y, x[:, 0])  # X_1's confounder h_1 also enters Y
            x += normal(link)  # + e_x
            x *= fam.c
        np.add(normal(head), y, out=y)  # e_y + h_1
        y *= fam.c
    _link(cfg, z, out=link)
    for x in xs:
        x += link
    np.add(np.matmul(xs[0], cfg.theta_star, out=head), y, out=y)
    if isinstance(fam, EndogenousLinear):  # nu's last term, 0.5 * w, drawn once the link has left the scratch
        w = normal(head)
        w *= _NU_EXTRA_STD
        y += w
    return out


def sample_one_block(rng: np.random.Generator, cfg: DgpConfig, n: int, *, out=None):
    """Draw ``n`` one-sample observations as arrays ``(Z, X, Y)``.

    Shapes: Z is (n, d_z), X is (n, d_x), Y is (n,). ``out``, three writeable C-contiguous float64 arrays of
    these shapes, takes the draw in place, bit for bit the arrays it would return otherwise; any other
    ``out`` raises ``ValueError``. Either way the generator ends where the draw of new arrays leaves it.
    """
    return _draw(rng, cfg, n, 1, out)


def sample_two_block(rng: np.random.Generator, cfg: DgpConfig, n: int, *, out=None):
    """Draw ``n`` two-sample observations as arrays ``(Z, X, X', Y)``.

    X and X' are conditionally independent given Z: X' is built from a fresh
    confounder and fresh noise. Y uses X's noise realisation; ``out`` (four arrays, X' shaped as X) is as in
    :func:`sample_one_block`.
    """
    return _draw(rng, cfg, n, 2, out)


def test_set(rng: np.random.Generator, cfg: DgpConfig, n: int) -> list[OneSample]:
    """Draw ``n`` i.i.d. held-out observations for test-MSE evaluation."""
    z, x, y = sample_one_block(rng, cfg, n)
    return [OneSample(z=z[i], x=x[i], y=float(y[i])) for i in range(n)]
