"""The window loops' arithmetic, stated again in Python: the tests' bitwise and floating-point-event reference.

``vecdot``, ``matvec`` and ``vecmat`` sum their terms in the order that
``dot_order``, ``matvec_order`` and ``vecmat_order`` of ``_windows.c`` state,
the order of OpenBLAS 0.3.31's SkylakeX ``ddot`` and ``dgemv``, on every CPU
and at every length. Each ``fma`` is libm's, one rounding of ``a * b + c``;
every other ``+`` and ``*`` is one Python float operation, one rounding. A
sum of one term is ``0. + a * b``.

The four row updates are the 1-d kernels of :mod:`ivstream.estimators`, line
for line, on these products and on Python floats: a vector is a list, a
matrix a list of rows (``ndarray.tolist``), and each update returns new
lists. ``online_2sls_update`` raises ``FloatingPointError`` where the 1-d
kernel does.

Python floats, ctypes and libm raise the CPU's floating-point flags and never
clear them, so :func:`run` clears the flags, runs a function and returns the
events it raised as the loops' bits: divide 1, overflow 2, underflow 4,
invalid 8. numpy clears the flags around its own arithmetic, numpy scalars
included, so the updates take their scalars as Python floats and no numpy
call runs in between.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import math

_libm = ctypes.CDLL(ctypes.util.find_library("m"))
fma = _libm.fma
fma.argtypes, fma.restype = (ctypes.c_double,) * 3, ctypes.c_double
_libm.log.argtypes, _libm.log.restype = (ctypes.c_double,), ctypes.c_double
for _f in (_libm.feclearexcept, _libm.fetestexcept):
    _f.argtypes, _f.restype = (ctypes.c_int,), ctypes.c_int
_ALL = -1  # every flag: feclearexcept and fetestexcept mask it with FE_ALL_EXCEPT


def _flags(op, *args) -> int:
    """The flags that libm's ``op`` raises on ``args``."""
    _libm.feclearexcept(_ALL)
    op(*args)
    return _libm.fetestexcept(_ALL)


# This platform's FE_* flag of each of the loops' event bits, found by raising it.
_INEXACT = _flags(fma, 0.1, 0.1, 0.0)
_EVENT_FLAGS = {1: _flags(_libm.log, 0.0), 2: _flags(fma, 1e308, 10.0, 0.0) & ~_INEXACT,
                4: _flags(fma, 1e-300, 1e-300, 0.0) & ~_INEXACT, 8: _flags(fma, math.inf, 0.0, 0.0)}


def run(fn, *args):
    """``(result, events)``: what ``fn(*args)`` returns, or the ``FloatingPointError`` it raised, as
    :func:`online_2sls_update` does, and the floating-point events it raised, as the loops' bits."""
    _libm.feclearexcept(_ALL)
    try:
        result = fn(*args)
    except FloatingPointError as e:
        result = e
    raised = _libm.fetestexcept(_ALL)
    return result, sum(bit for bit, flag in _EVENT_FLAGS.items() if raised & flag)


def vecdot(a, b) -> float:
    """``np.vecdot(a, b)``: one term is 0. + a * b; more go by ``dot_order``."""
    n = len(a)
    if n == 1:
        return 0.0 + a[0] * b[0]
    s, i = 0.0, 0
    if n >= 16:
        c = [[0.0] * 4 for _ in range(4)]
        if n >= 32:
            w = [[0.0] * 4 for _ in range(8)]  # accumulator k's lanes 0-3 in w[2 k], 4-7 in w[2 k + 1]
            for i in range(0, n & -32, 32):
                for q in range(8):
                    for j in range(4):
                        w[q][j] = fma(a[i + 4 * q + j], b[i + 4 * q + j], w[q][j])
            i = n & -32
            c = [[w[2 * k][j] + w[2 * k + 1][j] for j in range(4)] for k in range(4)]
        if i < (n & -16):
            for k in range(4):
                for j in range(4):
                    c[k][j] = fma(a[i + 4 * k + j], b[i + 4 * k + j], c[k][j])
            i += 16
        v = [((c[0][j] + c[1][j]) + c[2][j]) + c[3][j] for j in range(4)]
        s = (v[0] + v[2]) + (v[1] + v[3])
    for i in range(i, n):
        s = fma(a[i], b[i], s)
    return 0.0 + s


def matvec(a, x) -> list:
    """``np.matvec(a, x)`` on the rows of ``a``: a single row is a dot; an inner length of one, 0. + a * x;
    else ``matvec_order``."""
    m, n = len(a), len(x)
    if m == 1:
        return [vecdot(a[0], x)]
    if n == 1:
        return [0.0 + row[0] * x[0] for row in a]
    n4, out = n & -4, [0.0] * m
    for r in range(0, m & -4, 4):  # four rows at a time, each round 4 lanes by fmas
        for q in range(4):
            lane = [0.0] * 4
            for i in range(n4):
                lane[i & 3] = fma(a[r + q][i], x[i], lane[i & 3])
            out[r + q] = 0.0 + ((lane[0] + lane[2]) + (lane[1] + lane[3]))
    for r in range(m & -4, m):  # then by products and adds: a pair of rows round 2 lanes, a last row round 4
        lanes = 2 if r < (m & -2) else 4
        lane = [0.0] * 4
        for i in range(n4):
            lane[i % lanes] = lane[i % lanes] + a[r][i] * x[i]
        out[r] = 0.0 + (lane[0] + lane[1] if lanes == 2 else (lane[0] + lane[2]) + (lane[1] + lane[3]))
    for r in range(m if n > n4 else 0):  # the last n % 4 terms
        ra, rx = a[r][n4:], x[n4:]
        if n - n4 == 1:
            out[r] = fma(ra[0], rx[0], out[r])
        elif n - n4 == 2:
            out[r] = out[r] + fma(ra[0], rx[0], ra[1] * rx[1])
        else:
            out[r] = out[r] + fma(ra[2], rx[2], fma(ra[0], rx[0], ra[1] * rx[1]))
    return out


def vecmat(x, a) -> list:
    """``np.vecmat(x, a)`` on the rows of ``a``: a single column is a dot; a single row, 0. + x * a; else
    ``vecmat_order``."""
    n, m = len(a), len(a[0])
    if m == 1:
        return [vecdot(x, [row[0] for row in a])]
    if n == 1:
        return [0.0 + x[0] * a[0][k] for k in range(m)]
    n4, m4 = n & -4, m & -4
    out = [0.0] * m
    for i in range(0, n4, 4):  # outputs below m & -4: a chain of 4 rows of a, then 2, then 1
        a0, a1, a2, a3 = a[i:i + 4]
        for k in range(m4):
            out[k] = out[k] + fma(a3[k], x[i + 3], fma(a2[k], x[i + 2], fma(a0[k], x[i], a1[k] * x[i + 1])))
    if n & 2:
        for k in range(m4):
            out[k] = out[k] + fma(a[n4][k], x[n4], a[n4 + 1][k] * x[n4 + 1])
    if n & 1:
        for k in range(m4):
            out[k] = out[k] + a[n - 1][k] * x[n - 1]
    for j in range(m4, m):  # the rest: two chains of 2 a block when m < 4, then a chain from 0.
        t, i = 0.0, 0
        if m < 4:
            for i in range(0, n4, 4):
                t = t + fma(a[i][j], x[i], a[i + 1][j] * x[i + 1])
                t = t + fma(a[i + 2][j], x[i + 2], a[i + 3][j] * x[i + 3])
            i = n4
        for i in range(i, n):
            t = fma(a[i][j], x[i], t)
        out[j] = 0.0 + t
    return out


def two_sample_update(theta, x, x_prime, y, alpha):
    """``estimators.two_sample_update``."""
    y, alpha = float(y), float(alpha)
    resid = vecdot(x, theta) - y
    return [t - (alpha * resid) * xp for t, xp in zip(theta, x_prime)]


def two_stage_update(theta, gamma, z, x, y, alpha, beta):
    """``estimators.two_stage_update``: (theta', gamma')."""
    y, alpha, beta = float(y), float(alpha), float(beta)
    zg = vecmat(z, gamma)
    pred_resid = vecdot(zg, theta) - y
    new_theta = [t - (alpha * pred_resid) * g for t, g in zip(theta, zg)]
    return new_theta, _first_stage(gamma, z, x, zg, beta)


def direct_residual_update(theta, gamma, z, x, y, alpha, beta):
    """``estimators.direct_residual_update``: (theta', gamma')."""
    y, alpha, beta = float(y), float(alpha), float(beta)
    zg = vecmat(z, gamma)
    resid = vecdot(x, theta) - y
    new_theta = [t - (alpha * resid) * g for t, g in zip(theta, zg)]
    return new_theta, _first_stage(gamma, z, x, zg, beta)


def _first_stage(gamma, z, x, zg, beta):
    """gamma - (beta * z)[:, None] * (zg - x)[None, :]."""
    bz, zg_x = [beta * e for e in z], [g - e for g, e in zip(zg, x)]
    return [[g - b * d for g, d in zip(row, zg_x)] for row, b in zip(gamma, bz)]


def _not_positive(denom) -> bool:
    """``denom <= 0.0``, raising no event on a NaN, as numpy's comparison raises none (Python's ``<=`` would)."""
    return not math.isnan(denom) and denom <= 0.0


def online_2sls_update(theta, gamma, u, v, z, x, y):
    """``estimators.online_2sls_update``: (theta', gamma', U', V')."""
    y = float(y)
    w = vecmat(z, gamma)
    vz = matvec(v, z)
    denom_v = 1.0 + vecdot(z, vz)
    uw = matvec(u, w)
    denom_u = 1.0 + vecdot(w, uw)
    if _not_positive(denom_u) or _not_positive(denom_v):
        raise FloatingPointError("rank-one denominator is not positive; U/V state corrupted")
    gain_v = [e / denom_v for e in vz]
    new_v = [[e - a * g for e, g in zip(row, gain_v)] for row, a in zip(v, vz)]
    x_w = [a - b for a, b in zip(x, w)]
    new_gamma = [[e + g * d for e, d in zip(row, x_w)] for row, g in zip(gamma, gain_v)]
    gain_u = [e / denom_u for e in uw]
    new_u = [[e - a * g for e, g in zip(row, gain_u)] for row, a in zip(u, uw)]
    resid = y - vecdot(w, theta)
    new_theta = [t + g * resid for t, g in zip(theta, gain_u)]
    return new_theta, new_gamma, new_u, new_v
