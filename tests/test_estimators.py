import _ctypes
import copy
import functools
import operator
import os
import pickle
import platform
import re
import shutil
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import make_rng
from ivstream import _native, dgp, estimators as est, harness, oracle
from ivstream.schedule import Constant, Polynomial, step


class TestTwoSampleUpdate:
    def test_hand_step(self):
        # residual = (1, 1) . (1, 0) - 3 = -2; theta' = (1, 0) + 0.1*2*(2, 0).
        theta = est.two_sample_update(np.array([1.0, 0.0]), np.array([1.0, 1.0]),
                                      np.array([2.0, 0.0]), 3.0, 0.1)
        assert theta[0] == pytest.approx(1.4, rel=1e-15)
        assert theta[1] == 0.0

    def test_zero_residual_is_a_fixed_point(self):
        theta = np.array([2.0, -1.0])
        x = np.array([1.0, 3.0])
        out = est.two_sample_update(theta, x, np.array([5.0, 5.0]), float(x @ theta), 0.3)
        np.testing.assert_array_equal(out, theta)

    def test_inputs_not_mutated(self):
        theta = np.array([1.0, 0.0])
        x = np.array([1.0, 1.0])
        est.two_sample_update(theta, x, x, 3.0, 0.1)
        np.testing.assert_array_equal(theta, [1.0, 0.0])

    def test_unbiased_for_population_gradient(self):
        # Monte-Carlo mean of the step direction matches the analytic gradient.
        cfg = dgp.shared_confounder_config(4, 8, c=0.1, phi="identity")
        summary = oracle.summarize(cfg)
        theta = cfg.theta_star + np.array([1.0, -1.0, 2.0, 0.5])
        _, x, xp, y = dgp.sample_two_block(make_rng(17), cfg, 200_000)
        mc = (xp * (x @ theta - y)[:, None]).mean(axis=0)
        ref = oracle.grad_f(theta, summary)
        assert np.linalg.norm(mc - ref) / np.linalg.norm(ref) <= 0.03


class TestTwoTimescaleUpdates:
    def test_hand_step(self):
        # theta' = 0 - 0.1*2*(2*0 - 5) = 1; gamma' = 2 - 0.1*1*(2 - 3) = 2.1.
        theta, gamma = est.two_stage_update(np.array([0.0]), np.array([[2.0]]),
                                            np.array([1.0]), np.array([3.0]), 5.0, 0.1, 0.1)
        assert theta[0] == pytest.approx(1.0, rel=1e-15)
        assert gamma[0, 0] == pytest.approx(2.1, rel=1e-15)

    def test_hand_step_direct(self):
        # theta' = 0 - 0.1*2*(3*0 - 5) = 1; same gamma recursion.
        theta, gamma = est.direct_residual_update(np.array([0.0]), np.array([[2.0]]),
                                                  np.array([1.0]), np.array([3.0]), 5.0, 0.1, 0.1)
        assert theta[0] == pytest.approx(1.0, rel=1e-15)
        assert gamma[0, 0] == pytest.approx(2.1, rel=1e-15)

    def test_zero_instrument_is_a_fixed_point(self):
        theta0, gamma0 = np.array([1.0, 2.0]), np.ones((3, 2))
        z = np.zeros(3)
        for kernel in (est.two_stage_update, est.direct_residual_update):
            theta, gamma = kernel(theta0, gamma0, z, np.array([1.0, 1.0]), 2.0, 0.1, 0.1)
            np.testing.assert_array_equal(theta, theta0)
            np.testing.assert_array_equal(gamma, gamma0)

    def test_variants_agree_on_noise_free_first_stage(self):
        # X = gamma*^T Z exactly and gamma = gamma*: both residuals coincide.
        rng = make_rng(3)
        gamma_star = rng.standard_normal((4, 2))
        theta = rng.standard_normal(2)
        z = rng.standard_normal(4)
        x = z @ gamma_star
        y = 0.7
        t1, g1 = est.two_stage_update(theta, gamma_star, z, x, y, 0.05, 0.02)
        t2, g2 = est.direct_residual_update(theta, gamma_star, z, x, y, 0.05, 0.02)
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(g1, g2)

    def test_gamma_recursion_is_autonomous(self):
        # gamma's trajectory never reads theta.
        cfg = dgp.endogenous_linear_config(2, 4, rho=1.0, sigma_eps=0.5)
        z, x, y = dgp.sample_one_block(make_rng(8), cfg, 200)
        runs = []
        for theta0 in (np.zeros(2), np.full(2, 5.0)):
            theta, gamma = theta0, np.zeros((4, 2))
            trace = []
            for i in range(200):
                theta, gamma = est.two_stage_update(theta, gamma, z[i], x[i], y[i], 0.05, 0.2)
                trace.append(gamma)
            runs.append(trace)
        for g_a, g_b in zip(*runs):
            np.testing.assert_array_equal(g_a, g_b)

    def test_gamma_rate_trend(self):
        # Under the prescribed decay exponent the first-stage error
        # E||gamma_t - gamma*||^2 keeps decreasing with tail slope <= -0.7.
        # The trials step in groups of 25 through the two-timescale window
        # loop, one call per checkpoint interval; it gives each trial the 1-d
        # kernel's bits, as trials 0 and 57 check against the kernel here.
        cfg = dgp.endogenous_linear_config(1, 1, rho=1.0, sigma_eps=0.5)
        beta = Polynomial(0.5, 0.95)
        T, trials, group = 20_000, 100, 25
        checkpoints = np.unique(np.logspace(0, np.log10(T), 30).astype(int))
        alphas = np.array([0.3 * (t + 1.0) ** -0.95 for t in range(T)])
        betas = np.array([beta.coeff * (t + 1.0) ** -beta.exponent for t in range(T)])
        errs = np.zeros((trials, len(checkpoints)))
        traced = {0: [], 57: []}
        for first in range(0, trials, group):
            z, x, y = zip(*(dgp.sample_one_block(make_rng(1000 + k), cfg, T) for k in range(first, first + group)))
            theta, gamma = np.zeros((1, group, 1)), np.zeros((group, 1, 1))
            window = est.two_timescale_window((theta, gamma), z, x, None, y, [False])
            t = 0
            for cp, c in enumerate(checkpoints.tolist()):
                window.step(t, c - t, alphas.ctypes.data + 8 * t, betas.ctypes.data + 8 * t)
                t = c
                for k in range(group):
                    errs[first + k, cp] = float(((gamma[k] - cfg.gamma_star) ** 2).sum())
                    if first + k in traced:
                        traced[first + k].append(gamma[k].copy())
        ends = set(checkpoints.tolist())
        for k, trace in traced.items():
            z, x, y = dgp.sample_one_block(make_rng(1000 + k), cfg, T)
            theta, gamma = np.zeros(1), np.zeros((1, 1))
            kernel = []
            for t in range(T):
                theta, gamma = est.two_stage_update(theta, gamma, z[t], x[t], y[t], alphas[t], betas[t])
                if t + 1 in ends:
                    kernel.append(gamma)
            assert np.array(trace).tobytes() == np.array(kernel).tobytes()
        mean_err = errs.mean(axis=0)
        tail = checkpoints >= 2000
        coeffs = np.polyfit(np.log10(checkpoints[tail]), np.log10(mean_err[tail]), 1)
        assert coeffs[0] <= -0.7
        # decreasing trend over the logarithmic grid after the first decade
        late = mean_err[checkpoints >= 100]
        assert np.all(np.diff(np.log(late)) < 0.5)
        assert late[-1] < late[0]


class TestOnline2SLSUpdate:
    def test_hand_step(self):
        # d = 1, theta = 0, gamma = 1, U = V = 10 (lam = 0.1), z = 1, x = 2, y = 3.
        # Gain form: V' = 10 - 100/11 = 10/11, gamma' = 1 + (10/11)(2 - 1) = 21/11,
        # U' = 10/11 (w = 1), theta' = 0 + (10/11)(3 - 0) = 30/11.
        theta, gamma, u, v = est.online_2sls_update(
            np.array([0.0]), np.array([[1.0]]), np.array([[10.0]]), np.array([[10.0]]),
            np.array([1.0]), np.array([2.0]), 3.0,
        )
        assert theta[0] == pytest.approx(30.0 / 11.0, rel=2e-15)
        assert gamma[0, 0] == pytest.approx(21.0 / 11.0, rel=2e-15)
        assert u[0, 0] == pytest.approx(10.0 / 11.0, rel=2e-15)
        assert v[0, 0] == pytest.approx(10.0 / 11.0, rel=2e-15)

    def test_zero_instrument_is_a_fixed_point(self):
        theta0, gamma0 = np.array([1.0]), np.array([[2.0]])
        u0, v0 = np.array([[10.0]]), np.array([[10.0]])
        theta, gamma, u, v = est.online_2sls_update(theta0, gamma0, u0, v0,
                                                    np.zeros(1), np.array([5.0]), 7.0)
        np.testing.assert_array_equal(theta, theta0)
        np.testing.assert_array_equal(gamma, gamma0)
        np.testing.assert_array_equal(u, u0)
        np.testing.assert_array_equal(v, v0)

    def test_initial_state_is_scaled_identity(self):
        # A zero instrument leaves the state as initialised (see the fixed point above).
        reg = est.Online2SLSRegressor().partial_fit(np.zeros(3), np.zeros(2), 0.0)
        assert reg.lam == 0.1
        np.testing.assert_array_equal(reg.v_, np.eye(3) / 0.1)
        np.testing.assert_array_equal(reg.u_, np.eye(2) / 0.1)

    def test_corrupted_state_raises(self):
        with pytest.raises(FloatingPointError):
            est.online_2sls_update(np.array([0.0]), np.array([[1.0]]),
                                   np.array([[-10.0]]), np.array([[10.0]]),
                                   np.array([1.0]), np.array([2.0]), 3.0)

    def test_sherman_morrison_consistency(self):
        # U and V stay exact inverses of the ridge-accumulated moment matrices.
        cfg = dgp.endogenous_linear_config(2, 3, rho=1.0, sigma_eps=0.5)
        z, x, y = dgp.sample_one_block(make_rng(5), cfg, 300)
        lam = 0.1
        theta, gamma = np.zeros(2), np.zeros((3, 2))
        u, v = np.eye(2) / lam, np.eye(3) / lam
        acc_u, acc_v = lam * np.eye(2), lam * np.eye(3)
        for t in range(300):
            w = z[t] @ gamma
            acc_u += np.outer(w, w)
            acc_v += np.outer(z[t], z[t])
            theta, gamma, u, v = est.online_2sls_update(theta, gamma, u, v, z[t], x[t], y[t])
        assert np.abs(u @ acc_u - np.eye(2)).max() <= 1e-10
        assert np.abs(v @ acc_v - np.eye(3)).max() <= 1e-10

    def test_matches_exact_ridge_two_stage_solution(self):
        # After n steps gamma equals the ridge regression of X on Z, and theta
        # the ridge regression of Y on the first-stage predictions.
        cfg = dgp.endogenous_linear_config(2, 4, rho=1.0, sigma_eps=0.5)
        z, x, y = dgp.sample_one_block(make_rng(6), cfg, 150)
        lam = 0.1
        theta, gamma = np.zeros(2), np.zeros((4, 2))
        u, v = np.eye(2) / lam, np.eye(4) / lam
        ws = []
        for t in range(150):
            ws.append(z[t] @ gamma)
            theta, gamma, u, v = est.online_2sls_update(theta, gamma, u, v, z[t], x[t], y[t])
        gamma_ridge = np.linalg.solve(lam * np.eye(4) + z.T @ z, z.T @ x)
        np.testing.assert_allclose(gamma, gamma_ridge, atol=1e-10)
        w = np.array(ws)
        theta_ridge = np.linalg.solve(lam * np.eye(2) + w.T @ w, w.T @ y)
        np.testing.assert_allclose(theta, theta_ridge, atol=1e-10)


def _reference_step(algorithm, state, z, x, x_prime, y, alpha, beta):
    """One trial's step through the 1-d kernel, in the window kernels' state layout."""
    if algorithm == "two_sample_sgd":
        return est.two_sample_update(state[0], x, x_prime, y, alpha), state[1]
    if algorithm == "two_stage_sgd":
        return est.two_stage_update(*state, z, x, y, alpha, beta)
    if algorithm == "direct_sgd":
        return est.direct_residual_update(*state, z, x, y, alpha, beta)
    return est.online_2sls_update(*state, z, x, y)


def _step(window, start, rows, alphas=None, betas=None):
    """Step rows ``start`` to ``start + rows - 1`` of ``window``'s blocks, with those rows of the steps."""
    return window.step(start, rows, *(0 if a is None else a[start:].ctypes.data for a in (alphas, betas)))


class TestBatchKernels:
    """The window loops on B trials' blocks, each read in place, against the 1-d kernels row by row."""

    @pytest.mark.parametrize("algorithm", sorted(est.REGRESSORS))
    @pytest.mark.parametrize("d_x,d_z", [(1, 1), (4, 8), (8, 16)])
    @pytest.mark.parametrize("b", [1, 3, 4])
    def test_bitwise_equal_to_1d_kernel(self, algorithm, d_x, d_z, b):
        # Windows of 1, 7 and 256 rows in turn, each against the 1-d kernel row by row.
        windows = (1, 7, 256)
        n = sum(windows)
        cfg = dgp.endogenous_linear_config(d_x, d_z, rho=1.0, sigma_eps=0.5)
        draws = [dgp.sample_two_block(make_rng(100 + i), cfg, n) for i in range(b)]
        blocks = [[d[k] for d in draws] for k in range(4)]  # each field's block of each trial
        z, x, x_prime, y = (np.stack(field, axis=1) for field in blocks)
        inputs = copy.deepcopy(blocks)
        alphas = np.array([0.9 / (d_x + 2.0) * (t + 1.0) ** -0.95 for t in range(n)])
        betas = np.array([1.5 / (d_z + 2.0) * (t + 1.0) ** -0.95 for t in range(n)])
        rng = make_rng(7)
        trials = [[rng.standard_normal(d_x), 0.1 * rng.standard_normal((d_z, d_x))] for _ in range(b)]
        if algorithm == "online_2sls":
            for st in trials:
                st += [np.eye(d_x) / 0.1, np.eye(d_z) / 0.1]
        state = tuple(np.stack(parts) for parts in zip(*trials))
        reg = est.REGRESSORS[algorithm]  # its loop, on one theta: S = 1
        window = reg._loop((state[0][None], *state[1:]), *blocks, (reg._raw_residual,))
        start = 0
        for rows in windows:
            _step(window, start, rows, alphas, betas)  # a loop ignores the steps it does not take
            for t in range(start, start + rows):
                trials = [_reference_step(algorithm, st, z[t, i], x[t, i], x_prime[t, i], y[t, i], alphas[t], betas[t])
                          for i, st in enumerate(trials)]
            start += rows
            for i, st in enumerate(trials):
                for got, want in zip(state, st):
                    assert np.isfinite(want).all()
                    assert got[i].tobytes() == want.tobytes()
        for got, want in zip(blocks, inputs):
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]  # the blocks are read, never written

    @pytest.mark.parametrize("d_x,d_z", [(1, 1), (4, 8), (8, 16)])
    @pytest.mark.parametrize("b", [1, 3])
    def test_two_thetas_on_one_gamma(self, d_x, d_z, b):
        # A predicted and a raw residual stepped on one gamma, in windows of 1,
        # 7 and 256 rows, each against its own 1-d kernel row by row.
        windows = (1, 7, 256)
        n = sum(windows)
        cfg = dgp.endogenous_linear_config(d_x, d_z, rho=1.0, sigma_eps=0.5)
        draws = [dgp.sample_one_block(make_rng(200 + i), cfg, n) for i in range(b)]
        blocks = [[d[k] for d in draws] for k in range(3)]
        z, x, y = (np.stack(field, axis=1) for field in blocks)
        alphas = np.array([0.9 / (d_x + 2.0) * (t + 1.0) ** -0.95 for t in range(n)])
        betas = np.array([1.5 / (d_z + 2.0) * (t + 1.0) ** -0.95 for t in range(n)])
        rng = make_rng(9)
        gamma0 = 0.1 * rng.standard_normal((b, d_z, d_x))
        theta0 = rng.standard_normal((2, b, d_x))
        updates = (est.two_stage_update, est.direct_residual_update)
        trials = [[[theta0[s, i], gamma0[i]] for i in range(b)] for s in range(2)]
        state = (theta0.copy(), gamma0.copy())
        window = est.two_timescale_window(state, blocks[0], blocks[1], None, blocks[2], (False, True))
        start = 0
        for rows in windows:
            _step(window, start, rows, alphas, betas)
            for t in range(start, start + rows):
                trials = [[update(*st, z[t, i], x[t, i], y[t, i], alphas[t], betas[t]) for i, st in enumerate(per)]
                          for update, per in zip(updates, trials)]
            start += rows
            for s, per in enumerate(trials):
                for i, (theta, gamma) in enumerate(per):
                    assert np.isfinite(theta).all()
                    assert state[0][s, i].tobytes() == theta.tobytes()
                    assert state[1][i].tobytes() == gamma.tobytes()

    @pytest.mark.parametrize("d_x,d_z", [(1, 1), (2, 3), (4, 8)])
    @pytest.mark.parametrize("b", [3, 6, 9, 17])
    def test_online_2sls_corrupted_trial_is_flagged(self, d_x, d_z, b, lane_build):
        # Every trial starts at gamma = I. Trial 1 carries U = -10 I, and its
        # instruments are zero before row k, so those rows leave its state as
        # it was; at row k, z is all ones, w = z^T gamma is too and
        # 1 + w^T U w = 1 - 10 d_x < 0, where the 1-d kernel raises. The last
        # trial carries V = -I and ends at row k + 4, after trial 1 has ended in
        # the same window, where z = e_1 makes 1 + z^T V z = +0, which no divide
        # may see. In the lanes at d = 1 each row steps every trial; at d > 1
        # the trials step one after another.
        n, k = 20, 9
        ends = {1: k, b - 1: k + 4}
        rng = make_rng(23 + b)
        z, x, y = rng.standard_normal((n, b, d_z)), rng.standard_normal((n, b, d_x)), rng.standard_normal((n, b))
        trials = [[np.zeros(d_x), np.eye(d_z, d_x), np.eye(d_x) * 10.0, np.eye(d_z) * 10.0] for _ in range(b)]
        for i, row in ends.items():
            z[:row, i] = 0.0
        z[k, 1], trials[1][2] = 1.0, -trials[1][2]
        z[k + 4, b - 1], trials[b - 1][3] = np.eye(d_z)[0], -np.eye(d_z)
        blocks = [[a[:, i].copy() for i in range(b)] for a in (z, x, y)]
        start = tuple(np.stack(parts) for parts in zip(*trials))
        reference = {}  # 1-d states after each row, up to the row where a trial's kernel raises
        for i in range(b):
            st = trials[i]
            for t in range(ends.get(i, n)):
                st = est.online_2sls_update(*st, z[t, i], x[t, i], y[t, i])
                reference[i, t + 1] = st
        for i, row in ends.items():
            with pytest.raises(FloatingPointError):
                est.online_2sls_update(*reference[i, row], z[row, i], x[row, i], y[row, i])
        with np.errstate(invalid="raise", over="raise"):
            for rows in (k, k + 1, k + 4, k + 5, n):  # windows that end before, at and after each row
                state = tuple(a.copy() for a in start)
                stacked = (state[0][None], *state[1:])
                window = est.online_2sls_window(stacked, blocks[0], blocks[1], None, blocks[2], (False,))
                assert window.step(0, rows) == (est._NOT_POSITIVE if rows > k else 0)
                for i in range(b):
                    if rows > ends.get(i, n):
                        assert all(np.isnan(got[i]).all() for got in state)
                    else:
                        for got, want in zip(state, reference[i, min(rows, ends.get(i, n))]):
                            assert np.isfinite(want).all()
                            assert got[i].tobytes() == want.tobytes()

    def test_online_2sls_nan_denominator_does_not_hide_a_negative_one(self):
        # U = diag(inf, -inf) makes w^T U w = inf - inf, a NaN denominator, in the
        # same row where V = -10 I makes the other one negative: the 1-d kernel
        # raises there, so the trial must end the window NaN.
        z, x, y = np.ones((1, 2)), np.ones((1, 2)), np.ones(1)
        state = (np.zeros((1, 1, 2)), np.eye(2)[None], np.diag([np.inf, -np.inf])[None], -10.0 * np.eye(2)[None])
        with pytest.raises(FloatingPointError), np.errstate(invalid="ignore"):
            est.online_2sls_update(state[0][0, 0], *(a[0] for a in state[1:]), z[0], x[0], y[0])
        with np.errstate(invalid="ignore"):
            est.online_2sls_window(state, [z], [x], None, [y], (False,)).step(0, 1)
        assert all(not np.isfinite(part).any() for part in state)

    def test_online_2sls_nan_denominator_does_not_hide_a_negative_one_in_lanes(self, lane_build):
        # The d = 1 lanes at B = 9: trial 4 carries U = NaN, so its w U w is NaN
        # in every row, and V = -10; its instruments are zero before row k, and
        # at row k, z = 1 makes 1 + z V z = -9, where the 1-d kernel raises. It
        # ends NaN, and the trials beside it step as their own 1-d kernels do.
        b, n, k, bad = 9, 12, 5, 4
        rng = make_rng(29)
        z, x, y = rng.standard_normal((n, b, 1)), rng.standard_normal((n, b, 1)), rng.standard_normal((n, b))
        z[:k, bad], z[k, bad] = 0.0, 1.0
        trials = [[np.zeros(1), np.eye(1), np.eye(1) * 10.0, np.eye(1) * 10.0] for _ in range(b)]
        trials[bad][2:] = [np.full((1, 1), np.nan), np.full((1, 1), -10.0)]
        blocks = [[a[:, i].copy() for i in range(b)] for a in (z, x, y)]
        start = tuple(np.stack(parts) for parts in zip(*trials))
        st = trials[bad]
        for t in range(k):
            st = est.online_2sls_update(*st, z[t, bad], x[t, bad], y[t, bad])
        with pytest.raises(FloatingPointError):
            est.online_2sls_update(*st, z[k, bad], x[k, bad], y[k, bad])
        for rows in (k, n):  # a window that ends before row k, and one that ends after it
            state = tuple(a.copy() for a in start)
            with np.errstate(invalid="raise", over="raise"):
                window = est.online_2sls_window((state[0][None], *state[1:]), blocks[0], blocks[1], None, blocks[2],
                                                (False,))
                assert window.step(0, rows) == (est._NOT_POSITIVE if rows > k else 0)
            for i in (i for i in range(b) if i != bad):
                st = trials[i]
                for t in range(rows):
                    st = est.online_2sls_update(*st, z[t, i], x[t, i], y[t, i])
                for got, want in zip(state, st):
                    assert np.isfinite(want).all()
                    assert got[i].tobytes() == want.tobytes()
        assert all(np.isnan(part[bad]).all() for part in state)

    @pytest.mark.parametrize("b", [1, 3])
    def test_online_2sls_lanes_stop_once_every_trial_has_ended(self, b, lane_build):
        # The d = 1 lanes: trial i carries U = -10 and gamma = 1, and its
        # instruments are zero before row 1 + 2i and one at it, where
        # 1 + w U w = -9 ends it. Every row after the last trial's end holds
        # signalling NaNs, which any arithmetic raises as an invalid event, so a
        # window that stepped on would report it: the loop stops instead, and
        # leaves the bytes that the window ending at that row leaves.
        n = 4096
        ends = [1 + 2 * i for i in range(b)]
        rng = make_rng(41 + b)
        z, x, y = rng.standard_normal((n, b, 1)), rng.standard_normal((n, b, 1)), rng.standard_normal((n, b))
        for i, row in enumerate(ends):
            z[:row, i], z[row, i] = 0.0, 1.0
        snan = np.array(0x7FF0000000000001, np.uint64).view(np.float64)
        for a in (z, x, y):
            a[ends[-1] + 1:] = snan
        assert (z[-1].view(np.uint64) == 0x7FF0000000000001).all()
        blocks = [[a[:, i].copy() for i in range(b)] for a in (z, x, y)]
        start = (np.zeros((1, b, 1)), np.ones((b, 1, 1)), np.full((b, 1, 1), -10.0), np.full((b, 1, 1), 10.0))
        states = []
        for rows in (ends[-1] + 1, n):
            state = tuple(a.copy() for a in start)
            with np.errstate(all="raise"):
                assert est.online_2sls_window(state, *blocks[:2], None, blocks[2], (False,)).step(0, rows) == \
                    est._NOT_POSITIVE
            assert all(np.isnan(part).all() for part in state)
            states.append(b"".join(part.tobytes() for part in state))
        assert states[0] == states[1]
        # fit, at B = 1, meets the end at row 1 of its window: it undoes the
        # window and replays its rows one by one, raising at that row.
        reg = est.Online2SLSRegressor().partial_fit(np.zeros(1), x[0, 0], y[0, 0])
        reg.gamma_, reg.u_ = np.ones((1, 1)), np.full((1, 1), -10.0)
        rows = np.zeros((n, 1)), rng.standard_normal((n, 1)), rng.standard_normal(n)
        rows[0][1] = 1.0
        ref = copy.deepcopy(reg).partial_fit(rows[0][0], rows[1][0], rows[2][0])
        with pytest.raises(FloatingPointError):
            reg.fit(*rows)
        assert reg.n_iter_ == ref.n_iter_ == 2
        for name in reg._iterates:
            assert getattr(reg, name).tobytes() == getattr(ref, name).tobytes()

    # d_x 1..9 with d_z >= d_x, B in {1, 2, 7, 50}. (1, 4) is numpy's single-column
    # vecmat at d_z > 1, which takes one ddot where every other size takes a dgemv.
    @pytest.mark.parametrize("d_x,d_z,b", [(1, 1, 50), (1, 4, 7), (2, 3, 2), (3, 7, 1), (4, 4, 7),
                                           (5, 9, 2), (6, 8, 1), (7, 12, 50), (8, 8, 2), (9, 14, 7)])
    @pytest.mark.parametrize("lane", ["two_sample_sgd", "online_2sls", "two_stage_sgd", "direct_sgd", "both"])
    def test_random_sizes_bitwise_equal_to_1d_kernels(self, lane, d_x, d_z, b):
        # Random states, and S = 1 or 2 thetas on one gamma, after windows of 1, 7 and 256 rows.
        windows = (1, 7, 256)
        n = sum(windows)
        rng = make_rng(97 * d_x + d_z)
        cfg = dgp.endogenous_linear_config(d_x, d_z, rho=1.0, sigma_eps=0.5)
        draws = [dgp.sample_two_block(rng, cfg, n) for _ in range(b)]
        blocks = [[d[k] for d in draws] for k in range(4)]
        decay = np.arange(1.0, n + 1.0) ** -0.95
        alphas, betas = 0.9 / (d_x + 2.0) * decay, 1.5 / (d_z + 2.0) * decay
        thetas = rng.standard_normal((2 if lane == "both" else 1, b, d_x))
        gamma = 0.1 * rng.standard_normal((b, d_z, d_x))
        trials, raised = _step_lane_as_1d_kernels(lane, blocks, thetas, gamma, windows, alphas, betas)
        assert not raised
        assert all(np.isfinite(part).all() for per in trials for st in per for part in st)

    # d_z = 1 < d_x is the vecmat of one row of gamma, which fit reaches too.
    @pytest.mark.parametrize("d_x,d_z", [(1, 1), (3, 1), (1, 3)])
    @pytest.mark.parametrize("lane", ["two_sample_sgd", "online_2sls", "two_stage_sgd", "direct_sgd", "both"])
    def test_edge_rows_bitwise_equal_to_1d_kernels(self, lane, d_x, d_z):
        # Rows, thetas and gammas of EDGE_VALUES, in windows of 1, 7 and 32
        # rows: every byte, non-finite ones too, is the 1-d kernels'.
        windows, b = (1, 7, 32), 16
        n = sum(windows)
        rng = make_rng(31 * d_x + d_z)
        blocks = [[rng.choice(EDGE_VALUES, shape) for _ in range(b)] for shape in ((n, d_z), (n, d_x), (n, d_x), (n,))]
        thetas = rng.choice(EDGE_VALUES, (2 if lane == "both" else 1, b, d_x))
        gamma = rng.choice(EDGE_VALUES, (b, d_z, d_x))
        _step_lane_as_1d_kernels(lane, blocks, thetas, gamma, windows, np.full(n, 0.5), np.full(n, 0.25))

    # At d_x = d_z = 1 the loops step the trials of each row in SIMD lanes:
    # every B from 1 to 17 reaches the vector body and each of its tails.
    @pytest.mark.parametrize("b", range(1, 18))
    @pytest.mark.parametrize("lane", ["two_sample_sgd", "online_2sls", "two_stage_sgd", "direct_sgd", "both"])
    def test_lanes_bitwise_equal_to_1d_kernels(self, lane, b, lane_build):
        windows = (1, 7, 33)
        n = sum(windows)
        rng = make_rng(1000 + b)
        cfg = dgp.endogenous_linear_config(1, 1, rho=1.0, sigma_eps=0.5)
        draws = [dgp.sample_two_block(rng, cfg, n) for _ in range(b)]
        blocks = [[d[k] for d in draws] for k in range(4)]
        decay = np.arange(1.0, n + 1.0) ** -0.95
        thetas = rng.standard_normal((2 if lane == "both" else 1, b, 1))
        gamma = 0.1 * rng.standard_normal((b, 1, 1))
        trials, raised = _step_lane_as_1d_kernels(lane, blocks, thetas, gamma, windows, 0.3 * decay, 0.5 * decay)
        assert not raised
        assert all(np.isfinite(part).all() for per in trials for st in per for part in st)

    @pytest.mark.parametrize("d_x,d_z", [(1, 1), (3, 1), (1, 3), (4, 8)])
    @pytest.mark.parametrize("lane", ["two_sample_sgd", "online_2sls", "two_stage_sgd", "direct_sgd", "both"])
    def test_lane_events_are_the_or_of_each_trials_own(self, lane, d_x, d_z, lane_build):
        # A window over B trials of EDGE_VALUES rows raises just the events that
        # each trial's own window raises, and each trial's bytes are its own
        # window's: a window computes nothing a trial alone does not, in the d = 1
        # lanes or at d > 1.
        windows, b = (1, 7, 32), 11
        n = sum(windows)
        rng = make_rng(41)
        blocks = [[rng.choice(EDGE_VALUES, (n, d)) for _ in range(b)] for d in (d_z, d_x, d_x)]
        blocks.insert(3, [rng.choice(EDGE_VALUES, n) for _ in range(b)])
        state = [rng.choice(EDGE_VALUES, (2 if lane == "both" else 1, b, d_x)), rng.choice(EDGE_VALUES, (b, d_z, d_x))]
        if lane == "online_2sls":  # half the trials on a positive U and V, half on EDGE_VALUES
            state += [np.where(np.arange(b)[:, None, None] % 2, rng.choice(EDGE_VALUES, (b, d, d)), 10.0 * np.eye(d))
                      for d in (d_x, d_z)]
        regs = [est.REGRESSORS[a] for a in (("two_stage_sgd", "direct_sgd") if lane == "both" else (lane,))]
        direct = [reg._raw_residual for reg in regs]
        steps = [np.full(n, 0.5), np.full(n, 0.25)]
        one = lambda st, i: [st[0][:, i:i + 1].copy(), *(part[i:i + 1].copy() for part in st[1:])]  # noqa: E731
        trials = [one(state, i) for i in range(b)]
        window = regs[0]._loop(state, *blocks, direct)
        alone = [regs[0]._loop(trials[i], *([field[i]] for field in blocks), direct) for i in range(b)]
        seen, start = set(), 0
        for rows in windows:
            events = _step(window, start, rows, *steps)
            own = [_step(w, start, rows, *steps) for w in alone]
            assert events == functools.reduce(operator.or_, own)
            seen.update(own)
            for i, st in enumerate(trials):
                assert all(got.tobytes() == want.tobytes() for got, want in zip(one(state, i), st))
            start += rows
        assert len(seen) > 1  # the trials' events differ, so the OR is not any one trial's

    @pytest.mark.parametrize("d_x,d_z", [(1, 1), (3, 1), (1, 3), (4, 8)])
    @pytest.mark.parametrize("lane", ["two_sample_sgd", "online_2sls", "two_stage_sgd", "direct_sgd", "both"])
    def test_nan_trial_raises_nothing_beside_finite_ones(self, lane, d_x, d_z, lane_build):
        # A trial whose state is NaN, as one that diverged or ended in an earlier
        # window is, steps on beside finite trials, in the d = 1 lanes or at
        # d > 1, and raises no event, as its quiet NaNs and the 1-d kernel's
        # comparison raise none; the trials beside it step as they do without it.
        b, rows, nan_trial = 9, 40, 4
        rng = make_rng(43)
        blocks = [[rng.standard_normal(shape) for _ in range(b)] for shape in ((rows, d_z), (rows, d_x), (rows, d_x),
                                                                            (rows,))]
        state = [rng.standard_normal((2 if lane == "both" else 1, b, d_x)), 0.1 * rng.standard_normal((b, d_z, d_x))]
        if lane == "online_2sls":
            state += [np.tile(10.0 * np.eye(d), (b, 1, 1)) for d in (d_x, d_z)]
        kept = [i for i in range(b) if i != nan_trial]
        without = [state[0][:, kept].copy(), *(part[kept].copy() for part in state[1:])]
        state[0][:, nan_trial] = np.nan
        for part in state[1:]:
            part[nan_trial] = np.nan
        regs = [est.REGRESSORS[a] for a in (("two_stage_sgd", "direct_sgd") if lane == "both" else (lane,))]
        direct = [reg._raw_residual for reg in regs]
        steps = [c / (d + 2.0) * np.arange(1.0, rows + 1.0) ** -0.95 for c, d in ((0.9, d_x), (1.5, d_z))]
        assert _step(regs[0]._loop(state, *blocks, direct), 0, rows, *steps) == 0
        _step(regs[0]._loop(without, *([field[i] for i in kept] for field in blocks), direct), 0, rows, *steps)
        assert np.isnan(state[0][:, nan_trial]).all() and all(np.isnan(part[nan_trial]).all() for part in state[1:])
        assert state[0][:, kept].tobytes() == without[0].tobytes()
        assert all(part[kept].tobytes() == want.tobytes() for part, want in zip(state[1:], without[1:]))


def test_lane_loops_are_vectorised(tmp_path):
    # Bits cannot show a lost vectorisation: a loop over trials that gcc stops
    # vectorising changes no byte and passes every other test, while the d = 1
    # lanes get several times slower. gcc reports each loop it vectorises;
    # every loop over trials is the line after a "#pragma GCC ivdep".
    cc = shutil.which("cc")
    if cc is None or platform.machine() not in ("x86_64", "AMD64") or "gcc version" not in subprocess.run(
            [cc, "-v"], capture_output=True, text=True).stderr:
        pytest.skip("the vectoriser's report is gcc's, on x86-64")
    if " avx2 " not in f"{_native.cpu()} ":
        pytest.skip("32-byte vectors need AVX2")
    lines = _native.SOURCE.read_text(encoding="utf-8").splitlines()
    loops = [k + 2 for k, line in enumerate(lines) if line.strip() == "#pragma GCC ivdep"]
    done = subprocess.run([cc, *_native.CFLAGS, "-fopt-info-vec-optimized", "-o", str(tmp_path / "windows.so"),
                           str(_native.SOURCE), *_native.LIBS], capture_output=True, text=True, check=True)
    vectorised = {int(m[1]) for m in re.finditer(r":(\d+):\d+: optimized: loop vectorized using 32 byte vectors$",
                                                 done.stderr, re.MULTILINE)}
    assert loops and [k for k in loops if k not in vectorised] == []


@pytest.fixture(params=["default", "no_avx512"])
def lane_build(request, monkeypatch):
    """The build whose loops the windows bind: the default one, or the ``-mno-avx512f`` one."""
    if request.param == "no_avx512":
        lib = request.getfixturevalue("no_avx512_build")
        monkeypatch.setattr(_native, "loops", lambda: lib)
    return request.param


#: Signed zeros, the least subnormal, products that underflow and products that overflow.
EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, 3.0])


def _step_lane_as_1d_kernels(lane, blocks, thetas, gamma, windows, alphas, betas):
    """Step ``lane``'s loop on B trials' ``blocks`` in ``windows`` of rows, checking each trial against its 1-d kernel.

    ``lane`` is an algorithm, or "both" for a two-stage and a direct theta on
    one gamma; ``thetas`` holds one (B, d_x) theta per algorithm. After each
    window every trial's bytes are its 1-d kernel's, row by row, except that a
    trial whose kernel raised has ended NaN, as the loop's contract says.
    Returns the kernels' final states and the (theta, trial) pairs that raised.
    """
    algorithms = ("two_stage_sgd", "direct_sgd") if lane == "both" else (lane,)
    b, (d_z, d_x) = len(blocks[0]), gamma.shape[1:]
    z, x, x_prime, y = (np.stack(field, axis=1) for field in blocks)
    state = (thetas, gamma)
    if lane == "online_2sls":
        state += (np.tile(np.eye(d_x) / 0.1, (b, 1, 1)), np.tile(np.eye(d_z) / 0.1, (b, 1, 1)))
    trial = lambda s, i: (thetas[s, i], *(part[i] for part in state[1:]))  # noqa: E731
    regs = [est.REGRESSORS[a] for a in algorithms]
    window = regs[0]._loop(state, *blocks, [reg._raw_residual for reg in regs])
    trials = [[tuple(part.copy() for part in trial(s, i)) for i in range(b)] for s in range(len(algorithms))]
    raised, start = set(), 0
    for rows in windows:
        with np.errstate(all="ignore"):
            _step(window, start, rows, alphas, betas)
            for t in range(start, start + rows):
                for s, (a, per) in enumerate(zip(algorithms, trials)):
                    for i, st in enumerate(per):
                        if (s, i) not in raised:
                            try:
                                per[i] = _reference_step(a, st, z[t, i], x[t, i], x_prime[t, i], y[t, i],
                                                         alphas[t], betas[t])
                            except FloatingPointError:
                                raised.add((s, i))
        start += rows
        for s, per in enumerate(trials):
            for i, st in enumerate(per):
                for got, want in zip(trial(s, i), st):
                    if (s, i) in raised:
                        assert np.isnan(got).all()
                    else:
                        assert got.tobytes() == want.tobytes()
    return trials, raised


_FIELDS = {"two_sample_sgd": ("x", "x_prime", "y"), "two_timescale": ("z", "x", "y"), "online_2sls": ("z", "x", "y")}
_LOOPS = {"two_sample_sgd": est.two_sample_window, "two_timescale": est.two_timescale_window,
          "online_2sls": est.online_2sls_window}


def _fresh_blocks(b=3, d_x=2, d_z=3, rows=4) -> dict:
    """Each field's random block of each of ``b`` trials."""
    rng = make_rng(5)
    shapes = {"z": (rows, d_z), "x": (rows, d_x), "x_prime": (rows, d_x), "y": (rows,)}
    return {name: [rng.standard_normal(shape) for _ in range(b)] for name, shape in shapes.items()}


def _window_of(kernel, state, blocks):
    """``kernel``'s window loop on ``state`` and the fields of ``blocks`` it reads."""
    fields = [blocks[name] if name in _FIELDS[kernel] else None for name in ("z", "x", "x_prime", "y")]
    return _LOOPS[kernel](tuple(state), *fields, (False, True)[:len(state[0])])


def _fresh_state(kernel, b=3, d_x=2, d_z=3):
    rng = make_rng(6)
    theta = rng.standard_normal((2 if kernel == "two_timescale" else 1, b, d_x))
    state = [theta, 0.1 * rng.standard_normal((b, d_z, d_x))]
    if kernel == "online_2sls":
        state += [np.tile(np.eye(d_x) * 10.0, (b, 1, 1)), np.tile(np.eye(d_z) * 10.0, (b, 1, 1))]
    return state


def _misfit(a, bad):
    """``a`` as an array of the kind ``bad`` that a loop must not be given."""
    if bad == "strided":
        strided = np.zeros(a.shape + (2,))[..., 0]
        strided[...] = a
        return strided
    if bad == "read-only":
        read_only = a.copy()
        read_only.flags.writeable = False
        return read_only
    return {"float32": a.astype(np.float32), "fortran": np.asfortranarray(a), "list": a.tolist()}[bad]


class TestNativeLoops:
    """The compiled window loops: their build, its cache, and the state and blocks they are bound to.

    A loop checks its state and blocks once, when it is bound, and never writes a copy.
    """

    @pytest.fixture
    def small_source(self, tmp_path_factory, monkeypatch):
        # The cache's keys, reuse, clean-up and flags do not depend on the
        # source, so the cache tests compile a few lines of C, not the loops.
        source = tmp_path_factory.mktemp("source") / "small.c"
        source.write_text("double twice(double x)\n{\n    return 2.0 * x;\n}\n", encoding="utf-8")
        monkeypatch.setattr(_native, "SOURCE", source)

    @pytest.mark.usefixtures("small_source")
    def test_second_build_reuses_the_cache(self, tmp_path, monkeypatch):
        built = _native.build(tmp_path)
        stamp = built.stat().st_mtime_ns
        monkeypatch.setattr(_native.subprocess, "run", lambda *a, **k: pytest.fail("the loops were recompiled"))
        assert _native.build(tmp_path) == built
        assert built.stat().st_mtime_ns == stamp
        assert list(tmp_path.iterdir()) == [built]  # no temporary file is left beside it

    @pytest.mark.usefixtures("small_source")
    def test_new_build_removes_older_builds_only(self, tmp_path):
        # An older build goes once a new one is in place; another process's
        # build in progress (a *.tmp) and other files stay.
        stale = tmp_path / "windows-0123456789abcdef.so"
        stale.write_bytes(b"an older build")
        in_progress = tmp_path / "windows-fedcba9876543210.so8x_k2q1.tmp"
        in_progress.write_bytes(b"")
        other = tmp_path / "notes.txt"
        other.write_text("kept", encoding="utf-8")
        built = _native.build(tmp_path)
        assert sorted(tmp_path.iterdir()) == sorted([built, in_progress, other])

    @pytest.mark.usefixtures("small_source")
    def test_each_cpu_has_its_own_build(self, tmp_path, monkeypatch):
        # A cache shared by two machines: a build for one CPU is never loaded
        # on the other, and a CPU's own build is reused. Each is compiled for
        # the CPU it runs on.
        assert _native.cpu().startswith(platform.machine() + " ")
        compiled, run = [], _native.subprocess.run
        monkeypatch.setattr(_native.subprocess, "run", lambda cmd, **k: compiled.append(cmd) or run(cmd, **k))
        monkeypatch.setattr(_native, "cpu", lambda: "x86_64 flags : fpu sse2 avx2")
        first = _native.build(tmp_path)
        assert _native.build(tmp_path) == first and len(compiled) == 1
        monkeypatch.setattr(_native, "cpu", lambda: "x86_64 flags : fpu sse2 avx2 avx512f")
        second = _native.build(tmp_path)
        assert second != first and len(compiled) == 2
        assert _native.build(tmp_path) == second and len(compiled) == 2
        for cmd in compiled:  # for the CPU it runs on, with no reordered or fused arithmetic
            assert "-march=native" in cmd and "-ffp-contract=off" in cmd
            assert not any("fast-math" in arg or "associative" in arg for arg in cmd)

    def test_no_compiler_fails_at_the_first_window_only(self, tmp_path):
        # Importing and the 1-d kernels run without a compiler. A regressor's
        # partial_fit and fit step the compiled loops, so each reports the
        # missing cc before it consumes a row, and so does a run of the CLI.
        script = """if True:
            import sys
            import numpy as np
            import ivstream
            from ivstream import cli, estimators as est
            z, x, y = np.ones((5, 2)), np.ones((5, 1)), np.ones(5)
            regs = (est.TwoSampleSGDRegressor(), est.TwoStageSGDRegressor(), est.DirectSGDRegressor(),
                    est.Online2SLSRegressor())
            args = lambda reg, *a: a + (a[1],) if isinstance(reg, est.TwoSampleSGDRegressor) else a
            est.two_sample_update(np.zeros(1), x[0], x[0], 1.0, 0.1)
            est.two_stage_update(np.zeros(1), np.zeros((2, 1)), z[0], x[0], 1.0, 0.1, 0.1)
            est.direct_residual_update(np.zeros(1), np.zeros((2, 1)), z[0], x[0], 1.0, 0.1, 0.1)
            est.online_2sls_update(*est.initial_state(1, 2, lam=0.1), z[0], x[0], 1.0)
            print("kernels ran")
            for reg in regs:
                for rows in (lambda: reg.partial_fit(*args(reg, z[0], x[0], y[0])),
                             lambda: reg.fit(*args(reg, z, x, y))):
                    try:
                        rows()
                    except RuntimeError as e:
                        print(reg.n_iter_, e)
            sys.exit(cli.main(["run", "--preset", "fig3", "--trials", "1", "--iters", "10", "--out", sys.argv[1]]))
        """
        message = "ivstream's window loops are compiled on first use, and there is no C compiler 'cc' on PATH"
        (tmp_path / "bin").mkdir()
        env = dict(os.environ, PATH=str(tmp_path / "bin"), HOME=str(tmp_path),  # no cached build either
                   PYTHONPATH=str(Path(est.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out")], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 1, done.stderr
        assert done.stdout == "kernels ran\n" + f"0 {message}\n" * 8
        assert f"error: {message}" in done.stderr
        assert not (tmp_path / ".cache").exists()

    def test_numpy_without_its_openblas_is_named(self, tmp_path, monkeypatch):
        # A numpy whose extension loads no scipy-openblas64: here one stood in
        # for by ctypes' own extension module.
        fake = types.SimpleNamespace(__version__="0.0", _core=types.SimpleNamespace(
            _multiarray_umath=types.SimpleNamespace(__file__=_ctypes.__file__)))
        monkeypatch.setattr(_native, "np", fake)
        monkeypatch.setattr(_native.Path, "home", lambda: tmp_path)
        with pytest.raises(RuntimeError, match="need a numpy that bundles the scipy-openblas64 BLAS"):
            _native.loops.__wrapped__()
        assert not any(tmp_path.iterdir())  # nothing was built

    @pytest.mark.parametrize("kernel", ["two_sample_sgd", "two_timescale", "online_2sls"])
    @pytest.mark.parametrize("bad", ["float32", "fortran", "strided", "read-only", "list", "shape"])
    def test_state_is_updated_in_place_or_rejected(self, kernel, bad):
        # The loops write the state arrays themselves, never a converted copy: a
        # state part that is not a writeable C-contiguous float64 array of the
        # right shape raises when the loop is bound, and is left as it was.
        state, blocks = _fresh_state(kernel), _fresh_blocks()
        k = 0 if kernel == "two_sample_sgd" else len(state) - 1  # the part the loop writes last
        part = state[k]
        state[k] = part[..., :-1].copy() if bad == "shape" else _misfit(part, bad)
        before = copy.deepcopy(state)
        with pytest.raises(ValueError, match=("theta", "gamma", "U", "V")[k]):
            _window_of(kernel, state, blocks)
        for got, want in zip(state, before):
            np.testing.assert_array_equal(got, want)
        # The same state with that part as it should be is stepped in place.
        state[k] = part
        _step(_window_of(kernel, state, blocks), 0, 4, np.full(4, 0.1), np.full(4, 0.1))
        assert not np.array_equal(part, before[k])

    @pytest.mark.parametrize("kernel", ["two_sample_sgd", "two_timescale", "online_2sls"])
    @pytest.mark.parametrize("bad", ["float32", "fortran", "strided", "list", "shape", "missing"])
    def test_blocks_are_read_in_place_or_rejected(self, kernel, bad):
        # Each block a loop reads in place must be a C-contiguous float64 array
        # of the first trial's shape, one per trial: else binding raises, naming
        # the field, with the state left as it was.
        state = _fresh_state(kernel)
        before = copy.deepcopy(state)
        for name in _FIELDS[kernel]:
            blocks = _fresh_blocks()
            field = blocks[name]
            if bad == "fortran" and field[1].ndim == 1:
                continue  # a 1-d block is C-contiguous in either order
            if bad == "missing":
                blocks[name] = field[:-1]
            else:
                field[1] = field[1][:-1].copy() if bad == "shape" else _misfit(field[1], bad)
            with pytest.raises(ValueError, match=f"{name} block"):
                _window_of(kernel, state, blocks)
            for got, want in zip(state, before):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kernel", ["two_sample_sgd", "two_timescale", "online_2sls"])
    def test_window_stays_within_the_blocks(self, kernel):
        # A window must lie within the blocks' rows and hold at least one.
        state = _fresh_state(kernel)
        before = copy.deepcopy(state)
        window, steps = _window_of(kernel, state, _fresh_blocks(rows=4)), np.full(4, 0.1)
        for t0, rows in ((-1, 2), (3, 2), (0, 5), (2, 0), (4, 1)):
            with pytest.raises(ValueError, match="not within the blocks' 4 rows"):
                window.step(t0, rows, steps.ctypes.data, steps.ctypes.data)
        for got, want in zip(state, before):
            assert got.tobytes() == want.tobytes()

# ---------------------------------------------------------------------------
# arithmetic-cost instrumentation

_COUNTER = {"ops": 0}


class CountingArray(np.ndarray):
    """ndarray that charges every ufunc call with its element throughput."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, np.ndarray) else x for x in inputs]
        out = kwargs.pop("out", None)
        if out is not None:
            kwargs["out"] = tuple(o.view(np.ndarray) if isinstance(o, np.ndarray) else o for o in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        cost = sum(np.size(x) for x in inputs if isinstance(x, np.ndarray))
        if isinstance(result, np.ndarray):
            cost = max(cost, result.size)
        _COUNTER["ops"] += cost
        if isinstance(result, np.ndarray):
            return result.view(CountingArray)
        return result


def _counted(fn, *arrays, repeat=20, **kw):
    wrapped = [np.ascontiguousarray(a).view(CountingArray) for a in arrays]
    _COUNTER["ops"] = 0
    for _ in range(repeat):
        fn(*wrapped, **kw)
    return _COUNTER["ops"] / repeat


def _cost_two_sample(d_x, d_z):
    rng = make_rng(d_x)
    return _counted(lambda t, x, xp: est.two_sample_update(t, x, xp, 1.0, 0.1),
                    rng.standard_normal(d_x), rng.standard_normal(d_x), rng.standard_normal(d_x))


def _cost_two_stage(d_x, d_z):
    rng = make_rng(d_x + d_z)
    return _counted(lambda t, g, z, x: est.two_stage_update(t, g, z, x, 1.0, 0.1, 0.1),
                    rng.standard_normal(d_x), rng.standard_normal((d_z, d_x)),
                    rng.standard_normal(d_z), rng.standard_normal(d_x))


def _cost_online_2sls(d_x, d_z):
    rng = make_rng(d_x + 2 * d_z)
    return _counted(lambda t, g, u, v, z, x: est.online_2sls_update(t, g, u, v, z, x, 1.0),
                    rng.standard_normal(d_x), rng.standard_normal((d_z, d_x)),
                    np.eye(d_x) * 10.0, np.eye(d_z) * 10.0,
                    rng.standard_normal(d_z), rng.standard_normal(d_x))


class TestArithmeticCostContracts:
    """Operation counts scale as promised: O(d_x), O(d_z d_x), O(d^2)."""

    def test_two_sample_cost_is_linear_in_dx(self):
        ratio = _cost_two_sample(32, 64) / _cost_two_sample(16, 32)
        assert 1.5 <= ratio <= 2.6

    def test_two_sample_cost_ignores_dz(self):
        assert _cost_two_sample(16, 32) == _cost_two_sample(16, 512)

    def test_two_stage_cost_is_bilinear(self):
        ratio = _cost_two_stage(32, 64) / _cost_two_stage(16, 32)
        assert 3.0 <= ratio <= 5.0

    def test_online_2sls_cost_is_quadratic(self):
        ratio = _cost_online_2sls(32, 64) / _cost_online_2sls(16, 32)
        assert 3.2 <= ratio <= 5.0

    def test_two_sample_is_cheapest(self):
        d_x, d_z = 16, 32
        assert _cost_two_sample(d_x, d_z) < _cost_two_stage(d_x, d_z) < _cost_online_2sls(d_x, d_z)


class TestRegressors:
    def test_get_set_params_roundtrip(self):
        reg = est.TwoStageSGDRegressor(alpha=0.05, beta=0.2)
        params = reg.get_params()
        assert params["alpha"] == 0.05 and params["beta"] == 0.2
        reg.set_params(alpha=0.1)
        assert reg.get_params()["alpha"] == 0.1
        with pytest.raises(ValueError):
            reg.set_params(nope=1)

    def test_partial_fit_matches_kernel_loop(self):
        cfg = dgp.endogenous_linear_config(2, 3, rho=1.0, sigma_eps=0.5)
        z, x, y = dgp.sample_one_block(make_rng(10), cfg, 50)
        reg = est.TwoStageSGDRegressor(alpha=0.05, beta=0.2)
        theta, gamma = np.zeros(2), np.zeros((3, 2))
        for t in range(50):
            reg.partial_fit(z[t], x[t], y[t])
            theta, gamma = est.two_stage_update(theta, gamma, z[t], x[t], y[t], 0.05, 0.2)
        np.testing.assert_array_equal(reg.theta_, theta)
        np.testing.assert_array_equal(reg.gamma_, gamma)

    def test_fit_and_predict_recover_planted_parameter(self):
        cfg = dgp.endogenous_linear_config(2, 4, rho=1.0, sigma_eps=0.5)
        z, x, y = dgp.sample_one_block(make_rng(20), cfg, 8000)
        reg = est.TwoStageSGDRegressor(alpha=Polynomial(0.25, 0.95), beta=Polynomial(0.3, 0.95))
        reg.fit(z, x, y)
        assert float(((reg.theta_ - cfg.theta_star) ** 2).sum()) < 0.05
        pred = reg.predict(x[:5])
        np.testing.assert_allclose(pred, x[:5] @ reg.theta_, atol=1e-14)

    def test_two_sample_regressor(self):
        cfg = dgp.shared_confounder_config(2, 4, c=0.1, phi="identity")
        z, x, xp, y = dgp.sample_two_block(make_rng(22), cfg, 8000)
        reg = est.TwoSampleSGDRegressor(alpha=Polynomial(0.25, 0.95))
        reg.fit(z, x, y, xp)
        assert float(((reg.theta_ - cfg.theta_star) ** 2).sum()) < 0.05

    def test_online_2sls_regressor_matches_kernel(self):
        cfg = dgp.endogenous_linear_config(1, 2, rho=1.0, sigma_eps=0.5)
        z, x, y = dgp.sample_one_block(make_rng(12), cfg, 64)
        reg = est.Online2SLSRegressor(lam=0.1)
        theta, gamma, u, v = np.zeros(1), np.zeros((2, 1)), np.eye(1) / 0.1, np.eye(2) / 0.1
        for t in range(64):
            reg.partial_fit(z[t], x[t], y[t])
            theta, gamma, u, v = est.online_2sls_update(theta, gamma, u, v, z[t], x[t], y[t])
        np.testing.assert_array_equal(reg.theta_, theta)
        np.testing.assert_array_equal(reg.v_, v)

    @pytest.mark.parametrize("which", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [np.float32(0.01), np.int64(1), 0.01, 1, "0.01", None, [0.01]])
    def test_step_size_is_a_real_number_or_a_schedule(self, which, value):
        # Any real number is a constant step, for a regressor and an experiment
        # alike; anything else that is not a schedule is rejected by the
        # parameter's name, by an experiment when it is built.
        cfg = dgp.endogenous_linear_config(1, 2, rho=1.0, sigma_eps=0.5)
        z, x, y = dgp.sample_one_block(make_rng(14), cfg, 20)
        reg = est.TwoStageSGDRegressor(**{which: value})
        spec = dict(dgp=cfg, algorithm="two_stage_sgd", T=30, trials=2, base_seed=3, test_n=5,
                    alpha=Polynomial(0.3, 0.95), beta=Polynomial(0.5, 0.95))
        if isinstance(value, (str, list, type(None))):
            with pytest.raises(ValueError, match=which):
                reg.fit(z, x, y)
            with pytest.raises(ValueError, match=which):
                harness.ExperimentSpec(**{**spec, which: value})
        else:
            reg.fit(z, x, y)
            ref = est.TwoStageSGDRegressor(**{which: Constant(float(value))}).fit(z, x, y)
            assert reg.n_iter_ == 20
            np.testing.assert_array_equal(reg.theta_, ref.theta_)
            run = harness.run_experiment(harness.ExperimentSpec(**{**spec, which: value}))
            ref = harness.run_experiment(harness.ExperimentSpec(**{**spec, which: Constant(float(value))}))
            assert getattr(run.spec, which) == Constant(float(value))
            for m, v in run.metrics.items():
                assert v.tobytes() == ref.metrics[m].tobytes()

    @pytest.mark.parametrize("which", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [0, -1.0, np.float64(np.nan), np.inf])
    def test_bad_constant_step_names_its_parameter(self, which, value):
        z, x, y = np.ones((3, 2)), np.ones((3, 1)), np.ones(3)
        reg = est.TwoStageSGDRegressor(**{which: value})
        with pytest.raises(ValueError, match=f"^{which} must be a positive finite number"):
            reg.fit(z, x, y)
        assert reg.n_iter_ == 0

    def test_predict_before_fit_raises(self):
        with pytest.raises(AttributeError):
            est.DirectSGDRegressor().predict(np.ones((2, 2)))

    def test_shape_mismatch_raises(self):
        reg = est.TwoStageSGDRegressor()
        reg.partial_fit(np.ones(3), np.ones(2), 1.0)
        with pytest.raises(ValueError):
            reg.partial_fit(np.ones(4), np.ones(2), 1.0)


class TestStates:
    """Validation of the initial state a regressor or an experiment starts from."""

    def test_two_stage_state_shape_check(self):
        for reg in (est.TwoStageSGDRegressor(gamma0=np.zeros((3, 3))),
                    est.Online2SLSRegressor(gamma0=np.zeros((3, 3)))):
            with pytest.raises(ValueError, match="gamma0"):
                reg.partial_fit(np.ones(3), np.ones(2), 1.0)
            # A rejected start sets no iterate, so a corrected gamma0 still applies.
            assert not hasattr(reg, "theta_")
            reg.set_params(gamma0=np.ones((3, 2))).partial_fit(np.zeros(3), np.ones(2), 1.0)
            assert reg.n_iter_ == 1
            np.testing.assert_array_equal(reg.gamma_, np.ones((3, 2)))

    def test_single_stage_state_finite_check(self):
        reg = est.TwoSampleSGDRegressor(theta0=np.array([np.nan]))
        with pytest.raises(ValueError, match="theta0"):
            reg.partial_fit(np.ones(1), np.ones(1), 1.0, np.ones(1))

    @pytest.mark.parametrize("algorithm,init", [
        *((alg, {}) for alg in est.REGRESSORS),
        *((alg, {"theta0": [0.5, -1.0]}) for alg in est.REGRESSORS),
        *((alg, {"theta0": [0.5, -1.0], "gamma0": np.ones((3, 2))}) for alg, reg in est.REGRESSORS.items()
          if not reg._reads_x_prime),
        ("online_2sls", {"lam": 2.5}),
    ])
    def test_experiment_starts_where_its_regressor_starts(self, algorithm, init):
        # Row 0 of a harness start equals the regressor's iterates after a fit of zero rows.
        cfg = dgp.endogenous_linear_config(2, 3, rho=1.0, sigma_eps=0.5)
        steps = {w: v for w, v in (("alpha", 0.1), ("beta", 0.2)) if w in est.REGRESSORS[algorithm]._schedules}
        spec = harness.ExperimentSpec(dgp=cfg, algorithm=algorithm, T=10, trials=1, base_seed=0, **steps, **init)
        reg = est.REGRESSORS[algorithm](**init)
        reg.fit(*_args(reg, np.empty((0, 3)), np.empty((0, 2)), np.empty(0), np.empty((0, 2))))
        assert reg.n_iter_ == 0
        start = harness._initial_state(spec, 1)
        assert len(start) == (4 if algorithm == "online_2sls" else 2)
        names = [name for name in ("theta_", "gamma_", "u_", "v_") if hasattr(reg, name)]
        assert len(names) == (1 if algorithm == "two_sample_sgd" else len(start))
        for name, row in zip(names, start):
            np.testing.assert_array_equal(row[0], getattr(reg, name), err_msg=name)
        np.testing.assert_array_equal(start[0][0], init.get("theta0", np.zeros(2)))
        if algorithm == "online_2sls":
            np.testing.assert_array_equal(start[3][0], np.eye(3) / init.get("lam", est.DEFAULT_RIDGE))

    def test_initial_state_checks_lam_first(self):
        with pytest.raises(ValueError, match="lam"):
            est.initial_state(2, 3, theta0=np.zeros(5), lam=0.0)
        with pytest.raises(ValueError, match="gamma0"):
            est.initial_state(2, 3, gamma0=np.zeros((2, 2)), lam=1.0)
        assert len(est.initial_state(2, 3)) == 2

    def test_online_2sls_state_validation(self):
        with pytest.raises(ValueError, match="lam"):
            est.Online2SLSRegressor(lam=0.0).partial_fit(np.ones(3), np.ones(2), 1.0)
        with pytest.raises(ValueError, match="theta0"):
            est.Online2SLSRegressor(theta0=np.zeros(3)).partial_fit(np.ones(3), np.ones(2), 1.0)
        spec = dict(dgp=dgp.endogenous_linear_config(2, 3, rho=1.0, sigma_eps=0.5),
                    algorithm="online_2sls", T=10, trials=1, base_seed=0)
        with pytest.raises(ValueError, match="lam"):
            harness.ExperimentSpec(lam=0.0, **spec)
        with pytest.raises(ValueError, match="theta0"):
            harness.ExperimentSpec(theta0=np.zeros(3), **spec)
        with pytest.raises(ValueError, match="gamma0"):
            harness.ExperimentSpec(gamma0=np.zeros((2, 2)), **spec)


# ---------------------------------------------------------------------------
# one update loop: fit and partial_fit


def _regressor(name, d_x, d_z):
    alpha = Polynomial(0.9 / (d_x + 2.0), 0.95)
    beta = Polynomial(1.5 / (d_z + 2.0), 0.95)
    return {
        "two_sample": lambda: est.TwoSampleSGDRegressor(alpha=alpha),
        "two_stage": lambda: est.TwoStageSGDRegressor(alpha=alpha, beta=beta),
        "direct": lambda: est.DirectSGDRegressor(alpha=alpha, beta=beta),
        "online_2sls": lambda: est.Online2SLSRegressor(lam=0.1),
    }[name]()


REGRESSOR_NAMES = ("two_sample", "two_stage", "direct", "online_2sls")


def _args(reg, z, x, y, x_prime):
    """Positional data arguments of ``reg.fit`` / ``reg.partial_fit``."""
    return (z, x, y, x_prime) if isinstance(reg, est.TwoSampleSGDRegressor) else (z, x, y)


def _state(reg):
    """Copies of the fitted attributes (``theta_``, ``n_iter_``, ...)."""
    return {k: np.copy(v) for k, v in vars(reg).items() if k.endswith("_")}


def _assert_same_state(a, b):
    a, b = (_state(r) if isinstance(r, est._BaseIVRegressor) else r for r in (a, b))
    assert sorted(a) == sorted(b)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k], err_msg=k)


def _stream(d_x, d_z, n, seed=31):
    return dgp.sample_two_block(make_rng(seed), dgp.endogenous_linear_config(d_x, d_z, rho=1.0, sigma_eps=0.5), n)


W = est.FIT_WINDOW_ROWS


class TestOneUpdateLoop:
    @pytest.mark.parametrize("name", REGRESSOR_NAMES)
    @pytest.mark.parametrize("d_x,d_z", [(1, 1), (8, 16)])
    def test_fit_equals_row_by_row_partial_fit(self, name, d_x, d_z):
        z, x, x_prime, y = _stream(d_x, d_z, W + 1)
        fitted = _regressor(name, d_x, d_z)
        fitted.fit(*_args(fitted, z, x, y, x_prime))
        streamed = _regressor(name, d_x, d_z)
        for i in range(len(y)):
            streamed.partial_fit(*_args(streamed, z[i], x[i], y[i], x_prime[i]))
        assert fitted.n_iter_ == W + 1
        _assert_same_state(fitted, streamed)

    @pytest.mark.parametrize("name", REGRESSOR_NAMES)
    def test_fit_continues_the_stream(self, name):
        # fit(A); fit(B) == fit(A || B): n_iter_ carries into the step schedule.
        z, x, x_prime, y = _stream(2, 3, 2 * W + 3)
        whole = _regressor(name, 2, 3)
        whole.fit(*_args(whole, z, x, y, x_prime))
        parts = _regressor(name, 2, 3)
        parts.fit(*_args(parts, z[:W - 1], x[:W - 1], y[:W - 1], x_prime[:W - 1]))
        parts.fit(*_args(parts, z[W - 1:], x[W - 1:], y[W - 1:], x_prime[W - 1:]))
        _assert_same_state(parts, whole)

    @pytest.mark.parametrize("name,d_x,d_z,bad", [
        (name, d_x, d_z, bad) for name in REGRESSOR_NAMES
        for d_x, d_z, bad in [(2, 3, "z"), (2, 3, "x"), (1, 2, "x")]
        if not (name == "two_sample" and bad == "z")  # the two-sample update does not read z
    ])
    def test_mismatched_row_raises_and_keeps_state(self, name, d_x, d_z, bad):
        # A length-3 x against d_x = 1 would broadcast silently in the kernels.
        z, x, x_prime, y = _stream(d_x, d_z, 20)
        reg = _regressor(name, d_x, d_z)
        reg.fit(*_args(reg, z, x, y, x_prime))
        before = _state(reg)
        row = {"z": z[0], "x": x[0], "x_prime": x_prime[0]}
        row[bad] = np.ones(row[bad].shape[0] + 2)
        if bad == "x":
            row["x_prime"] = row["x"]
        with pytest.raises(ValueError):
            reg.partial_fit(*_args(reg, row["z"], row["x"], y[0], row["x_prime"]))
        _assert_same_state(reg, before)

    @pytest.mark.parametrize("name", REGRESSOR_NAMES)
    @pytest.mark.parametrize("bad_y", [np.nan, np.inf, -np.inf])
    def test_partial_fit_rejects_non_finite_y(self, name, bad_y):
        z, x, x_prime, y = _stream(2, 3, 5)
        reg = _regressor(name, 2, 3)
        with pytest.raises(ValueError, match="y has non-finite entries"):
            reg.partial_fit(*_args(reg, z[0], x[0], bad_y, x_prime[0]))
        assert not hasattr(reg, "theta_")
        reg.fit(*_args(reg, z, x, y, x_prime))
        before = _state(reg)
        with pytest.raises(ValueError, match="y has non-finite entries"):
            reg.partial_fit(*_args(reg, z[0], x[0], bad_y, x_prime[0]))
        _assert_same_state(reg, before)
        with pytest.raises(ValueError, match="y has non-finite entries"):
            reg.fit(*_args(reg, z[:2], x[:2], [1.0, bad_y], x_prime[:2]))
        _assert_same_state(reg, before)

    def test_failed_partial_fit_is_not_counted(self):
        z, x, _, y = _stream(2, 3, 2)
        reg = est.Online2SLSRegressor()
        reg.partial_fit(z[0], x[0], y[0])
        reg.u_ = -10.0 * np.eye(2)
        before = _state(reg)
        with pytest.raises(FloatingPointError):
            reg.partial_fit(z[1], x[1], y[1])
        assert reg.n_iter_ == 1
        _assert_same_state(reg, before)

    @pytest.mark.parametrize("name", REGRESSOR_NAMES)
    def test_fit_failing_mid_stream_keeps_the_rows_consumed(self, name):
        z, x, x_prime, y = _stream(2, 3, 200)
        if name == "online_2sls":
            # U = -10 I: the rank-one denominator 1 - 10|w|^2 turns negative
            # once the growing instruments make |w| large enough.
            start = est.Online2SLSRegressor().fit(z[:1] * 1e-3, x[:1], y[:1])
            start.u_ = -10.0 * np.eye(2)
            z = z * np.linspace(1e-3, 10.0, len(y))[:, None]
            raise_on = {}
        else:
            # Constant steps far too large: the iterates overflow after some rows.
            start = _regressor(name, 2, 3)
            start.set_params(**{p: 50.0 for p in ("alpha", "beta") if p in start.get_params()})
            raise_on = {"over": "raise", "invalid": "raise"}
        args = _args(start, z, x, y, x_prime)
        reg = copy.deepcopy(start)
        with np.errstate(**raise_on), pytest.raises(FloatingPointError):
            reg.fit(*args)
        k = reg.n_iter_ - getattr(start, "n_iter_", 0)
        assert 0 < k < len(y)
        ref = copy.deepcopy(start).fit(*(a[:k] for a in args))
        _assert_same_state(reg, ref)
        with np.errstate(**raise_on), pytest.raises(FloatingPointError):
            ref.partial_fit(*(a[k] for a in args))
        _assert_same_state(reg, ref)


def _reference_fit(name, reg, z, x, x_prime, y):
    """The iterates after the rows, stepped one by one through the 1-d kernel from ``reg``'s iterates."""
    state = [getattr(reg, a) for a in reg._iterates]
    alpha, beta = (est._as_schedule(reg.get_params()[p], p) if p in reg.get_params() else None
                   for p in ("alpha", "beta"))
    for i, t in enumerate(range(reg.n_iter_ + 1, reg.n_iter_ + len(y) + 1)):
        if name == "two_sample":
            state = [est.two_sample_update(state[0], x[i], x_prime[i], float(y[i]), step(alpha, t))]
        elif name == "online_2sls":
            state = list(est.online_2sls_update(*state, z[i], x[i], float(y[i])))
        else:
            kernel = est.two_stage_update if name == "two_stage" else est.direct_residual_update
            state = list(kernel(*state, z[i], x[i], float(y[i]), step(alpha, t), step(beta, t)))
    return dict(zip(reg._iterates, state))


class TestFitThroughWindows:
    """``fit`` steps windows of the compiled loops; its bytes are those of the 1-d kernels row by row."""

    @pytest.mark.parametrize("name", REGRESSOR_NAMES)
    @pytest.mark.parametrize("n", [1, W - 1, W, W + 1, 2 * W + 3])
    @pytest.mark.parametrize("steps", ["constant", "polynomial"])
    @pytest.mark.parametrize("d_x,d_z", [(1, 1), (3, 5), (8, 16)])
    def test_bitwise_equal_to_1d_kernel_rows(self, name, n, steps, d_x, d_z):
        z, x, x_prime, y = _stream(d_x, d_z, n, seed=41)
        reg = _regressor(name, d_x, d_z)
        if steps == "constant":
            reg.set_params(**{p: 0.5 / (d_x + 2.0) for p in ("alpha", "beta") if p in reg.get_params()})
        reg.fit(*_args(reg, z[:0], x[:0], y[:0], x_prime[:0]))  # the first iterates, no row
        want = _reference_fit(name, reg, z, x, x_prime, y)
        reg.fit(*_args(reg, z, x, y, x_prime))
        assert reg.n_iter_ == n
        for a, value in want.items():
            assert np.isfinite(value).all()
            assert getattr(reg, a).tobytes() == value.tobytes(), a

    @pytest.mark.parametrize("name", REGRESSOR_NAMES)
    @pytest.mark.parametrize("d_x,d_z", [(1, 1), (3, 1), (1, 3)])
    def test_edge_rows_fit_as_partial_fit(self, name, d_x, d_z):
        # Streams and first iterates of EDGE_VALUES, under numpy's default
        # error handling, with every event ignored (fit replays only windows
        # with a non-positive 2SLS denominator) and with every event raising: fit ends with
        # partial_fit's bytes and n_iter_, after the same warnings, or raises
        # at the same row.
        rng = make_rng(37 * d_x + d_z)
        defaults = {"divide": "warn", "over": "warn", "under": "ignore", "invalid": "warn"}
        for _ in range(100):
            n = int(rng.integers(1, 12))
            z, x, x_prime = (rng.choice(EDGE_VALUES, (n, d)) for d in (d_z, d_x, d_x))
            y = rng.choice(EDGE_VALUES, n)
            start = {"theta0": rng.choice(EDGE_VALUES, d_x), "gamma0": rng.choice(EDGE_VALUES, (d_z, d_x))}
            for errors in (defaults, {"all": "ignore"}, {"all": "raise"}):
                ends = []
                for how in ("fit", "partial_fit"):
                    reg, raised = _regressor(name, d_x, d_z), None
                    reg.set_params(**{p: v for p, v in start.items() if p in reg.get_params()})
                    with warnings.catch_warnings(record=True) as seen, np.errstate(**errors):
                        warnings.simplefilter("always")
                        try:
                            if how == "fit":
                                reg.fit(*_args(reg, z, x, y, x_prime))
                            else:
                                for i in range(n):
                                    reg.partial_fit(*_args(reg, z[i], x[i], y[i], x_prime[i]))
                        except FloatingPointError as e:
                            raised = str(e)
                    ends.append((reg, [(w.category, str(w.message)) for w in seen], raised))
                (fitted, *end), (streamed, *want) = ends
                assert end == want
                assert fitted.n_iter_ == streamed.n_iter_
                for a in streamed._iterates:
                    assert getattr(fitted, a).tobytes() == getattr(streamed, a).tobytes(), a

    @pytest.mark.parametrize("name", ["two_sample", "two_stage", "direct"])
    def test_numpy_float32_schedule_fits_as_partial_fit(self, name):
        # A schedule built from float32 numbers keeps them as Python floats, so
        # partial_fit's steps are float64, as fit's are, and the two agree bit for bit.
        z, x, x_prime, y = _stream(2, 3, 300, seed=47)
        sched = {"alpha": Polynomial(np.float32(0.3), np.float32(0.95)), "beta": Polynomial(np.float32(0.5), 0.95)}
        fitted, streamed = _regressor(name, 2, 3), _regressor(name, 2, 3)
        for reg in (fitted, streamed):
            reg.set_params(**{p: sched[p] for p in ("alpha", "beta") if p in reg.get_params()})
        fitted.fit(*_args(fitted, z, x, y, x_prime))
        for i in range(len(y)):
            streamed.partial_fit(*_args(streamed, z[i], x[i], y[i], x_prime[i]))
        for a in fitted._iterates:
            assert getattr(fitted, a).tobytes() == getattr(streamed, a).tobytes(), a

    @pytest.mark.parametrize("name", REGRESSOR_NAMES)
    def test_split_fit_equals_one_fit_late_in_the_stream(self, name):
        # fit(A); fit(B) == fit(A || B) with the split inside a window, at
        # n_iter_ above 1e6 where each step is libm's pow at a large t; both
        # equal partial_fit row by row. Neither fit nor partial_fit writes an
        # array it handed out, and a deep copy or a pickled copy of a
        # regressor that ran partial_fit steps on alone, not moving the
        # original.
        n, cut = W + 300, 300
        z, x, x_prime, y = _stream(2, 3, n, seed=43)
        start = _regressor(name, 2, 3)
        start.fit(*_args(start, z[:0], x[:0], y[:0], x_prime[:0]))
        start.n_iter_ = 1_234_567
        whole, parts, streamed = (copy.deepcopy(start) for _ in range(3))
        whole.fit(*_args(whole, z, x, y, x_prime))
        parts.fit(*_args(parts, z[:cut], x[:cut], y[:cut], x_prime[:cut]))
        handed_out = [(reg, _state(reg), {a: getattr(reg, a) for a in reg._iterates}) for reg in (parts,)]
        parts.fit(*_args(parts, z[cut:], x[cut:], y[cut:], x_prime[cut:]))
        rows = [_args(streamed, z[i], x[i], y[i], x_prime[i]) for i in range(n)]
        for row in rows[:cut]:
            streamed.partial_fit(*row)
        handed_out.append((streamed, _state(streamed), {a: getattr(streamed, a) for a in streamed._iterates}))
        copies = (copy.deepcopy(streamed), pickle.loads(pickle.dumps(streamed)))
        for reg in copies:
            for row in rows[cut:]:
                reg.partial_fit(*row)
        _assert_same_state(streamed, handed_out[1][1])
        for row in rows[cut:]:
            streamed.partial_fit(*row)
        assert whole.n_iter_ == 1_234_567 + n
        for reg in (parts, streamed, *copies):
            assert reg.n_iter_ == whole.n_iter_
            for a in whole._iterates:
                assert getattr(reg, a).tobytes() == getattr(whole, a).tobytes(), a
        for reg, state, views in handed_out:
            _assert_same_state(views, {a: state[a] for a in views})

    @pytest.mark.parametrize("name", REGRESSOR_NAMES)
    @pytest.mark.parametrize("d_x,d_z", [(1, 1), (1, 3), (3, 5)])
    def test_partial_fit_reports_the_events_of_the_1d_kernel(self, name, d_x, d_z):
        # Rows and first iterates of EDGE_VALUES, row by row from partial_fit's
        # own iterates: under np.errstate(all="call") its loop reports through
        # the callback the set of events that the 1-d kernel raises on the same
        # row, and ends with the kernel's bytes; under all="raise" the two
        # raise at the same rows.
        rng = make_rng(59 * d_x + d_z)
        for _ in range(40):
            n = int(rng.integers(1, 12))
            z, x, x_prime = (rng.choice(EDGE_VALUES, (n, d)) for d in (d_z, d_x, d_x))
            y = rng.choice(EDGE_VALUES, n)
            start = {"theta0": rng.choice(EDGE_VALUES, d_x), "gamma0": rng.choice(EDGE_VALUES, (d_z, d_x))}
            for mode in ("call", "raise"):
                reg = _regressor(name, d_x, d_z)
                reg.set_params(**{p: v for p, v in start.items() if p in reg.get_params()})
                reg.fit(*_args(reg, z[:0], x[:0], y[:0], x_prime[:0]))  # the first iterates, no row
                for i in range(n):
                    ends = []
                    for how in ("kernel", "partial_fit"):
                        flags, error = set(), None
                        with np.errstate(all=mode, call=lambda kind, bits: flags.add(kind)):
                            try:
                                if how == "kernel":
                                    want = _reference_fit(name, reg, z[i:i + 1], x[i:i + 1], x_prime[i:i + 1],
                                                          y[i:i + 1])
                                else:
                                    reg.partial_fit(*_args(reg, z[i], x[i], y[i], x_prime[i]))
                            except FloatingPointError as e:
                                error = str(e) if mode == "call" else "raised"
                        ends.append((flags, error))
                    assert ends[0] == ends[1], (i, ends)
                    if ends[0][1] is None:
                        for a, value in want.items():
                            assert getattr(reg, a).tobytes() == value.tobytes(), a

    @pytest.mark.parametrize("name", ["two_sample", "two_stage", "direct"])
    def test_overflow_warns_as_partial_fit_does(self, name):
        # Under numpy's default error handling an overflowing fit warns, and
        # ends, exactly as the same rows through partial_fit.
        z, x, x_prime, y = _stream(2, 3, 300, seed=47)
        caught, regs = [], []
        for rows in ("fit", "partial_fit"):
            reg = _regressor(name, 2, 3)
            reg.set_params(**{p: 50.0 for p in ("alpha", "beta") if p in reg.get_params()})
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                if rows == "fit":
                    reg.fit(*_args(reg, z, x, y, x_prime))
                else:
                    for i in range(len(y)):
                        reg.partial_fit(*_args(reg, z[i], x[i], y[i], x_prime[i]))
            caught.append([(w.category, str(w.message)) for w in seen])
            regs.append(reg)
        assert caught[0] and caught[0] == caught[1]
        assert not np.isfinite(regs[0].theta_).all()
        for a in regs[0]._iterates:
            assert getattr(regs[0], a).tobytes() == getattr(regs[1], a).tobytes()

    @pytest.mark.parametrize("name", ["two_sample", "two_stage", "direct"])
    def test_diverged_fit_replays_through_the_loop_it_bound(self, name, monkeypatch):
        # Every window of a diverging fit raises an event numpy warns of, so
        # each is undone and stepped again one row per call of the loop fit
        # bound: fit binds one loop, sets no one-row loop of partial_fit's, and
        # ends with partial_fit's bytes.
        z, x, x_prime, y = _stream(1, 1, 2 * W + 3, seed=61)
        binds, init = [], est.Window.__init__

        def counting(window, *args, **kwargs):
            binds.append(args[0])
            init(window, *args, **kwargs)

        regs = []
        for how in ("fit", "partial_fit"):
            reg = _regressor(name, 1, 1)
            reg.set_params(**{p: 50.0 for p in ("alpha", "beta") if p in reg.get_params()})
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                if how == "fit":
                    monkeypatch.setattr(est.Window, "__init__", counting)
                    reg.fit(*_args(reg, z, x, y, x_prime))
                    monkeypatch.undo()
                else:
                    for i in range(len(y)):
                        reg.partial_fit(*_args(reg, z[i], x[i], y[i], x_prime[i]))
            regs.append(reg)
        assert len(binds) == 1 and "_one_row" not in vars(regs[0])
        assert not np.isfinite(regs[0].theta_).all() and regs[0].n_iter_ == regs[1].n_iter_ == len(y)
        for a in regs[0]._iterates:
            assert getattr(regs[0], a).tobytes() == getattr(regs[1], a).tobytes(), a

    @pytest.mark.parametrize("name", REGRESSOR_NAMES)
    @pytest.mark.parametrize("layout", ["fortran_z", "strided_x", "integer_y"])
    def test_any_layout_fits_as_its_contiguous_float64_copy(self, name, layout):
        # fit reads each window at an offset from its input's base address,
        # which is right only for C-contiguous float64 rows.
        n, d_x, d_z = W + 5, 3, 4
        z, x, x_prime, y = _stream(d_x, d_z, n, seed=53)
        if layout == "fortran_z":
            z = np.asfortranarray(z)
        elif layout == "strided_x":
            wide = np.zeros((2 * n, 2 * d_x))
            wide[::2, 1::2] = x
            x = wide[::2, 1::2]
        else:
            y = np.round(10.0 * y).astype(np.int64)
        given = _regressor(name, d_x, d_z)
        given.fit(*_args(given, z, x, y, x_prime))
        copied = _regressor(name, d_x, d_z)
        copied.fit(*_args(copied, *(np.ascontiguousarray(a, np.float64) for a in (z, x, y, x_prime))))
        for a in given._iterates:
            assert getattr(given, a).tobytes() == getattr(copied, a).tobytes(), a

    @pytest.mark.parametrize("event,name,rows", [
        # z^T V z overflows to inf, which zeroes the gain: the iterates stay finite.
        ("over", "online_2sls", ([[1e154, 1e154]], [[1.0]], [1.0], None)),
        # The step of theta underflows to zero.
        ("under", "two_sample", ([[1.0]], [[1e-200]], [1e-200], [[1e-200]])),
    ])
    def test_event_that_leaves_the_iterates_finite_is_reported_as_by_partial_fit(self, event, name, rows):
        # A floating-point event numpy does not ignore makes fit replay its
        # window, so it warns, or raises, just as partial_fit does.
        z, x, y, x_prime = (None if a is None else np.array(a, np.float64) for a in rows)
        def new():
            reg = _regressor(name, 1, z.shape[1])
            return reg.set_params(alpha=0.5) if name == "two_sample" else reg
        regs, caught = [], []
        for how in ("fit", "partial_fit"):
            reg = new()
            with warnings.catch_warnings(record=True) as seen, np.errstate(**{event: "warn"}):
                warnings.simplefilter("always")
                if how == "fit":
                    reg.fit(*_args(reg, z, x, y, x_prime))
                else:
                    reg.partial_fit(*_args(reg, z[0], x[0], y[0], None if x_prime is None else x_prime[0]))
            caught.append([(w.category, str(w.message)) for w in seen])
            regs.append(reg)
        assert caught[0] and caught[0] == caught[1]
        assert f"{event}flow encountered" in caught[0][0][1]
        for a in regs[0]._iterates:
            assert np.isfinite(getattr(regs[0], a)).all()
            assert getattr(regs[0], a).tobytes() == getattr(regs[1], a).tobytes(), a
        reg = new()
        with np.errstate(**{event: "raise"}), pytest.raises(FloatingPointError, match=f"{event}flow encountered"):
            reg.fit(*_args(reg, z, x, y, x_prime))
        assert reg.n_iter_ == 0
