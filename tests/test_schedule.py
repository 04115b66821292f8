import math

import numpy as np
import pytest

from ivstream import _native, estimators, presets, schedule
from ivstream.schedule import Constant, Polynomial, TheoryConstants


class TestStep:
    def test_constant(self):
        assert schedule.step(Constant(0.01), 7) == 0.01

    def test_polynomial_exact(self):
        # 2 * 4^(-1/2) = 1 exactly.
        assert schedule.step(Polynomial(2.0, 0.5), 4) == 1.0

    def test_numbers_are_kept_as_python_floats(self):
        # numpy scalars and integers alike: a step is then float64, and a schedule writes as JSON.
        for s in (Constant(np.float32(0.3)), Constant(1), Polynomial(np.float32(0.3), np.float32(0.95)),
                  Polynomial(2, 1)):
            assert all(type(v) is float for v in vars(s).values())
            assert type(schedule.step(s, 3)) is float
            assert schedule.steps(s, 5).dtype == np.float64
        assert Constant(np.float32(0.3)).alpha == float(np.float32(0.3))

    def test_t_below_one_rejected(self):
        with pytest.raises(ValueError):
            schedule.step(Constant(0.1), 0)

    def test_steps_vectorized_matches_scalar(self):
        s = Polynomial(0.3, 0.95)
        arr = schedule.steps(s, 100)
        assert arr.shape == (100,)
        for t in (1, 2, 50, 100):
            assert arr[t - 1] == schedule.step(s, t)

    def test_steps_within_one_ulp_of_scalar(self):
        # numpy's vectorised power and libm's pow may round t**-e differently
        # in the last bit (they do on AVX-512 builds), never by more; scaling
        # by a coefficient other than 1 can widen that to 2 ulps of the step.
        def ulps(coeff):
            s = Polynomial(coeff, 0.95)
            arr = schedule.steps(s, 100_000)
            scalar = np.array([schedule.step(s, t) for t in range(1, 100_001)])
            return np.abs(arr.view(np.int64) - scalar.view(np.int64)).max()

        assert ulps(1.0) <= 1
        assert ulps(0.3) <= 2

    @pytest.mark.parametrize("schedules", [
        *([s] for s in (Polynomial(0.3, 0.95), Polynomial(1.7, 0.6), Polynomial(2.0, 1.0), Polynomial(0.9 / 3.0, 0.95),
                        Polynomial(1, 1 / 3), Constant(0.01))),
        # alpha and beta of one exponent share each pow; of two, they do not.
        [Polynomial(0.9 / 3.0, 0.95), Polynomial(1.5 / 18.0, 0.95)],
        [Constant(0.05), Polynomial(0.3, 0.95)],
    ])
    def test_fit_steps_are_step_bit_for_bit(self, schedules):
        # Unlike steps, the C steps of a regressor's fit are step at every t, up to t = 1e7.
        terms = np.array([estimators._terms(s) for s in schedules])
        for start, stop in ((0, 3000), (99_000, 101_000), (999_744, 1_000_256), (9_998_000, 10_000_000)):
            got = np.empty((len(schedules), stop - start))
            _native.loops().fit_steps(stop - start, start, len(schedules), terms.ctypes.data, got.ctypes.data)
            want = np.array([[schedule.step(s, t) for t in range(start + 1, stop + 1)] for s in schedules])
            assert got.tobytes() == want.tobytes()

    def test_polynomial_positive_and_strictly_decreasing(self):
        arr = schedule.steps(Polynomial(1.7, 0.6), 1000)
        assert np.all(arr > 0)
        assert np.all(np.diff(arr) < 0)

    @pytest.mark.parametrize("bad", [dict(coeff=0.0, exponent=0.5),
                                     dict(coeff=-1.0, exponent=0.5),
                                     dict(coeff=1.0, exponent=0.0),
                                     dict(coeff=1.0, exponent=1.5)])
    def test_invalid_polynomial(self, bad):
        with pytest.raises(ValueError):
            Polynomial(**bad)

    def test_invalid_constant(self):
        with pytest.raises(ValueError):
            Constant(0.0)


class TestLogHorizonAlpha:
    def test_formula(self):
        sched, clamped = schedule.log_horizon_alpha(8, TheoryConstants(mu=1.0))
        assert sched.alpha == math.log(8) / 8
        assert not clamped

    def test_zero_noise_never_clamps(self):
        # bound = mu / mu^2 = 1 while log(T)/T < 1 for every T >= 2.
        k = TheoryConstants(mu=1.0, sigma1_sq=0.0)
        for T in (2, 10, 1000, 10**6):
            _, clamped = schedule.log_horizon_alpha(T, k)
            assert not clamped

    def test_clamp_binds_for_noisy_problems(self):
        k = TheoryConstants(mu=1.0, sigma1_sq=1e6)
        sched, clamped = schedule.log_horizon_alpha(10, k)
        assert clamped
        assert sched.alpha == pytest.approx(1.0 / (1.0 + 3e6), rel=1e-12)

    def test_small_horizon_rejected(self):
        with pytest.raises(ValueError):
            schedule.log_horizon_alpha(1, TheoryConstants(mu=1.0))


class TestTwoTimescaleSchedules:
    def test_reference_constants(self):
        # C_alpha = min(0.5 * 1 * 1 * 1, 0.5 * 1) = 0.5; C_beta = 1/128.
        k = TheoryConstants(mu=1.0, lambda_z=1.0, c_gamma=1.0, gamma_star_norm=1.0)
        alpha, beta = schedule.two_timescale_schedules(k, 1, iota=0.1)
        assert alpha.coeff == 0.5
        assert beta.coeff == 1.0 / 128.0
        assert alpha.exponent == beta.exponent == 1.0 - 0.1 / 2.0

    def test_doubling_c_gamma_quarters_first_branch(self):
        base = dict(mu=1.0, lambda_z=1.0, gamma_star_norm=1.0)
        a1, _ = schedule.two_timescale_schedules(TheoryConstants(c_gamma=1.0, **base), 1, iota=0.1)
        a2, _ = schedule.two_timescale_schedules(TheoryConstants(c_gamma=2.0, **base), 1, iota=0.1)
        assert a2.coeff == pytest.approx(a1.coeff / 4.0, rel=1e-12)

    def test_small_iota_pushes_exponent_to_one(self):
        alpha, _ = schedule.two_timescale_schedules(TheoryConstants(mu=1.0), 1, iota=1e-4)
        assert alpha.exponent == pytest.approx(1.0, abs=1e-4)

    def test_summability_exponent_assertion(self):
        # (3/2) * (1 - iota/2) > 1 fails for iota = 0.8.
        with pytest.raises(ValueError, match="iota"):
            schedule.two_timescale_schedules(TheoryConstants(mu=1.0), 1, iota=0.8)

    def test_step_mass_is_summable_in_the_required_sense(self):
        alpha, beta = schedule.two_timescale_schedules(TheoryConstants(mu=1.0), 1, iota=0.1)
        assert 2.0 * alpha.exponent > 1.0
        assert alpha.exponent + beta.exponent / 2.0 > 1.0


class TestTheoryConstants:
    def test_fig1_square_link_cells_build(self):
        # With the square link or a confounder-mean shift, mu is not bounded by
        # lambda_z * ||gamma_star||^2, so measured constants must not be rejected.
        cells = [c for c in presets.preset_cells("fig1") if c.endswith("_phi_sq")]
        assert len(cells) == 4
        for cell in cells:
            (specs,) = presets.build_preset("fig1", cell=cell, trials=1, T=1000).values()
            assert isinstance(specs[0].alpha, Constant)

    def test_positive_fields_validated(self):
        with pytest.raises(ValueError):
            TheoryConstants(mu=-1.0)
        with pytest.raises(ValueError):
            schedule.two_timescale_schedules(TheoryConstants(mu=1.0), 1, iota=0.0)
