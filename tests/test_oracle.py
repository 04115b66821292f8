import numpy as np
import pytest

from conftest import make_rng
from ivstream import _native, dgp, oracle
from ivstream.oracle import PopulationSummary


def brute_force_min_eigenvalue(a) -> float:
    """Smallest eigenvalue via the characteristic polynomial.

    Uses the Faddeev-LeVerrier recursion to build the characteristic
    polynomial and takes the smallest real root. Independent of the
    eigen-solver used elsewhere; intended for cross-checks on small matrices.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -(a @ m).trace() / k
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-8 * max(1.0, np.abs(roots).max())].real
    return float(real.min())


def _linear_grid_configs():
    cells = []
    for dims in ((1, 1), (8, 16)):
        for rho in (1.0, 4.0):
            for sig in (0.5, 1.0):
                cells.append(dgp.endogenous_linear_config(dims[0], dims[1], rho=rho, sigma_eps=sig))
    for dims in ((4, 8), (8, 16)):
        for c in (0.1, 1.0):
            cells.append(dgp.shared_confounder_config(dims[0], dims[1], c=c, phi="identity"))
    return cells


class TestSummarize:
    @pytest.mark.parametrize("cfg", _linear_grid_configs())
    def test_closed_form_recovers_planted_parameter(self, cfg):
        s = oracle.summarize(cfg)
        assert np.abs(s.theta_closed - cfg.theta_star).max() <= 1e-10
        assert s.mu > 0

    def test_far_initialisation_model(self):
        # d = 1, gamma* = -1, theta* = 1: closed forms reproduce both exactly.
        cfg = dgp.endogenous_linear_config(1, 1, rho=4.0, sigma_eps=1.0,
                                           theta_star=np.array([1.0]),
                                           gamma_star=np.array([[-1.0]]))
        s = oracle.summarize(cfg)
        assert s.gamma_closed[0, 0] == pytest.approx(-1.0, abs=1e-14)
        assert s.theta_closed[0] == pytest.approx(1.0, abs=1e-14)

    def test_mu_identity_block(self):
        # gamma^T Sigma_Z gamma = I so the smallest eigenvalue is exactly 1.
        cfg = dgp.endogenous_linear_config(4, 8, rho=1.0, sigma_eps=0.5)
        s = oracle.summarize(cfg)
        assert s.mu == pytest.approx(1.0, abs=1e-12)
        # characteristic-polynomial cross-check; the eigenvalue has
        # multiplicity 4 here, so the root is conditioned like eps**(1/4)
        assert brute_force_min_eigenvalue(s.cond_xx) == pytest.approx(1.0, abs=1e-3)

    def test_mu_anisotropic_first_stage(self):
        # gamma diag(2, 1) in a (3, 2) block: cond_xx = diag(4, 1), min eig 1.
        gamma = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        cfg = dgp.shared_confounder_config(2, 3, c=0.0, phi="identity", gamma_star=gamma)
        s = oracle.summarize(cfg)
        np.testing.assert_allclose(s.cond_xx, np.diag([4.0, 1.0]), atol=1e-14)
        assert s.mu == pytest.approx(1.0, abs=1e-12)
        assert brute_force_min_eigenvalue(s.cond_xx) == pytest.approx(1.0, abs=1e-8)

    def test_confounder_mean_shift_enters_moments(self):
        c = 0.5
        cfg = dgp.shared_confounder_config(2, 2, c=c, phi="identity")
        s = oracle.summarize(cfg)
        ones = np.ones((2, 2))
        np.testing.assert_allclose(s.cond_xx, np.eye(2) + c**2 * ones, atol=1e-14)
        # theta_closed is untouched by the shift (instrument has mean zero).
        assert np.abs(s.theta_closed - cfg.theta_star).max() <= 1e-12

    def test_square_link_has_no_closed_form(self):
        cfg = dgp.shared_confounder_config(2, 2, c=0.1, phi="square")
        with pytest.raises(ValueError, match="closed-form"):
            oracle.summarize(cfg)


class TestGradF:
    def test_zero_at_optimum_for_exogenous_noise(self):
        cfg = dgp.endogenous_linear_config(3, 5, rho=4.0, sigma_eps=1.0)
        s = oracle.summarize(cfg)
        np.testing.assert_allclose(oracle.grad_f(cfg.theta_star, s), 0.0, atol=1e-14)

    def test_scalar_case(self):
        # M = 2, theta - theta* = 3 -> gradient 6.
        s = PopulationSummary(
            gamma_closed=np.eye(1), theta_closed=np.zeros(1), mu=2.0,
            cond_xx=np.array([[2.0]]), cond_xy=np.zeros(1),
        )
        assert oracle.grad_f(np.array([3.0]), s)[0] == 6.0

    def test_affine_combinations(self):
        cfg = dgp.shared_confounder_config(3, 4, c=0.3, phi="identity")
        s = oracle.summarize(cfg)
        t1, t2 = np.array([1.0, -2.0, 0.5]), np.array([0.0, 3.0, 1.0])
        for a in (0.25, 0.5, 1.5):
            lhs = oracle.grad_f(a * t1 + (1 - a) * t2, s)
            rhs = a * oracle.grad_f(t1, s) + (1 - a) * oracle.grad_f(t2, s)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_confounder_mean_shift_biases_stationary_point(self):
        # With mean-one confounding the gradient at theta* is -c^2 * ones.
        c = 0.4
        cfg = dgp.shared_confounder_config(2, 3, c=c, phi="identity")
        s = oracle.summarize(cfg)
        np.testing.assert_allclose(oracle.grad_f(cfg.theta_star, s), -(c**2) * np.ones(2), atol=1e-14)


class TestMcMoments:
    def test_matches_analytic_summary(self):
        cfg = dgp.shared_confounder_config(4, 8, c=1.0, phi="identity")
        exact = oracle.summarize(cfg)
        n = 200_000
        mc = oracle.mc_moments(make_rng(21), cfg, n)
        # Entrywise standard errors of the two moment estimates, from the same draws.
        _, x, x_p, y = dgp.sample_two_block(make_rng(21), cfg, n)
        se_xx = np.sqrt((x_p[:, :, None] * x[:, None, :]).var(axis=0) / n)
        se_xy = np.sqrt((x_p * y[:, None]).var(axis=0) / n)
        assert np.all(np.abs(mc.cond_xx - exact.cond_xx) <= 3.0 * se_xx + 1e-9)
        assert np.all(np.abs(mc.cond_xy - exact.cond_xy) <= 3.0 * se_xy + 1e-9)
        assert np.abs(mc.theta_closed - cfg.theta_star).max() <= 0.05

    def test_minimum_sample_size(self, rng):
        cfg = dgp.endogenous_linear_config(1, 1, rho=1.0, sigma_eps=0.5)
        oracle.mc_moments(rng, cfg, 1000)
        with pytest.raises(ValueError):
            oracle.mc_moments(rng, cfg, 999)

    def test_square_link_accepted(self):
        # No closed form exists; the Monte-Carlo path must handle it.
        # For the identity block, E[phi phi^T] = 2I + ones ones^T, so with
        # c = 0.1 the smallest eigenvalue of the conditional moment is 2.
        cfg = dgp.shared_confounder_config(4, 8, c=0.1, phi="square")
        mc = oracle.mc_moments(make_rng(2), cfg, 200_000)
        assert mc.mu == pytest.approx(2.0, rel=0.1)


def _numpy_moments(z, x, x_p, y) -> PopulationSummary:
    """mc_moments's summary of these draws from numpy's full-tensor reductions."""
    n = len(y)
    cond_xx = (x_p[:, :, None] * x[:, None, :]).mean(axis=0)
    cond_xx = 0.5 * (cond_xx + cond_xx.T)
    cond_xy = (x_p * y[:, None]).mean(axis=0)
    return oracle._summary(z.T @ z / n, z.T @ x / n, z.T @ y / n, cond_xx, cond_xy)


def _moment_cases():
    """(cfg, n): square links at d_x^2 below 8, from 8 to 128 and above it, over n at d_x = 1's pairwise
    sum's edges, where an (n, d_x, d_x) tensor stays within 6.4 MB; and one correlated Z."""
    cases = [(dgp.shared_confounder_config(d_x, d_x + 2, c=0.3, phi="square"), n)
             for d_x in (1, 2, 3, 4, 8, 12, 16) for n in (1000, 1001, 50_000) if n * d_x**2 <= 50_000 * 16]
    z_cov = np.eye(5) + 0.4 * np.ones((5, 5))
    return cases + [(dgp.endogenous_linear_config(3, 5, rho=4.0, sigma_eps=1.0, z_cov=z_cov), 50_000)]


def _case_id(case):
    cfg, n = case
    return f"{type(cfg.family).__name__}-dx{cfg.d_x}-n{n}"


class TestCompiledMoments:
    """The compiled Monte-Carlo sums give numpy's full-tensor expressions bit for bit."""

    @pytest.mark.parametrize("case", _moment_cases(), ids=_case_id)
    def test_theory_constants(self, case, monkeypatch):
        cfg, n = case
        monkeypatch.setattr(oracle, "_MC_N", n)
        rng = np.random.Generator(np.random.PCG64(oracle._MC_SEED))
        summary = oracle.summarize(cfg) if cfg.is_linear else _numpy_moments(*dgp.sample_two_block(rng, cfg, n))
        z, x, x_p, _ = dgp.sample_two_block(rng, cfg, n)
        m_z = dgp.conditional_mean_x(cfg, z)
        mm = m_z[:, :, None] * m_z[:, None, :]
        dev_xx = x_p[:, :, None] * x[:, None, :] - mm
        dev_mm = mm - summary.cond_xx[None, :, :]
        full = 2.0 * float((dev_xx**2).sum(axis=(1, 2)).mean()) + 2.0 * float(
            (dev_mm**2).sum(axis=(1, 2)).mean()
        )
        k = oracle.theory_constants(cfg)
        assert (k.sigma1_sq.hex(), k.mu.hex()) == (full.hex(), summary.mu.hex())

    @pytest.mark.parametrize("case", _moment_cases(), ids=_case_id)
    def test_mc_moments(self, case):
        cfg, n = case
        full = _numpy_moments(*dgp.sample_two_block(make_rng(3), cfg, n))
        mc = oracle.mc_moments(make_rng(3), cfg, n)
        for name in ("cond_xx", "cond_xy", "theta_closed", "gamma_closed"):
            assert getattr(mc, name).tobytes() == getattr(full, name).tobytes(), name
        assert mc.mu.hex() == full.mu.hex()

    @pytest.mark.parametrize("case", _moment_cases(), ids=_case_id)
    def test_per_draw_sums(self, case):
        """The compiled sums before numpy divides them or takes their means, which could round a wrong order
        away."""
        cfg, n = case
        z, x, x_p, y = dgp.sample_two_block(make_rng(5), cfg, n)
        m_z = dgp.conditional_mean_x(cfg, z)
        cond_xx = oracle.mc_moments(make_rng(6), cfg, 1000).cond_xx
        xx, xy = np.empty((cfg.d_x, cfg.d_x)), np.empty(cfg.d_x)
        sq_xx, sq_mm, work = np.empty(n), np.empty(n), np.empty(cfg.d_x**2)
        lib = _native.loops()
        lib.cross_sums(n, cfg.d_x, x.ctypes.data, x_p.ctypes.data, y.ctypes.data, xx.ctypes.data, xy.ctypes.data)
        lib.noise_norms(n, cfg.d_x, x.ctypes.data, x_p.ctypes.data, m_z.ctypes.data, cond_xx.ctypes.data,
                        sq_xx.ctypes.data, sq_mm.ctypes.data, work.ctypes.data)
        mm = m_z[:, :, None] * m_z[:, None, :]
        assert xx.tobytes() == (x_p[:, :, None] * x[:, None, :]).sum(axis=0).tobytes()
        assert xy.tobytes() == (x_p * y[:, None]).sum(axis=0).tobytes()
        assert sq_xx.tobytes() == ((x_p[:, :, None] * x[:, None, :] - mm) ** 2).sum(axis=(1, 2)).tobytes()
        assert sq_mm.tobytes() == ((mm - cond_xx) ** 2).sum(axis=(1, 2)).tobytes()


class TestTheoryConstants:
    def test_simple_linear_process(self):
        cfg = dgp.endogenous_linear_config(1, 1, rho=1.0, sigma_eps=0.5)
        k = oracle.theory_constants(cfg)
        assert k.mu == pytest.approx(1.0, abs=1e-12)
        assert k.lambda_z == 1.0
        assert k.gamma_star_norm == 1.0
        assert k.c_gamma == 2.0  # zero initialisation, unit planted parameter
        assert k.sigma1_sq > 0

    def test_far_initialisation_widens_the_iterate_ball(self):
        cfg = dgp.endogenous_linear_config(1, 1, rho=4.0, sigma_eps=1.0,
                                           theta_star=np.array([1.0]),
                                           gamma_star=np.array([[-1.0]]))
        k = oracle.theory_constants(cfg, gamma0=np.full((1, 1), 10.0))
        assert k.c_gamma == pytest.approx(12.0, rel=1e-12)
