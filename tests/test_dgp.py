import numpy as np
import pytest

from conftest import make_rng
from ivstream import dgp


class TestNoiseFreeLimit:
    def test_sample_one_is_deterministic_given_z(self, rng):
        cfg = dgp.shared_confounder_config(4, 8, c=0.0, phi="identity")
        z, x, y = dgp.sample_one_block(rng, cfg, 100)
        np.testing.assert_array_equal(x, z @ cfg.gamma_star)
        np.testing.assert_array_equal(y, x @ cfg.theta_star)

    def test_sample_two_degenerate_conditional_law(self, rng):
        cfg = dgp.shared_confounder_config(4, 8, c=0.0, phi="square")
        z, x, x_prime, _ = dgp.sample_two_block(rng, cfg, 100)
        np.testing.assert_array_equal(x, x_prime)
        np.testing.assert_array_equal(x, (z @ cfg.gamma_star) ** 2)


class TestInstrumentDraw:
    @pytest.mark.parametrize("d_x,d_z", [(1, 1), (4, 8), (8, 16)])
    def test_identity_covariance_skips_the_factor_bit_for_bit(self, d_x, d_z):
        # With z_cov = I the block is the raw normal draw, which is what the
        # product with the identity factor gave, bit for bit.
        cfg = dgp.shared_confounder_config(d_x, d_z, c=0.1, phi="identity", z_cov=np.eye(d_z))
        z, _, _ = dgp.sample_one_block(make_rng(4), cfg, 5000)
        raw = make_rng(4).standard_normal((5000, d_z))
        np.testing.assert_array_equal(z, raw)
        np.testing.assert_array_equal(z, raw @ np.linalg.cholesky(cfg.z_cov).T)

    def test_other_covariance_applies_the_factor(self):
        z_cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        cfg = dgp.endogenous_linear_config(1, 2, rho=1.0, sigma_eps=0.5, z_cov=z_cov)
        z, _, _ = dgp.sample_one_block(make_rng(4), cfg, 5000)
        np.testing.assert_array_equal(z, make_rng(4).standard_normal((5000, 2)) @ np.linalg.cholesky(z_cov).T)


class TestMoments:
    def test_outcome_noise_variance(self):
        # Var(Y - X) = Var(nu) = rho^2 sigma_eps^2 + 0.25 = 0.25 for rho = 0.
        cfg = dgp.endogenous_linear_config(1, 1, rho=0.0, sigma_eps=0.5,
                                           theta_star=np.array([1.0]), gamma_star=np.array([[1.0]]))
        z, x, y = dgp.sample_one_block(make_rng(7), cfg, 1_000_000)
        var = float(np.var(y - x[:, 0]))
        assert abs(var - 0.25) <= 0.02 * 0.25

    def test_two_sample_cross_moment(self):
        # E[X' X^T] = gamma^T Sigma_Z gamma + c^2 * ones ones^T entrywise within 2%
        # (confounders h, h' are independent with mean one).
        cfg = dgp.shared_confounder_config(4, 8, c=1.0, phi="identity")
        z, x, xp, y = dgp.sample_two_block(make_rng(11), cfg, 1_000_000)
        emp = xp.T @ x / len(y)
        expected = cfg.gamma_star.T @ cfg.z_cov @ cfg.gamma_star + np.ones((4, 4))
        np.testing.assert_allclose(emp, expected, rtol=0.02, atol=0.01)

    def test_conditional_independence_given_z(self):
        # Cov(X - E[X|Z], X' - E[X'|Z]) -> 0 within 3 Monte-Carlo standard errors.
        cfg = dgp.shared_confounder_config(2, 4, c=1.0, phi="identity")
        z, x, xp, _ = dgp.sample_two_block(make_rng(3), cfg, 100_000)
        m = dgp.conditional_mean_x(cfg, z)
        r, rp = x - m, xp - m
        for i in range(2):
            for j in range(2):
                prod = r[:, i] * rp[:, j]
                se = prod.std() / np.sqrt(len(prod))
                assert abs(prod.mean()) <= 3.0 * se

    @pytest.mark.parametrize("phi", ["identity", "square"])
    def test_conditional_mean_shift(self, phi):
        # E[X | Z] = phi(gamma^T Z) + c * ones: the residual mean is c per coordinate.
        c = 0.7
        cfg = dgp.shared_confounder_config(3, 6, c=c, phi=phi)
        z, x, _ = dgp.sample_one_block(make_rng(5), cfg, 200_000)
        base = z @ cfg.gamma_star
        if phi == "square":
            base = base**2
        resid = x - base
        se = resid.std(axis=0) / np.sqrt(len(resid))
        np.testing.assert_array_less(np.abs(resid.mean(axis=0) - c), 3.0 * se + 1e-12)


class TestGridConfigs:
    @pytest.mark.parametrize("dims", [(1, 1), (8, 16)])
    @pytest.mark.parametrize("rho", [1.0, 4.0])
    @pytest.mark.parametrize("sigma_eps", [0.5, 1.0])
    def test_endogenous_linear_grid_accepted(self, dims, rho, sigma_eps):
        cfg = dgp.endogenous_linear_config(dims[0], dims[1], rho=rho, sigma_eps=sigma_eps)
        assert cfg.d_x == dims[0] and cfg.d_z == dims[1]

    @pytest.mark.parametrize("dims", [(4, 8), (8, 16)])
    @pytest.mark.parametrize("c", [0.1, 1.0])
    @pytest.mark.parametrize("phi", ["identity", "square"])
    def test_shared_confounder_grid_accepted(self, dims, c, phi):
        cfg = dgp.shared_confounder_config(dims[0], dims[1], c=c, phi=phi)
        assert cfg.is_linear == (phi == "identity")

    def test_default_gamma_is_identity_block(self):
        cfg = dgp.endogenous_linear_config(2, 4, rho=1.0, sigma_eps=0.5)
        expected = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(cfg.gamma_star, expected)


class TestTestSet:
    def test_sizes(self, rng):
        cfg = dgp.endogenous_linear_config(1, 1, rho=1.0, sigma_eps=0.5)
        assert len(dgp.test_set(rng, cfg, 400)) == 400
        assert len(dgp.test_set(rng, cfg, 1)) == 1
        with pytest.raises(ValueError):
            dgp.test_set(rng, cfg, 0)

    def test_same_seed_bitwise_identical(self):
        cfg = dgp.endogenous_linear_config(2, 3, rho=1.0, sigma_eps=0.5)
        a = dgp.test_set(make_rng(42), cfg, 50)
        b = dgp.test_set(make_rng(42), cfg, 50)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.z, sb.z)
            np.testing.assert_array_equal(sa.x, sb.x)
            assert sa.y == sb.y


class TestDeterminism:
    def test_identical_seeds_identical_streams(self):
        cfg = dgp.shared_confounder_config(4, 8, c=1.0, phi="square")
        a = dgp.sample_two_block(make_rng(9), cfg, 1000)
        b = dgp.sample_two_block(make_rng(9), cfg, 1000)
        for xa, xb in zip(a, b):
            np.testing.assert_array_equal(xa, xb)


class TestValidation:
    def test_dz_must_dominate_dx(self):
        with pytest.raises(ValueError, match="d_z"):
            dgp.endogenous_linear_config(4, 2, rho=1.0, sigma_eps=0.5)

    def test_identification_requires_pd_first_stage(self):
        with pytest.raises(ValueError):
            dgp.endogenous_linear_config(2, 2, rho=1.0, sigma_eps=0.5,
                                         gamma_star=np.zeros((2, 2)))

    def test_negative_c_rejected(self):
        with pytest.raises(ValueError, match="c"):
            dgp.shared_confounder_config(2, 2, c=-0.5)

    def test_nonpositive_sigma_eps_rejected(self):
        with pytest.raises(ValueError, match="sigma_eps"):
            dgp.endogenous_linear_config(1, 1, rho=1.0, sigma_eps=0.0)

    def test_non_pd_z_cov_rejected(self):
        with pytest.raises(ValueError, match="z_cov"):
            dgp.endogenous_linear_config(1, 2, rho=1.0, sigma_eps=0.5,
                                         z_cov=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_nonfinite_theta_rejected(self):
        with pytest.raises(ValueError):
            dgp.endogenous_linear_config(1, 1, rho=1.0, sigma_eps=0.5,
                                         theta_star=np.array([np.inf]))

    def test_unknown_phi_rejected(self):
        with pytest.raises(ValueError, match="phi"):
            dgp.shared_confounder_config(1, 1, c=0.1, phi="cube")
