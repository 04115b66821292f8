import numpy as np
import pytest

from conftest import make_rng
from ivstream import dgp, metrics
from ivstream._validation import as_float_matrix, as_float_vector


class TestDistToOpt:
    def test_zero_at_match(self):
        assert metrics.dist_to_opt([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert metrics.dist_to_opt([1.0, 2.0], [0.0, 0.0]) == 5.0

    def test_permutation_invariance(self):
        theta = np.array([0.3, -1.2, 2.0])
        star = np.array([1.0, 0.5, -0.5])
        perm = [2, 0, 1]
        assert metrics.dist_to_opt(theta, star) == pytest.approx(
            metrics.dist_to_opt(theta[perm], star[perm]), rel=1e-15
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            metrics.dist_to_opt([1.0], [1.0, 2.0])


def _test_mse(theta, test) -> float:
    return metrics.test_mse_arrays(theta, *metrics.stack_test_set(test))


class TestTestMse:
    def test_zero_on_noise_free_data(self, rng):
        cfg = dgp.shared_confounder_config(4, 8, c=0.0, phi="identity")
        test = dgp.test_set(rng, cfg, 50)
        assert _test_mse(cfg.theta_star, test) == 0.0

    def test_noise_floor(self):
        # Var(nu) = rho^2 sigma^2 + 0.25 = 0.5 for rho = 1, sigma_eps = 0.5.
        cfg = dgp.endogenous_linear_config(1, 1, rho=1.0, sigma_eps=0.5)
        test = dgp.test_set(make_rng(31), cfg, 100_000)
        assert _test_mse(cfg.theta_star, test) == pytest.approx(0.5, rel=0.05)

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            metrics.stack_test_set([])

    def test_nonnegative(self, rng):
        cfg = dgp.endogenous_linear_config(2, 3, rho=4.0, sigma_eps=1.0)
        test = dgp.test_set(rng, cfg, 64)
        assert _test_mse(np.array([-3.0, 7.0]), test) >= 0.0


class TestFloatVector:
    def test_contiguous_float64_and_messages(self):
        # The finiteness check counts the finite entries; the errors and
        # their messages are those of the .all() it replaced.
        strided = np.arange(6.0)[::2]
        got = as_float_vector(strided, n=3, name="v")
        assert got.flags.c_contiguous and got.dtype == np.float64 and got.tolist() == [0.0, 2.0, 4.0]
        assert as_float_vector(2.5).tolist() == [2.5]
        for bad in ([1.0, np.nan], [np.inf], [-np.inf, 0.0]):
            with pytest.raises(ValueError, match="^v has non-finite entries$"):
                as_float_vector(bad, name="v")
        with pytest.raises(ValueError, match=r"^v must be 1-d, got shape \(1, 2\)$"):
            as_float_vector([[1.0, 2.0]], name="v")
        with pytest.raises(ValueError, match="^v must have length 3, got 2$"):
            as_float_vector([1.0, 2.0], n=3, name="v")
        with pytest.raises(ValueError, match="^m has non-finite entries$"):
            as_float_matrix([[1.0, np.nan]], name="m")
        assert as_float_matrix([[1.0, 2.0]], shape=(1, 2)).tolist() == [[1.0, 2.0]]
