import weakref

import numpy as np
import pytest

from ivstream import dgp, harness, metrics
from ivstream.schedule import Constant, Polynomial


def _tiny_spec(**over):
    kw = dict(
        dgp=dgp.endogenous_linear_config(1, 1, rho=1.0, sigma_eps=0.5),
        algorithm="two_stage_sgd",
        T=500,
        trials=4,
        base_seed=7,
        alpha=Polynomial(0.3, 0.95),
        beta=Polynomial(0.5, 0.95),
    )
    kw.update(over)
    return harness.ExperimentSpec(**kw)


class TestMixSeed:
    def test_matches_reference_mixer(self):
        # Independent reimplementation of the SplitMix64 finalizer.
        mask = (1 << 64) - 1

        def ref(base, i):
            x = (base + 0x9E3779B97F4A7C15 * (i + 1)) & mask
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
            return x ^ (x >> 31)

        for base in (0, 1, 12345, 2**63):
            for i in (0, 1, 49):
                assert harness.mix_seed(base, i) == ref(base, i)

    def test_distinct_across_trials(self):
        seeds = {harness.mix_seed(202, i) for i in range(100)}
        assert len(seeds) == 100

    def test_in_64_bit_range(self):
        for i in range(10):
            assert 0 <= harness.mix_seed(2**62, i) < 2**64


class TestCheckpoints:
    def test_default_grid(self):
        cps = harness.log_checkpoints(100_000)
        assert cps[0] == 1 and cps[-1] == 100_000
        assert all(b > a for a, b in zip(cps, cps[1:]))
        assert 40 <= len(cps) <= 50

    def test_small_T(self):
        assert harness.log_checkpoints(1) == [1]
        assert harness.log_checkpoints(10) == list(range(1, 11))


class TestRunTrial:
    def test_single_iteration_single_point(self):
        spec = _tiny_spec(T=1, checkpoints=(1,), trials=1)
        res = harness.run_trial(spec, 0)
        assert res.values("dist_sq").shape == (1, 1)
        assert res.iterations.tolist() == [1]

    def test_bitwise_determinism(self):
        spec = _tiny_spec()
        a = harness.run_trial(spec, 2)
        b = harness.run_trial(spec, 2)
        assert a.stream_digests == b.stream_digests
        assert a.values("dist_sq").tobytes() == b.values("dist_sq").tobytes()

    def test_checkpoint_monotonicity(self):
        res = harness.run_trial(_tiny_spec(), 0)
        its = res.iterations.tolist()
        assert its == sorted(set(its))
        assert res.values("dist_sq").shape == (1, len(its))

    def test_test_set_metrics_recorded(self):
        spec = _tiny_spec(test_n=50)
        res = harness.run_trial(spec, 0)
        assert sorted(res.metrics) == sorted(harness.METRICS)
        assert np.isfinite(res.values("test_mse")).all()
        oracle_vals = set(res.values("oracle_mse")[0].tolist())
        assert len(oracle_vals) == 1  # drawn once per trial, constant across checkpoints

    def test_out_of_range_trial_index(self):
        with pytest.raises(ValueError):
            harness.run_trial(_tiny_spec(trials=2), 2)


class TestRunExperiment:
    def test_single_trial_aggregate(self):
        spec = _tiny_spec(trials=1)
        series = harness.run_experiment(spec)
        np.testing.assert_array_equal(series.mean("dist_sq"), series.values("dist_sq")[0])
        np.testing.assert_array_equal(series.std("dist_sq"), 0.0)

    def test_worker_count_invariance(self, monkeypatch):
        # Trials run alone (group size 1) or in lockstep groups 3+3 agree bitwise.
        spec = _tiny_spec(trials=6)
        s2 = harness.run_experiment(spec)
        monkeypatch.setattr(harness, "GROUP_SIZE", 1)
        s1 = harness.run_experiment(spec)
        np.testing.assert_array_equal(s1.values("dist_sq"), s2.values("dist_sq"))
        assert s1.stream_digests == s2.stream_digests
        assert s1.combined_stream_digest() == s2.combined_stream_digest()

    def test_converging_run_improves_on_first_checkpoint(self):
        spec = _tiny_spec(T=20_000, trials=6,
                          dgp=dgp.shared_confounder_config(4, 8, c=0.1, phi="identity"),
                          algorithm="two_sample_sgd", alpha=Constant(3e-4), beta=None)
        series = harness.run_experiment(spec)
        m = series.mean("dist_sq")
        assert m[-1] < m[0]


def _lockstep_spec(algorithm, **over):
    two_sample = algorithm in harness.TWO_SAMPLE_ALGORITHMS
    kw = dict(
        dgp=(dgp.shared_confounder_config(4, 8, c=0.1) if two_sample
             else dgp.endogenous_linear_config(2, 3, rho=1.0, sigma_eps=0.5)),
        algorithm=algorithm, T=700, trials=7, base_seed=11, test_n=0 if two_sample else 30,
        alpha=None if algorithm == "online_2sls" else Polynomial(0.2, 0.95),
        beta=Polynomial(0.3, 0.95) if algorithm in ("two_stage_sgd", "direct_sgd") else None,
    )
    kw.update(over)
    return harness.ExperimentSpec(**kw)


class TestLockstep:
    def test_groups_are_balanced_and_capped(self):
        sizes = {n: [len(g) for g in harness.trial_groups(n)] for n in (1, 4, 5, 6, 7, 10, 50)}
        assert sizes[1] == [1] and sizes[4] == [4] and sizes[5] == [3, 2]
        assert sizes[6] == [3, 3] and sizes[7] == [4, 3] and sizes[10] == [4, 3, 3]
        assert max(sizes[50]) == harness.GROUP_SIZE and sum(sizes[50]) == 50
        assert np.concatenate(harness.trial_groups(10)).tolist() == list(range(10))

    @pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
    def test_run_trial_equals_its_lockstep_trial(self, algorithm):
        # trials=7 runs as groups 4+3; each trial alone must give the same bytes.
        spec = _lockstep_spec(algorithm)
        series = harness.run_experiment(spec)
        for i in range(spec.trials):
            res = harness.run_trial(spec, i)
            assert res.metrics.keys() == series.metrics.keys()
            for m, v in series.metrics.items():
                assert res.values(m).tobytes() == v[i:i + 1].tobytes()
            assert res.stream_digests == [series.stream_digests[i]]
        assert len(set(series.stream_digests)) == spec.trials

    def test_held_out_set_drawn_from_arrays(self):
        # The held-out set comes first in the trial's stream, as dgp.test_set draws it.
        spec = _lockstep_spec("two_stage_sgd", trials=1)
        rng = np.random.Generator(np.random.PCG64(harness.mix_seed(spec.base_seed, 0)))
        tx, ty = metrics.stack_test_set(dgp.test_set(rng, spec.dgp, spec.test_n))
        res = harness.run_trial(spec, 0)
        assert res.values("oracle_mse")[0, 0] == metrics.test_mse_arrays(spec.dgp.theta_star, tx, ty)

    def test_at_most_one_block_per_trial_of_a_group(self, monkeypatch):
        live, peak = [0], [0]

        def release():
            live[0] -= 1

        def counting_block(rng, cfg, n):
            block = dgp.sample_one_block(rng, cfg, n)
            if n > 30:  # training blocks, not the held-out set
                live[0] += 1
                peak[0] = max(peak[0], live[0])
                weakref.finalize(block[0], release)
            return block

        monkeypatch.setattr(harness, "_SAMPLE_BLOCK", 100)
        monkeypatch.setattr(harness, "sample_one_block", counting_block)
        series = harness.run_experiment(_lockstep_spec("direct_sgd", trials=10))
        assert series.values("dist_sq").shape[0] == 10
        assert peak[0] == harness.GROUP_SIZE


class TestFitSlope:
    def test_exact_power_law(self):
        t = np.unique(np.logspace(0, 5, 60).astype(int)).astype(float)
        slope = harness.fit_slope(t, 1.0 / t, 1.0)
        assert slope == pytest.approx(-1.0, abs=1e-6)

    def test_log_over_t_curve(self):
        # log(t)/t between 1e3 and 1e5 fits a slope in (-1.0, -0.85).
        t = np.logspace(3, 5, 50)
        slope = harness.fit_slope(t, np.log(t) / t, 1.0)
        assert -1.0 < slope < -0.85

    def test_tail_fraction_selects_window(self):
        t = np.logspace(0, 4, 40)
        y = np.where(t < 100, 1.0, 100.0 / t)  # flat head, 1/t tail
        slope = harness.fit_slope(t, y, 0.4)
        assert slope == pytest.approx(-1.0, abs=1e-8)

    def test_nonpositive_values_error(self):
        t = np.logspace(0, 2, 10)
        y = np.ones(10)
        y[-1] = 0.0
        with pytest.raises(ValueError, match="non-positive"):
            harness.fit_slope(t, y, 1.0)

    def test_window_too_small(self):
        with pytest.raises(ValueError, match="checkpoints"):
            harness.fit_slope(np.array([1.0, 2, 3, 4]), np.ones(4), 1.0)

    def test_bad_tail_fraction(self):
        t = np.logspace(0, 2, 10)
        with pytest.raises(ValueError):
            harness.fit_slope(t, 1 / t, 0.0)


class TestSpecValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="algorithm"):
            _tiny_spec(algorithm="sgd")

    def test_missing_schedules(self):
        with pytest.raises(ValueError, match="beta"):
            _tiny_spec(beta=None)
        with pytest.raises(ValueError, match="alpha"):
            _tiny_spec(algorithm="two_sample_sgd", alpha=None, beta=None)

    def test_checkpoints_must_be_in_range_and_increasing(self):
        with pytest.raises(ValueError):
            _tiny_spec(checkpoints=(1, 501))
        with pytest.raises(ValueError):
            _tiny_spec(checkpoints=(10, 10))
