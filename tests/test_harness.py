import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest

from ivstream import dgp, harness, metrics, presets
from ivstream import estimators as est
from ivstream.schedule import Constant, Polynomial, steps


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
        assert res.metrics["dist_sq"].shape == (1, 1)
        assert res.iterations.tolist() == [1]

    def test_bitwise_determinism(self):
        spec = _tiny_spec()
        a = harness.run_trial(spec, 2)
        b = harness.run_trial(spec, 2)
        assert a.stream_digests == b.stream_digests
        assert a.metrics["dist_sq"].tobytes() == b.metrics["dist_sq"].tobytes()

    def test_checkpoint_monotonicity(self):
        res = harness.run_trial(_tiny_spec(), 0)
        its = res.iterations.tolist()
        assert its == sorted(set(its))
        assert res.metrics["dist_sq"].shape == (1, len(its))

    def test_test_set_metrics_recorded(self):
        spec = _tiny_spec(test_n=50)
        res = harness.run_trial(spec, 0)
        assert sorted(res.metrics) == sorted(harness.METRICS)
        assert np.isfinite(res.metrics["test_mse"]).all()
        oracle_vals = set(res.metrics["oracle_mse"][0].tolist())
        assert len(oracle_vals) == 1  # drawn once per trial, constant across checkpoints

    def test_out_of_range_trial_index(self):
        with pytest.raises(ValueError):
            harness.run_trial(_tiny_spec(trials=2), 2)

    @pytest.mark.parametrize("trial_index", [1.5, 1.0, True, "1"])
    def test_trial_index_must_be_an_integer(self, trial_index):
        # run_trial(spec, 1.5) used to run trial 1.
        with pytest.raises(ValueError, match="^trial_index must be an integer"):
            harness.run_trial(_tiny_spec(trials=2), trial_index)


class TestRunExperiment:
    def test_single_trial_aggregate(self):
        spec = _tiny_spec(trials=1)
        series = harness.run_experiment(spec)
        np.testing.assert_array_equal(series.mean("dist_sq"), series.metrics["dist_sq"][0])

    def test_worker_count_invariance(self, monkeypatch):
        # Trials run alone (group size 1) or in one lockstep group of 6 agree bitwise.
        spec = _tiny_spec(trials=6)
        s2 = harness.run_experiment(spec)
        monkeypatch.setattr(harness, "GROUP_SIZE", 1)
        s1 = harness.run_experiment(spec)
        np.testing.assert_array_equal(s1.metrics["dist_sq"], s2.metrics["dist_sq"])
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
    two_sample = est.REGRESSORS[algorithm]._reads_x_prime
    kw = dict(
        dgp=(dgp.shared_confounder_config(4, 8, c=0.1) if two_sample
             else dgp.endogenous_linear_config(2, 3, rho=1.0, sigma_eps=0.5)),
        algorithm=algorithm, T=700, trials=7, base_seed=11, test_n=0 if two_sample else 30,
        alpha=None if algorithm == "online_2sls" else Polynomial(0.2, 0.95),
        beta=Polynomial(0.3, 0.95) if algorithm in ("two_stage_sgd", "direct_sgd") else None,
    )
    kw.update(over)
    return harness.ExperimentSpec(**kw)


def _block_bytes(spec) -> int:
    """Bytes of one kept sample block of ``spec``: X, X', Y (two-sample) or Z, X, Y."""
    d_x, d_z = spec.dgp.d_x, spec.dgp.d_z
    width = 2 * d_x + 1 if est.REGRESSORS[spec.algorithm]._reads_x_prime else d_z + d_x + 1
    return 8 * width * min(harness._SAMPLE_BLOCK, spec.T)


class TestLockstep:
    def test_groups_are_balanced_and_capped(self, monkeypatch):
        def sizes(spec):
            groups = harness.trial_groups(spec)
            assert np.concatenate(groups).tolist() == list(range(spec.trials))
            return [len(g) for g in groups]

        for n in (1, 7, 50, 64, 65, 200):
            got = sizes(_lockstep_spec("direct_sgd", trials=n))
            assert max(got) - min(got) <= 1 and max(got) <= harness.GROUP_SIZE
            assert len(got) == -(-n // harness.GROUP_SIZE)  # small blocks: only the cap binds
        one_sample = _lockstep_spec("direct_sgd", trials=10)  # rows of Z, X, Y: 3 + 2 + 1 floats
        monkeypatch.setattr(harness, "_GROUP_BYTES", 3 * 8 * 6 * one_sample.T)
        assert sizes(one_sample) == [3, 3, 2, 2]
        monkeypatch.setattr(harness, "_GROUP_BYTES", 8 * 6 * one_sample.T - 1)
        assert sizes(one_sample) == [1] * 10  # a block larger than the budget still runs
        two_sample = _lockstep_spec("two_sample_sgd", trials=10)  # d_x 4, d_z 8: X, X', Y are 9 floats
        monkeypatch.setattr(harness, "_GROUP_BYTES", 2 * 8 * 9 * two_sample.T)
        assert sizes(two_sample) == [2] * 5  # counting Z's 8 floats too would give groups of 1
        monkeypatch.setattr(harness, "_GROUP_BYTES", 8 * 6 * one_sample.T)
        monkeypatch.setattr(harness, "_SAMPLE_BLOCK", one_sample.T // 2)
        assert sizes(one_sample) == [2] * 5  # a group holds one block, not the whole stream

    @pytest.mark.parametrize("algorithm", list(est.REGRESSORS))
    def test_run_trial_equals_its_lockstep_trial(self, algorithm, monkeypatch):
        # trials=7 runs as one group, and as groups 3+2+2 under a budget of
        # three blocks; each trial alone must give the same bytes.
        spec = _lockstep_spec(algorithm)
        alone = [harness.run_trial(spec, i) for i in range(spec.trials)]
        for groups, budget in ((1, harness._GROUP_BYTES), (3, 3 * _block_bytes(spec))):
            monkeypatch.setattr(harness, "_GROUP_BYTES", budget)
            assert len(harness.trial_groups(spec)) == groups
            series = harness.run_experiment(spec)
            for i, res in enumerate(alone):
                assert res.metrics.keys() == series.metrics.keys()
                for m, v in series.metrics.items():
                    assert res.metrics[m].tobytes() == v[i:i + 1].tobytes()
                assert res.stream_digests == [series.stream_digests[i]]
            assert len(set(series.stream_digests)) == spec.trials

    @pytest.mark.parametrize("algorithm", list(est.REGRESSORS))
    def test_blocks_and_groups_reuse_the_buffer(self, algorithm, monkeypatch):
        # T spans 2.5 blocks and the 7 trials run as groups of 3, 2 and 2: each
        # group draws two full blocks and a short last one into the buffer the
        # group before it used. Each trial is its run alone, and its 1-d
        # kernel's on its blocks drawn into new arrays, and its stream digest
        # hashes the generator's state words after each of those blocks.
        monkeypatch.setattr(harness, "_SAMPLE_BLOCK", 40)
        spec = _lockstep_spec(algorithm, T=100)
        monkeypatch.setattr(harness, "_GROUP_BYTES", 3 * _block_bytes(spec))
        assert [len(g) for g in harness.trial_groups(spec)] == [3, 2, 2]
        series = harness.run_experiment(spec)
        cfg, two_sample = spec.dgp, est.REGRESSORS[algorithm]._reads_x_prime
        sample = dgp.sample_two_block if two_sample else dgp.sample_one_block
        mask = (1 << 64) - 1
        for i in range(spec.trials):
            alone = harness.run_trial(spec, i)
            assert alone.metrics.keys() == series.metrics.keys()
            for m, v in series.metrics.items():
                assert alone.metrics[m].tobytes() == v[i:i + 1].tobytes()
            for m, values in _kernel_run(spec, i).items():
                assert series.metrics[m][i].tobytes() == np.array(values).tobytes()
            rng = np.random.Generator(np.random.PCG64(harness.mix_seed(spec.base_seed, i)))
            digest = hashlib.sha256(repr((cfg.d_x, cfg.d_z, cfg.family, two_sample, spec.T, 40)).encode()
                                    + cfg.theta_star.tobytes() + cfg.gamma_star.tobytes() + cfg.z_cov.tobytes())
            if spec.test_n:
                dgp.sample_one_block(rng, cfg, spec.test_n)
            for n in (40, 40, 20):
                sample(rng, cfg, n)
                pcg = rng.bit_generator.state["state"]
                digest.update(np.array([pcg["state"] >> 64, pcg["state"] & mask, pcg["inc"] >> 64,
                                        pcg["inc"] & mask], dtype=np.uint64).tobytes())
            assert alone.stream_digests == [series.stream_digests[i]] == [digest.hexdigest()]

    def test_each_lane_binds_its_loop_once_per_group(self, monkeypatch):
        # T spans 2.5 blocks, the 7 trials run as groups of 3, 2 and 2, and the
        # three one-sample algorithms step in two lanes (the two-timescale pair
        # and streaming 2SLS). A lane binds its loop to the pass's buffer once
        # per group, when it is made, not once per block; each trial is still
        # its run alone.
        monkeypatch.setattr(harness, "_SAMPLE_BLOCK", 40)
        cfg = dgp.endogenous_linear_config(2, 3, rho=1.0, sigma_eps=0.5)
        specs = [_lockstep_spec(a, dgp=cfg, T=100) for a in ("two_stage_sgd", "direct_sgd", "online_2sls")]
        monkeypatch.setattr(harness, "_GROUP_BYTES", 3 * _block_bytes(specs[0]))
        assert [len(g) for g in harness.trial_groups(specs[0])] == [3, 2, 2]
        binds = []
        init = est.Window.__init__

        def counting_init(window, *args, **kwargs):
            binds.append(args[0])
            init(window, *args, **kwargs)

        monkeypatch.setattr(est.Window, "__init__", counting_init)
        together = harness.run_experiments(specs)
        assert sorted(binds) == sorted(["two_timescale_window", "online_2sls_window"] * 3)
        for spec, series in zip(specs, together):
            for i in range(spec.trials):
                alone = harness.run_trial(spec, i)
                assert alone.metrics.keys() == series.metrics.keys()
                for m, v in series.metrics.items():
                    assert alone.metrics[m].tobytes() == v[i:i + 1].tobytes()
                assert alone.stream_digests == [series.stream_digests[i]]

    def test_held_out_set_drawn_from_arrays(self):
        # The held-out set comes first in the trial's stream, as dgp.test_set draws it.
        spec = _lockstep_spec("two_stage_sgd", trials=1)
        rng = np.random.Generator(np.random.PCG64(harness.mix_seed(spec.base_seed, 0)))
        tx, ty = metrics.stack_test_set(dgp.test_set(rng, spec.dgp, spec.test_n))
        res = harness.run_trial(spec, 0)
        assert res.metrics["oracle_mse"][0, 0] == metrics.test_mse_arrays(spec.dgp.theta_star, tx, ty)

    def test_at_most_one_block_per_trial_of_a_group(self, monkeypatch):
        # Every training draw of a pass fills views of one buffer: a block of
        # each trial of the largest group, and for the two-sample oracle one Z
        # that its trials share; the trials of a group never share a kept field.
        draws = []

        def counting(sample):
            def counting_block(rng, cfg, n, out=None):
                if n > 30:  # training blocks, not the held-out set
                    draws.append(out)
                return sample(rng, cfg, n, out=out)
            return counting_block

        monkeypatch.setattr(harness, "_SAMPLE_BLOCK", 100)
        monkeypatch.setattr(harness, "sample_one_block", counting(dgp.sample_one_block))
        monkeypatch.setattr(harness, "sample_two_block", counting(dgp.sample_two_block))
        default = harness._GROUP_BYTES
        for algorithm in ("direct_sgd", "two_sample_sgd"):
            spec = _lockstep_spec(algorithm, trials=10)
            two_sample = est.REGRESSORS[algorithm]._reads_x_prime
            z_bytes = 8 * spec.dgp.d_z * harness._SAMPLE_BLOCK if two_sample else 0
            for budget, expected in ((default, [10]), (3 * _block_bytes(spec), [3, 3, 2, 2])):
                monkeypatch.setattr(harness, "_GROUP_BYTES", budget)
                sizes = [len(g) for g in harness.trial_groups(spec)]
                assert sizes == expected
                draws.clear()
                series = harness.run_experiment(spec)
                assert series.metrics["dist_sq"].shape[0] == 10
                blocks = -(-spec.T // 100)
                assert len(draws) == 10 * blocks
                buffer = draws[0][0].base
                assert all(a.base is buffer for out in draws for a in out)
                assert buffer.nbytes == max(sizes) * _block_bytes(spec) + z_bytes
                starts = np.cumsum([0] + [size for size in sizes for _ in range(blocks)])
                for a, b in zip(starts, starts[1:]):  # one block of each trial of a group
                    kept = [field for out in draws[a:b] for field in out[-3:]]
                    assert not any(np.shares_memory(f, g) for j, f in enumerate(kept) for g in kept[:j])
                if two_sample:
                    assert len({out[0].ctypes.data for out in draws}) == 1

    @pytest.mark.parametrize("algorithm", ["online_2sls", "two_sample_sgd"])
    def test_memory_does_not_grow_with_T(self, algorithm, monkeypatch):
        # Two groups of four trials. The peak grows by less than half a block
        # from 4 to 8 blocks per trial, where holding one more block would add
        # a whole one. It stays within the group's blocks, which the loops read
        # in place, one block's steps, and one sampler call that returns new
        # arrays: the pass's buffer holds the blocks, and a draw into it
        # allocates less than such a call. A first draw and a first run pay
        # one-time costs (numpy.random's lazy import, about 900 KB), so both
        # come before the tracing starts.
        monkeypatch.setattr(harness, "_SAMPLE_BLOCK", 512)
        runs = [_lockstep_spec(algorithm, trials=8, test_n=0, T=blocks * 512) for blocks in (4, 8)]
        monkeypatch.setattr(harness, "_GROUP_BYTES", 4 * _block_bytes(runs[0]))
        sample = dgp.sample_two_block if est.REGRESSORS[algorithm]._reads_x_prime else dgp.sample_one_block
        sample(np.random.Generator(np.random.PCG64(0)), runs[0].dgp, 512)
        harness.run_experiment(_lockstep_spec(algorithm, trials=1, test_n=0, T=8))
        tracemalloc.start()
        try:
            sample(np.random.Generator(np.random.PCG64(0)), runs[0].dgp, 512)
            sampler_peak = tracemalloc.get_traced_memory()[1]
            peaks = []
            for run in runs:
                assert [len(g) for g in harness.trial_groups(run)] == [4, 4]
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                harness.run_experiment(run)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert peaks[1] < peaks[0] + _block_bytes(runs[0]) / 2
        assert max(peaks) <= harness._GROUP_BYTES + 8 * 512 + sampler_peak


def _kernel_run(spec, i) -> dict[str, list[float]]:
    """Trial i's ``dist_sq`` and, with a held-out set, ``test_mse`` at each checkpoint, from its 1-d kernel
    stepped row by row over its blocks and :mod:`ivstream.metrics`.

    The blocks are drawn as the harness draws them, and the steps are one
    ``steps`` array over the whole run.
    """
    rng = np.random.Generator(np.random.PCG64(harness.mix_seed(spec.base_seed, i)))
    if spec.test_n > 0:
        _, test_x, test_y = dgp.sample_one_block(rng, spec.dgp, spec.test_n)
    two_sample = est.REGRESSORS[spec.algorithm]._reads_x_prime
    alphas, betas = (None if s is None else steps(s, spec.T) for s in (spec.alpha, spec.beta))
    state = est.initial_state(spec.dgp.d_x, spec.dgp.d_z, spec.theta0, spec.gamma0,
                              spec.lam if spec.algorithm == "online_2sls" else None)
    got = {m: [] for m in (("dist_sq", "test_mse") if spec.test_n > 0 else ("dist_sq",))}
    t = 0
    while t < spec.T:
        block = (dgp.sample_two_block if two_sample else dgp.sample_one_block)(
            rng, spec.dgp, min(harness._SAMPLE_BLOCK, spec.T - t))
        for r in range(len(block[-1])):
            if spec.algorithm == "two_sample_sgd":
                z, x, x_prime, y = (a[r] for a in block)
                state = (est.two_sample_update(state[0], x, x_prime, y, alphas[t]),)
            elif spec.algorithm == "online_2sls":
                state = est.online_2sls_update(*state, *(a[r] for a in block))
            else:
                update = est.direct_residual_update if spec.algorithm == "direct_sgd" else est.two_stage_update
                state = update(*state, *(a[r] for a in block), alphas[t], betas[t])
            t += 1
            if t in spec.checkpoints:
                got["dist_sq"].append(metrics.dist_to_opt(state[0], spec.dgp.theta_star))
                if spec.test_n > 0:
                    got["test_mse"].append(metrics.test_mse_arrays(state[0], test_x, test_y))
    return got


class TestHarnessPath:
    @pytest.mark.parametrize("algorithm", list(est.REGRESSORS))
    @pytest.mark.parametrize("b", [1, 3])
    def test_each_trial_is_its_1d_kernel_run(self, algorithm, b, monkeypatch):
        # Blocks of 97 rows: windows start inside blocks, and checkpoints fall
        # inside them, so each window reads its rows at an offset into the block.
        monkeypatch.setattr(harness, "_SAMPLE_BLOCK", 97)
        spec = _lockstep_spec(algorithm, trials=b)
        assert [len(g) for g in harness.trial_groups(spec)] == [b]
        assert any(c % 97 for c in spec.checkpoints) and spec.T > 5 * 97
        got = harness.run_experiment(spec).metrics
        assert got.keys() == ({"dist_sq"} if spec.test_n == 0 else set(harness.METRICS))
        for i in range(b):
            want = _kernel_run(spec, i)
            for m, values in want.items():
                assert np.isfinite(values).all()
                assert got[m][i].tobytes() == np.array(values).tobytes()


class TestCheckpointMetrics:
    @pytest.mark.parametrize("d_x", [1, 8])
    @pytest.mark.parametrize("test_n", [0, 1, 400])
    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("b", [1, 3])
    def test_equals_the_numpy_arithmetic(self, d_x, test_n, s, b):
        # checkpoint_metrics against the same metrics in numpy (vecdot and
        # matvec), bit for bit, on thetas with inf, NaN, -0 and subnormal entries
        # beside ordinary ones; it writes only its column of each row block and
        # counts the thetas with a finite dist_sq in some trial.
        rng = np.random.default_rng([d_x, test_n, s, b])
        theta_star = rng.standard_normal(d_x)
        theta_star[0] = -0.0
        theta = rng.standard_normal((s, b, d_x))
        edges = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -2.5e-310, 1e200]
        for j, i in np.ndindex(s, b):
            if (j, i) != (0, 0):  # theta 0 of trial 0 stays ordinary
                theta[j, i, (j + i) % d_x] = edges[(3 * j + i) % len(edges)]
        if (s, b) == (2, 3):
            theta[1, :, 0] = np.nan  # theta 1 has a finite dist_sq in no trial
        test_x = [rng.standard_normal((test_n, d_x)) for _ in range(b)] if test_n else []
        test_y = [rng.standard_normal(test_n) for _ in range(b)] if test_n else []
        names = ("dist_sq", "test_mse") if test_n else ("dist_sq",)
        rows = [{m: np.full((b, 5), -7.0) for m in names} for _ in range(s)]
        finite = harness._recorder(theta, (theta_star, test_x, test_y), rows)(2)
        with np.errstate(all="ignore"):
            d = theta - theta_star
            dist = np.vecdot(d, d)
            mse = [np.vecdot(r, r) / test_n for r in (np.stack(test_y) - np.matvec(np.stack(test_x), theta[j])
                                                      for j in range(s))] if test_n else []
        # theta 0 is finite in trial 0; theta 1 is in no trial when (s, b) is (2, 3)
        assert finite == np.isfinite(dist).any(axis=1).sum() == (2 if (s, b) == (2, 1) else 1)
        for j in range(s):
            for m, want in zip(names, (dist[j], mse[j] if test_n else None)):
                assert rows[j][m][:, 2].tobytes() == want.tobytes()
                assert (np.delete(rows[j][m], 2, axis=1) == -7.0).all()

    def test_strided_theta_star_is_read_by_value(self):
        # checkpoint_metrics reads theta_star in place; a DgpConfig keeps a
        # C-contiguous copy of a strided one, so the run is the same.
        theta_star = (np.arange(4.0) + 0.5)[::2]
        assert not theta_star.flags.c_contiguous
        runs = [harness.run_experiment(_lockstep_spec("two_stage_sgd", dgp=dgp.endogenous_linear_config(
                    2, 3, rho=1.0, sigma_eps=0.5, theta_star=t))) for t in (theta_star, theta_star.copy())]
        assert runs[0].spec.dgp.theta_star.flags.c_contiguous
        assert runs[0].metrics.keys() == runs[1].metrics.keys() == set(harness.METRICS)
        for m, v in runs[0].metrics.items():
            assert v.tobytes() == runs[1].metrics[m].tobytes()


FIG2_CELL = "dx8_dz16_rho4_sig1"


def _recording_lanes(monkeypatch) -> list[tuple[bool, ...]]:
    """Record the raw-residual flags of each two-timescale window, one tuple per window."""
    calls, step = [], est.Window.step

    def recording(window, t0, rows, alphas=0, betas=0):
        if window.direct is not None:
            calls.append(window.direct)
        return step(window, t0, rows, alphas, betas)

    monkeypatch.setattr(est.Window, "step", recording)
    return calls


class TestSharedPass:
    def test_fig2_cell_equals_each_spec_alone(self, monkeypatch):
        # Two blocks per trial and two groups (3+2), so the pass redraws blocks and restarts.
        monkeypatch.setattr(harness, "_SAMPLE_BLOCK", 700)
        (specs,) = presets.build_preset("fig2", cell=FIG2_CELL, trials=5, T=1200).values()
        assert [s.algorithm for s in specs] == ["two_stage_sgd", "direct_sgd", "online_2sls"]
        monkeypatch.setattr(harness, "_GROUP_BYTES", 3 * _block_bytes(specs[0]))
        assert [len(g) for g in harness.trial_groups(specs[0])] == [3, 2]
        lanes = _recording_lanes(monkeypatch)
        together = harness.run_experiments(specs)
        # The pair steps as one lane (two thetas on one gamma) in every call.
        assert lanes and set(lanes) == {(False, True)}
        for spec, series in zip(specs, together):
            lanes.clear()
            alone = harness.run_experiment(spec)
            assert set(lanes) == ({(spec.algorithm == "direct_sgd",)} if spec.algorithm != "online_2sls" else set())
            assert series.spec is spec
            assert series.metrics.keys() == alone.metrics.keys() == set(harness.METRICS)
            for m, v in series.metrics.items():
                assert v.tobytes() == alone.metrics[m].tobytes()
            assert series.stream_digests == alone.stream_digests

    def test_lanes_need_equal_beta_and_gamma0(self, monkeypatch):
        # Two-timescale specs of one pass share a lane only with equal alpha,
        # beta and gamma0 (theta0 may differ); each still equals its run alone.
        cfg = dgp.endogenous_linear_config(2, 3, rho=1.0, sigma_eps=0.5)
        gamma0 = np.full((3, 2), 0.5)
        specs = [_lockstep_spec("two_stage_sgd", dgp=cfg),
                 _lockstep_spec("direct_sgd", dgp=cfg),
                 _lockstep_spec("direct_sgd", dgp=cfg, beta=Polynomial(0.4, 0.95)),
                 _lockstep_spec("two_stage_sgd", dgp=cfg, gamma0=gamma0),
                 _lockstep_spec("direct_sgd", dgp=cfg, gamma0=gamma0.copy(), theta0=np.ones(2))]
        alone = [harness.run_experiment(s) for s in specs]
        lanes = _recording_lanes(monkeypatch)
        together = harness.run_experiments(specs)
        # Lanes {0, 1}, {2} and {3, 4}, each called once per window.
        windows = lanes.count((True,))
        assert windows > 0 and lanes.count((False, True)) == 2 * windows and len(lanes) == 3 * windows
        for series, ref in zip(together, alone):
            assert series.metrics.keys() == ref.metrics.keys()
            for m, v in series.metrics.items():
                assert v.tobytes() == ref.metrics[m].tobytes()

    def test_each_block_drawn_once_per_trial(self, monkeypatch):
        draws = []

        def counting_block(rng, cfg, n, out=None):
            draws.append(n)
            return dgp.sample_one_block(rng, cfg, n, out=out)

        monkeypatch.setattr(harness, "_SAMPLE_BLOCK", 500)
        monkeypatch.setattr(harness, "sample_one_block", counting_block)
        (specs,) = presets.build_preset("fig2", cell=FIG2_CELL, trials=4, T=1200).values()
        harness.run_experiments(specs)
        # Per trial: the held-out set, then blocks of 500, 500 and 200 rows, for all three specs.
        assert sorted(draws) == sorted([specs[0].test_n, 500, 500, 200] * 4)

    def test_two_oracles_run_as_two_passes(self, monkeypatch):
        passes = []
        run_pass = harness._run_pass

        def recording(specs, groups):
            passes.append([s.algorithm for s in specs])
            return run_pass(specs, groups)

        config = {
            "dgp": {"family": "shared_confounder", "d_x": 2, "d_z": 3, "c": 0.5},
            "algorithms": ["two_stage_sgd", "two_sample_sgd", "direct_sgd"],
            "schedule": {"alpha": {"kind": "polynomial", "coeff": 0.2, "exponent": 0.9},
                         "beta": {"kind": "polynomial", "coeff": 0.3, "exponent": 0.8}},
            "T": 400, "trials": 3, "seed": 5,
        }
        specs = presets.specs_from_config(config)
        alone = [harness.run_experiment(s) for s in specs]
        monkeypatch.setattr(harness, "_run_pass", recording)
        results = harness.run_experiments(specs)
        assert passes == [["two_stage_sgd", "direct_sgd"], ["two_sample_sgd"]]
        assert [r.spec for r in results] == specs  # in spec order, not pass order
        for r, a in zip(results, alone):
            assert r.metrics["dist_sq"].tobytes() == a.metrics["dist_sq"].tobytes()
            assert r.stream_digests == a.stream_digests


class TestStreamDigest:
    """A trial's stream digest hashes the DGP and the blocks' shapes once, then
    the PCG64 state and increment after each block."""

    def test_is_the_dgp_then_the_state_after_each_block(self, monkeypatch):
        monkeypatch.setattr(harness, "_SAMPLE_BLOCK", 200)
        spec = _tiny_spec(T=500, test_n=20)
        cfg, mask = spec.dgp, (1 << 64) - 1
        rng = np.random.Generator(np.random.PCG64(harness.mix_seed(spec.base_seed, 1)))
        h = hashlib.sha256(repr((cfg.d_x, cfg.d_z, cfg.family, False, spec.T, 200)).encode()
                           + cfg.theta_star.tobytes() + cfg.gamma_star.tobytes() + cfg.z_cov.tobytes())
        dgp.sample_one_block(rng, cfg, spec.test_n)  # the held-out set moves the state, not hashed on its own
        for n in (200, 200, 100):
            dgp.sample_one_block(rng, cfg, n)
            pcg = rng.bit_generator.state["state"]
            words = [pcg["state"] >> 64, pcg["state"] & mask, pcg["inc"] >> 64, pcg["inc"] & mask]
            h.update(np.array(words, dtype=np.uint64).tobytes())
        assert harness.run_trial(spec, 1).stream_digests == [h.hexdigest()]

    @pytest.mark.parametrize("spec, digests, combined", [
        (dict(dgp=dgp.endogenous_linear_config(2, 3, rho=1.0, sigma_eps=0.5), test_n=20),
         ["1af515bd9dbc7a97ed79723e259348bfca9b75ca909fa307cdcc681c58c14964",
          "1018c81331f32a322d109eb787163e7a9deef7aff4a8ec97d2f13117c5c0720a"],
         "2024ac33f5b5c7c075f37713ca3eb2a8c0425aa6f52a02389b102a6a925a40f5"),
        (dict(dgp=dgp.shared_confounder_config(2, 3, c=0.5, phi="square"), algorithm="two_sample_sgd",
              alpha=Constant(0.01), beta=None),
         ["c0ae49019fef711b65e9a32fc6a939a24f663bd62fdddd38de416191db2198aa",
          "9711fb03b6c9b7ef75f1a5eee172d9e509d0f0a854a7f8133c5c8af35d61cac1"],
         "c09893cad9d7df0359236948e21627f0085eaa575b5f79b889cf62a6df9a7e38"),
    ], ids=["one_sample", "two_sample"])
    def test_pinned_digest(self, spec, digests, combined):
        # The words drawn do not depend on numpy's SIMD path or the BLAS kernel.
        series = harness.run_experiment(_tiny_spec(trials=2, **spec))
        assert series.stream_digests == digests
        assert series.combined_stream_digest() == combined

    def test_changes_with_the_base_seed(self):
        a = harness.run_experiment(_tiny_spec(base_seed=7)).stream_digests
        b = harness.run_experiment(_tiny_spec(base_seed=8)).stream_digests
        assert not set(a) & set(b)

    def test_changes_with_one_more_normal(self, monkeypatch):
        plain = harness.run_experiment(_tiny_spec()).stream_digests
        held_out = harness.run_experiment(_tiny_spec(test_n=1)).stream_digests
        assert not set(plain) & set(held_out)

        def one_more(rng, cfg, n, out=None):
            rng.standard_normal()  # one normal before the block: the same shapes, one more word drawn
            return dgp.sample_one_block(rng, cfg, n, out=out)

        monkeypatch.setattr(harness, "sample_one_block", one_more)
        assert not set(plain) & set(harness.run_experiment(_tiny_spec()).stream_digests)

    @pytest.mark.parametrize("other", [
        dgp.endogenous_linear_config(1, 1, rho=1.0, sigma_eps=0.5, theta_star=[2.0]),
        dgp.endogenous_linear_config(1, 1, rho=2.0, sigma_eps=0.5),
        dgp.endogenous_linear_config(1, 1, rho=1.0, sigma_eps=0.5, z_cov=[[2.0]]),
        dgp.shared_confounder_config(1, 1, c=0.5),
    ], ids=["theta_star", "rho", "z_cov", "family"])
    def test_changes_with_the_dgp(self, other):
        # Each DGP draws as many normals of the same shapes: only its parameters tell them apart.
        a = harness.run_experiment(_tiny_spec()).stream_digests
        b = harness.run_experiment(_tiny_spec(dgp=other)).stream_digests
        assert not set(a) & set(b)

    def test_equal_dgps_give_equal_digests(self):
        # A family parameter given as an integer is kept as a float, so the digest is the same.
        a = harness.run_experiment(_tiny_spec(dgp=dgp.endogenous_linear_config(1, 1, rho=1, sigma_eps=0.5)))
        b = harness.run_experiment(_tiny_spec(dgp=dgp.endogenous_linear_config(1, 1, rho=1.0, sigma_eps=0.5)))
        assert a.stream_digests == b.stream_digests

    def test_equal_across_a_pass_and_distinct_across_trials(self):
        (specs,) = presets.build_preset("fig2", cell=FIG2_CELL, trials=5, T=300).values()
        series = harness.run_experiments(specs)
        assert len({tuple(s.stream_digests) for s in series}) == 1
        assert len(set(series[0].stream_digests)) == 5

    def test_run_trial_is_its_row(self, monkeypatch):
        # Several blocks per trial and groups of 3+2; each trial alone gives its row's digest.
        monkeypatch.setattr(harness, "_SAMPLE_BLOCK", 97)
        spec = _tiny_spec(trials=5, test_n=10)
        monkeypatch.setattr(harness, "_GROUP_BYTES", 3 * _block_bytes(spec))
        assert [len(g) for g in harness.trial_groups(spec)] == [3, 2]
        series = harness.run_experiment(spec)
        assert [harness.run_trial(spec, i).stream_digests[0] for i in range(5)] == series.stream_digests


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

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_values_error(self, bad):
        # A diverged mean in the tail gives no slope rather than nan.
        t = np.logspace(0, 2, 10)
        y = 1.0 / t
        y[-2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            harness.fit_slope(t, y, 0.5)

    def test_window_too_small(self):
        with pytest.raises(ValueError, match="checkpoints"):
            harness.fit_slope(np.array([1.0, 2, 3, 4]), np.ones(4), 1.0)

    def test_bad_tail_fraction(self):
        t = np.logspace(0, 2, 10)
        with pytest.raises(ValueError):
            harness.fit_slope(t, 1 / t, 0.0)

    @pytest.mark.parametrize("iterations", [
        [0, 1, 2, 3, 4, 5],  # log10(0) is -inf
        [1] * 6,  # no spread: the fit is singular
        [-1, 1, 2, 3, 4, 5],
        [1, 2, 3, 5, 4, 6],
        [1, 2, 3, 3, 4, 5],
        [1, 2, 3, 4, 5, np.inf],
        [1, 2, np.nan, 4, 5, 6],
    ])
    def test_bad_iterations_error(self, iterations, capfd):
        # Iterations must be what checkpoints are; LAPACK is never reached with others.
        with pytest.raises(ValueError, match="iterations must be finite, positive and strictly increasing"):
            harness.fit_slope(iterations, [1, 2, 3, 4, 5, 6], 1.0)
        assert capfd.readouterr().err == ""


class TestSpecValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="algorithm"):
            _tiny_spec(algorithm="sgd")

    def test_missing_schedules(self):
        with pytest.raises(ValueError, match="beta"):
            _tiny_spec(beta=None)
        with pytest.raises(ValueError, match="alpha"):
            _tiny_spec(algorithm="two_sample_sgd", alpha=None, beta=None)

    @pytest.mark.parametrize("algorithm,which", [("online_2sls", "alpha"), ("online_2sls", "beta"),
                                                 ("two_sample_sgd", "beta")])
    def test_unread_schedule_is_rejected(self, algorithm, which):
        # A schedule the algorithm does not take would be kept, checked and
        # stepped for nothing; specs_from_config rejects one for the same reason.
        with pytest.raises(ValueError, match=f"^{which} is given, but {algorithm} does not read it$"):
            _tiny_spec(algorithm=algorithm, **{"alpha": None if algorithm == "online_2sls" else Constant(0.1),
                                               "beta": None, which: Constant(0.1)})

    @pytest.mark.parametrize("algorithm,calls", [("online_2sls", 0), ("two_stage_sgd", 4)])
    def test_steps_are_computed_only_for_the_schedules_read(self, algorithm, calls, monkeypatch):
        # 20 000 rows are two sample blocks; a 2SLS run used to compute an
        # unread alpha and beta for each of them.
        seen = []

        def counted(*args):
            seen.append(args)
            return steps(*args)

        monkeypatch.setattr(harness, "steps", counted)
        unread = {"alpha": None, "beta": None} if algorithm == "online_2sls" else {}
        harness.run_experiment(_tiny_spec(algorithm=algorithm, T=20_000, trials=1, checkpoints=(20_000,), **unread))
        assert len(seen) == calls

    @pytest.mark.parametrize("experiment_id", ["a,b", 'a"b', "a\rb", "a,b\nc", {"x": 1}, 5])
    def test_experiment_id_must_not_break_a_csv_row(self, experiment_id):
        with pytest.raises(ValueError, match="experiment_id"):
            _tiny_spec(experiment_id=experiment_id)

    def test_checkpoints_must_be_in_range_and_increasing(self):
        with pytest.raises(ValueError):
            _tiny_spec(checkpoints=(1, 501))
        with pytest.raises(ValueError):
            _tiny_spec(checkpoints=(10, 10))

    @pytest.mark.parametrize("field,value", [("T", 100.5), ("T", 100.0), ("T", "100"), ("T", True),
                                             ("trials", 2.5), ("trials", np.float64(2.0)), ("trials", None),
                                             ("test_n", 5.5), ("checkpoints", (1.9, 10)),
                                             ("checkpoints", (True, 10)), ("checkpoints", ("3", 10))])
    def test_counts_must_be_integers(self, field, value):
        # A fractional T or trials used to build a spec that ran a different
        # number of trials, or died in the run with TypeError; a checkpoint
        # of 1.9, True or "3" ran as 1, 1 or 3.
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            _tiny_spec(**{field: value})

    @pytest.mark.parametrize("field,value,message", [
        ("checkpoints", 5, "checkpoints must be a sequence of integers, got 5"),
        ("lam", None, "lam must be a number, got None"),
        ("lam", "x", "lam must be a number, got 'x'"),
    ])
    def test_a_bad_number_is_a_value_error_naming_its_field(self, field, value, message):
        # checkpoints=5 and lam=None raised TypeError, lam="x" a ValueError that named no field.
        with pytest.raises(ValueError, match=f"^{message}$"):
            _tiny_spec(**{field: value})

    @pytest.mark.parametrize("checkpoints", [np.array([5, 10]), range(5, 11, 5), iter((5, 10))])
    def test_checkpoints_may_be_any_iterable_of_integers(self, checkpoints):
        assert _tiny_spec(checkpoints=checkpoints).checkpoints == (5, 10)

    def test_numpy_integer_counts_are_integers(self):
        spec = _tiny_spec(T=np.int64(50), trials=np.int32(2), test_n=np.int64(0))
        assert harness.run_experiment(spec).metrics["dist_sq"].shape == (2, len(spec.checkpoints))
