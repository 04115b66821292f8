import ctypes
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ivstream import _native, cli, dgp, estimators, harness, oracle, presets, schedule


def _write_config(path: Path, config: dict) -> str:
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


MINIMAL = {
    "dgp": {"family": "endogenous_linear"},
    "algorithm": "two_stage_sgd",
    "T": 10,
    "trials": 1,
}


class TestRun:
    def test_minimal_config(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", MINIMAL)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "series.csv").read_text().splitlines()
        assert lines[0] == cli.CSV_HEADER
        # 1 trial x 10 default checkpoints x 1 metric
        assert len(lines) == 1 + 10
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rng_algorithm"] == "pcg64"
        assert manifest["outputs"] == ["series.csv"]

    def test_csv_schema(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", dict(MINIMAL, test_n=8, trials=2))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        raw = (out / "series.csv").read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")
        rows = raw.decode("utf-8").splitlines()[1:]
        parsed = [r.split(",") for r in rows]
        keys = [(p[1], int(p[2]), int(p[3]), p[4]) for p in parsed]
        assert keys == sorted(keys)
        assert {p[4] for p in parsed} == {"dist_sq", "test_mse", "oracle_mse"}
        for p in parsed:
            v = float(p[5])  # shortest round-trip decimal
            assert repr(v) == p[5]

    def test_preset_cell_run(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["run", "--preset", "fig1", "--cell", "dx4_dz8_c0.1_phi_id",
                       "--out", str(out), "--trials", "1", "--iters", "200"])
        assert rc == 0
        assert (out / "series.csv").exists() and (out / "manifest.json").exists()

    def test_preset_fig3(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main(["run", "--preset", "fig3", "--out", str(out),
                       "--trials", "2", "--iters", "500"])
        assert rc == 0
        rows = (out / "series.csv").read_text().splitlines()[1:]
        algs = {r.split(",")[1] for r in rows}
        assert algs == {"two_stage_sgd", "direct_sgd"}
        assert (out / "series_two_stage_sgd.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(set(manifest["stream_digests"].values())) == 1

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
    def test_files_get_the_mode_open_gives(self, umask, tmp_path):
        # The rename keeps the temporary file's mode, which must not be owner-only whatever the umask.
        pair = {k: v for k, v in MINIMAL.items() if k != "algorithm"}
        cfg = _write_config(tmp_path / "cfg.json", dict(pair, algorithms=["two_stage_sgd", "direct_sgd"]))
        out = tmp_path / "out"
        old = os.umask(umask)
        try:
            assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        finally:
            os.umask(old)
        names = sorted(p.name for p in out.iterdir())
        assert names == ["manifest.json", "series.csv", "series_direct_sgd.csv", "series_two_stage_sgd.csv"]
        for name in names:
            assert (out / name).stat().st_mode & 0o777 == 0o666 & ~umask, name

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", dict(MINIMAL, seed=5))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["run", "--config", cfg, "--out", str(out1)])
        cli.main(["run", "--config", cfg, "--out", str(out2), "--seed", "6"])
        assert (out1 / "series.csv").read_bytes() != (out2 / "series.csv").read_bytes()


class TestCompare:
    """Several algorithms in one config, run through ``run --config``."""

    def test_paired_streams(self, tmp_path):
        config = {
            "dgp": {"family": "endogenous_linear", "d_x": 1, "d_z": 1, "rho": 1.0, "sigma_eps": 0.5},
            "algorithms": ["two_stage_sgd", "direct_sgd", "online_2sls"],
            "T": 300,
            "trials": 2,
            "seed": 11,
        }
        cfg = _write_config(tmp_path / "cfg.json", config)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        for alg in config["algorithms"]:
            assert (out / f"series_{alg}.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        digests = manifest["stream_digests"]
        assert len(digests) == 3
        # identical per-trial sample streams across algorithms
        assert len(set(digests.values())) == 1

    def test_two_oracles_write_one_digest_each(self, tmp_path):
        # two_sample_sgd reads two-sample streams, so it runs in a pass of its
        # own beside the one-sample algorithms: the manifest holds one digest
        # per oracle, and each algorithm's CSV is its run alone.
        config = {
            "dgp": {"family": "shared_confounder", "d_x": 2, "d_z": 3, "c": 0.5},
            "algorithms": ["two_stage_sgd", "two_sample_sgd", "direct_sgd"],
            "schedule": {"alpha": {"kind": "polynomial", "coeff": 0.2, "exponent": 0.9},
                         "beta": {"kind": "polynomial", "coeff": 0.3, "exponent": 0.8}},
            "T": 300, "trials": 2, "seed": 5,
        }
        specs = presets.specs_from_config(config)
        cli.run_specs_to_dir(specs, tmp_path / "all")
        digests = json.loads((tmp_path / "all" / "manifest.json").read_text())["stream_digests"]
        assert digests["two_stage_sgd"] == digests["direct_sgd"] != digests["two_sample_sgd"]
        for spec in specs:
            alone = tmp_path / spec.algorithm
            cli.run_specs_to_dir([spec], alone)
            assert json.loads((alone / "manifest.json").read_text())["stream_digests"] == {
                spec.algorithm: digests[spec.algorithm]}
            assert (tmp_path / "all" / f"series_{spec.algorithm}.csv").read_bytes() == \
                (alone / "series.csv").read_bytes()

    def test_series_csv_joins_the_per_algorithm_files_in_order(self, tmp_path):
        # series_rows returns each series in the harness's order and
        # series.csv joins the per-algorithm files without sorting rows.
        assert list(harness.METRICS) == sorted(harness.METRICS)
        config = dict(MINIMAL, algorithms=["two_stage_sgd", "online_2sls", "direct_sgd"], trials=3, test_n=5)
        del config["algorithm"]
        out = tmp_path / "out"
        assert cli.main(["run", "--config", _write_config(tmp_path / "cfg.json", config), "--out", str(out)]) == 0
        body = (out / "series.csv").read_text().splitlines()[1:]
        per_alg = [(out / f"series_{alg}.csv").read_text().splitlines()[1:] for alg in sorted(config["algorithms"])]
        assert body == [line for lines in per_alg for line in lines]
        keys = [(p[1], int(p[2]), int(p[3]), p[4]) for p in (line.split(",") for line in body)]
        assert keys == sorted(keys) and len(keys) == 3 * 3 * 10 * 3

    def test_repeated_algorithm_is_rejected_before_running(self, tmp_path):
        # Outputs are keyed by algorithm, so a second spec of one algorithm would
        # replace the first one's rows.
        specs = [harness.ExperimentSpec(dgp=dgp.endogenous_linear_config(1, 1, rho=1.0, sigma_eps=0.5),
                                        algorithm="two_stage_sgd", T=20, trials=2, base_seed=0, experiment_id=eid,
                                        alpha=schedule.Constant(0.01), beta=schedule.Constant(0.1))
                 for eid in ("a", "b")]
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="one spec per algorithm"):
            cli.run_specs_to_dir(specs, out)
        assert not out.exists()

    def test_single_algorithm_degenerates_to_run(self, tmp_path):
        config = dict(MINIMAL, algorithms=["two_stage_sgd"])
        del config["algorithm"]
        cfg = _write_config(tmp_path / "cfg.json", config)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["series.csv"]


def _count_theory_constants(monkeypatch) -> list:
    """Record the config path's theory-constant measurements."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return oracle.theory_constants(*args, **kwargs)

    monkeypatch.setattr(presets, "theory_constants", counting)
    return calls


class TestScheduleResolution:
    def test_theory_constants_measured_once_per_config(self, monkeypatch):
        config = {
            "dgp": {"family": "endogenous_linear", "d_x": 1, "d_z": 2},
            "algorithms": ["two_stage_sgd", "direct_sgd"],
            "schedule": {"alpha": {"kind": "two_timescale"},
                         "beta": {"kind": "two_timescale", "iota": 0.2}},
            "T": 100, "trials": 1,
        }
        calls = _count_theory_constants(monkeypatch)
        specs = cli.specs_from_config(config)
        assert len(calls) == 1
        # The schedules equal a fresh measurement per schedule, each with its own iota.
        cfg = specs[0].dgp
        consts = oracle.theory_constants(cfg)
        alpha, _ = schedule.two_timescale_schedules(consts, cfg.d_z, iota=0.1)
        _, beta = schedule.two_timescale_schedules(consts, cfg.d_z, iota=0.2)
        for spec in specs:
            assert spec.alpha == alpha and spec.beta == beta


class TestManifest:
    def test_round_trips_losslessly(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", dict(MINIMAL, test_n=4))
        out = tmp_path / "out"
        cli.main(["run", "--config", cfg, "--out", str(out)])
        text = (out / "manifest.json").read_text()
        manifest = json.loads(text)
        assert json.loads(json.dumps(manifest)) == manifest
        # the resolved spec snapshot rebuilds into the same snapshot
        snap = manifest["experiments"][0]
        rebuilt = cli.specs_from_config({k: v for k, v in snap.items() if k != "checkpoints"} | {"checkpoints": snap["checkpoints"]})
        assert cli.spec_to_dict(rebuilt[0]) == snap

    @pytest.mark.parametrize("algorithm,family,nulls", [("online_2sls", "endogenous_linear", ["alpha", "beta"]),
                                                       ("two_sample_sgd", "shared_confounder", ["beta"])])
    def test_null_schedules_round_trip(self, algorithm, family, nulls):
        # spec_to_dict writes null for a schedule the algorithm does not read,
        # and that snapshot still builds as a config.
        spec, = cli.specs_from_config(dict(MINIMAL, dgp={"family": family}, algorithm=algorithm))
        snap = cli.spec_to_dict(spec)
        assert [which for which in ("alpha", "beta") if snap["schedule"][which] is None] == nulls
        assert cli.spec_to_dict(cli.specs_from_config(snap)[0]) == snap

    def test_numpy_scalars_in_a_spec_write_the_manifest(self, tmp_path):
        # Schedule numbers and lam given as numpy float32 are kept as Python
        # floats, so the manifest holds them as JSON numbers.
        cfg = dgp.endogenous_linear_config(1, 1, rho=1.0, sigma_eps=0.5)
        specs = [harness.ExperimentSpec(dgp=cfg, algorithm="two_stage_sgd", T=20, trials=1, base_seed=3,
                                        alpha=schedule.Polynomial(np.float32(0.3), np.float32(0.95)),
                                        beta=schedule.Constant(np.float32(0.2))),
                 harness.ExperimentSpec(dgp=cfg, algorithm="online_2sls", T=20, trials=1, base_seed=3,
                                        lam=np.float32(0.1))]
        cli.run_specs_to_dir(specs, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        f32 = float(np.float32(0.3)), float(np.float32(0.95)), float(np.float32(0.2)), float(np.float32(0.1))
        first, second = (e["schedule"] for e in manifest["experiments"])
        assert (first["alpha"]["coeff"], first["alpha"]["exponent"], first["beta"]["value"], second["lambda"]) == f32

    @pytest.mark.parametrize("field", ["T", "trials", "base_seed", "test_n"])
    def test_numpy_integers_in_a_spec_write_the_manifest(self, tmp_path, field):
        # A numpy integer is kept as a Python int, so the cell writes the same
        # series.csv and, apart from its timestamps, the same manifest as the int.
        cfg = dgp.endogenous_linear_config(1, 1, rho=1.0, sigma_eps=0.5)
        given = {"T": 20, "trials": 2, "base_seed": 3, "test_n": 4}
        written = []
        for value in (given[field], np.int64(given[field])):
            spec = harness.ExperimentSpec(dgp=cfg, algorithm="two_stage_sgd", alpha=schedule.Polynomial(0.3, 0.95),
                                          beta=schedule.Constant(0.2), **given | {field: value})
            out = tmp_path / type(value).__name__
            cli.run_specs_to_dir([spec], out)
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["started_utc"], manifest["finished_utc"]
            written.append(((out / "series.csv").read_bytes(), manifest))
        assert written[0] == written[1]

    @pytest.mark.parametrize("seed", [2.5, True])
    def test_base_seed_must_be_an_integer(self, seed):
        cfg = dgp.endogenous_linear_config(1, 1, rho=1.0, sigma_eps=0.5)
        with pytest.raises(ValueError, match="base_seed must be an integer"):
            harness.ExperimentSpec(dgp=cfg, algorithm="online_2sls", T=20, trials=1, base_seed=seed)

    def test_csv_manifest_pairing(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", MINIMAL)
        out = tmp_path / "out"
        cli.main(["run", "--config", cfg, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        for name in manifest["outputs"]:
            assert (out / name).exists()


class TestConfigErrors:
    @pytest.mark.parametrize("mutate, match", [
        (lambda c: c.pop("T"), "missing"),
        (lambda c: c.update(unknown_key=1), "unknown"),
        (lambda c: c.update(algorithms=["direct_sgd"]), "exactly one"),
        (lambda c: c.update(algorithms=[c.pop("algorithm")] * 2), "repeats 'two_stage_sgd'"),
        (lambda c: c.update(checkpoints=[]), "checkpoints must be non-empty"),
        (lambda c: c["dgp"].update(family="nope"), "family"),
        (lambda c: c.update(algorithm="nope"), "algorithm"),
        (lambda c: c["dgp"].update(extra=2), "unknown"),
        (lambda c: c.update(schedule={"lambda": 0}), "lam"),
        (lambda c: c.update(algorithm="online_2sls", schedule={"lambda": -1.0}), "lam"),
        (lambda c: c.update(dgp={"family": "endogenous_linear", "d_x": 4, "d_z": 4},
                            init={"theta0": [0.0]}), "theta0"),
        (lambda c: c.update(init={"gamma0": [[0.0, 0.0]]}), "gamma0"),
        (lambda c: c["dgp"].update(d_x=None), "dgp.d_x must be a number"),
        (lambda c: c.update(T=None), "T must be a number"),
        (lambda c: c.update(T="abc"), "T must be a number"),
        (lambda c: c.update(T=100.7), "T must be an integer"),
        (lambda c: c.update(checkpoints=[1.5, 10]), "checkpoints must be an integer"),
        (lambda c: c.update(schedule={"alpha": {"kind": "constant", "value": None}}), "schedule.alpha.value"),
        (lambda c: c.update(schedule={"alpha": {"kind": "constant"}}), "schedule.alpha.value"),
        (lambda c: c["dgp"].update(theta_star={"a": 1}), "dgp.theta_star must be an array of numbers"),
        (lambda c: c["dgp"].update(gamma_star=[[1.0], "x"]), "dgp.gamma_star must be an array of numbers"),
        (lambda c: c["dgp"].update(z_cov=[[True]]), "dgp.z_cov must be an array of numbers"),
        (lambda c: c.update(init={"gamma0": [[None]]}), "init.gamma0 must be an array of numbers"),
        (lambda c: c.update(checkpoints=5), "checkpoints must be a list of integers"),
        # Only a missing or null 'schedule' or 'init' is absent; an empty value of another type is an error.
        (lambda c: c.update(schedule=[]), "'schedule' must be an object, got []"),
        (lambda c: c.update(schedule=0), "'schedule' must be an object, got 0"),
        (lambda c: c.update(schedule=""), "'schedule' must be an object, got ''"),
        (lambda c: c.update(init=[]), "'init' must be an object, got []"),
        (lambda c: c.update(init=False), "'init' must be an object, got false"),
        # An id that would split a CSV row, or that is not a string, is rejected.
        (lambda c: c.update(experiment_id="a,b\nc"), "experiment_id must be a string"),
        (lambda c: c.update(experiment_id={"x": 1}), "experiment_id must be a string"),
        # A schedule entry no listed algorithm reads, however malformed, was accepted unread.
        (lambda c: c.update(algorithm="online_2sls", schedule={"alpha": {"kind": "bogus"}}),
         "schedule.alpha is given, but no listed algorithm reads it"),
        (lambda c: c.update(algorithm="online_2sls", schedule={"beta": {"kind": "constant", "value": 0.1}}),
         "schedule.beta is given"),
        (lambda c: c.update(algorithm="two_sample_sgd", dgp={"family": "shared_confounder"},
                            schedule={"beta": {"kind": "two_timescale"}}), "schedule.beta is given"),
    ])
    def test_invalid_config_exits_nonzero(self, tmp_path, capsys, mutate, match):
        # A config error exits 2 before anything runs or is written.
        config = json.loads(json.dumps(MINIMAL))
        mutate(config)
        cfg = _write_config(tmp_path / "cfg.json", config)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert match.lower() in capsys.readouterr().err.lower()
        assert not out.exists()

    @pytest.mark.parametrize("mutate, match", [
        (lambda c: c["schedule"].update({"lambda": 0}), "lam"),
        (lambda c: c.update(init={"gamma0": [[0.0, 0.0]]}), "gamma0"),
        (lambda c: c.update(trials=0), "trials"),
        (lambda c: c.update(checkpoints=[5, 20]), "checkpoints"),
        (lambda c: c.update(checkpoints=[]), "checkpoints must be non-empty"),
        (lambda c: c.update(T=1, schedule={"alpha": {"kind": "log_horizon"}, "beta": {"kind": "two_timescale"}}),
         "T >= 2"),
    ])
    def test_bad_config_rejected_before_measuring(self, tmp_path, capsys, monkeypatch, mutate, match):
        # Square-link two_timescale schedules need the Monte-Carlo constants;
        # a bad config is rejected without measuring them.
        config = {
            "dgp": {"family": "shared_confounder", "d_x": 1, "d_z": 2, "phi": "square"},
            "algorithm": "two_stage_sgd",
            "schedule": {"alpha": {"kind": "two_timescale"}, "beta": {"kind": "two_timescale"}},
            "T": 10, "trials": 1,
        }
        calls = _count_theory_constants(monkeypatch)
        cli.specs_from_config(config)
        assert len(calls) == 1  # the valid config measures them
        calls.clear()
        mutate(config)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", _write_config(tmp_path / "cfg.json", config), "--out", str(out)]) == 2
        assert match in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_null_schedule_and_init_are_absent(self):
        absent, null = (presets.specs_from_config(c) for c in (MINIMAL, dict(MINIMAL, schedule=None, init=None)))
        assert list(map(presets.spec_to_dict, null)) == list(map(presets.spec_to_dict, absent))

    def test_integral_floats_are_integers(self, tmp_path):
        outs = []
        for name, T, checkpoints in (("int", 10, [1, 10]), ("float", 1e1, [1.0, 10.0])):
            out = tmp_path / name
            cfg = _write_config(tmp_path / f"{name}.json", dict(MINIMAL, T=T, checkpoints=checkpoints))
            assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
            outs.append((out / "series.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_out_naming_a_file_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("kept")
        assert cli.main(["run", "--config", _write_config(tmp_path / "cfg.json", MINIMAL), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text() == "kept"

    def test_unreadable_config(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")])
        assert rc != 0
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        rc = cli.main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc != 0
        assert "JSON" in capsys.readouterr().err


class TestDeterminismAcrossWorkers:
    def test_byte_identical_csv(self, tmp_path, monkeypatch):
        # Trials run alone (group size 1) or, by default, all 4 in one lockstep group.
        outs = []
        for group_size in (1, harness.GROUP_SIZE):
            monkeypatch.setattr(harness, "GROUP_SIZE", group_size)
            out = tmp_path / f"g{group_size}"
            rc = cli.main(["run", "--preset", "fig3", "--out", str(out),
                           "--trials", "4", "--iters", "800"])
            assert rc == 0
            outs.append((out / "series.csv").read_bytes())
        assert outs[0] == outs[1]


# The fig3 plug-in update from a far first-stage start with a large slow step:
# every trial overflows within the first 50 iterations.
DIVERGING = {
    "dgp": {"family": "endogenous_linear", "d_x": 1, "d_z": 1, "rho": 4.0, "sigma_eps": 1.0,
            "theta_star": [1.0], "gamma_star": [[-1.0]]},
    "algorithm": "direct_sgd",
    "schedule": {"alpha": {"kind": "polynomial", "coeff": 5.0, "exponent": 0.5},
                 "beta": {"kind": "polynomial", "coeff": 0.5, "exponent": 0.65}},
    "T": 3000, "trials": 4, "seed": 303,
    "init": {"theta0": [0.0], "gamma0": [[1e6]]},
}

# Both two-timescale updates on one stream from gamma0 = 1e4: all four trials
# of two_stage_sgd diverge within 50 steps, while direct_sgd keeps three of
# its four finite, so the lane they share steps both thetas up to T.
DIVERGING_PAIR = {**DIVERGING, "algorithms": ["two_stage_sgd", "direct_sgd"],
                  "schedule": {"alpha": {"kind": "polynomial", "coeff": 1.0, "exponent": 0.5},
                               "beta": {"kind": "polynomial", "coeff": 0.5, "exponent": 0.65}},
                  "init": {"theta0": [0.0], "gamma0": [[1e4]]}}
del DIVERGING_PAIR["algorithm"]

# Both two-timescale updates with DIVERGING's steps and start: every trial of
# both diverges, those of two_stage_sgd first, so the lane they share steps
# both thetas up to direct_sgd's last divergence.
DIVERGING_BOTH = {**DIVERGING, "algorithms": ["two_stage_sgd", "direct_sgd"]}
del DIVERGING_BOTH["algorithm"]

# Streaming 2SLS from a far first-stage start with a tiny ridge: in half of
# the trials a rank-one denominator turns non-positive within 30 steps.
DIVERGING_2SLS = {
    "dgp": {"family": "endogenous_linear", "d_x": 8, "d_z": 16, "rho": 4.0, "sigma_eps": 1.0},
    "algorithm": "online_2sls",
    "schedule": {"lambda": 1e-4},
    "T": 3000, "trials": 8, "seed": 1,
    "init": {"gamma0": [[1e5] * 8] * 16},
}


class TestDivergence:
    @staticmethod
    def _run(tmp_path, monkeypatch, config) -> tuple[dict, list]:
        """The manifest's ``diverged`` and the checkpoints of a run that records its divergence.

        Group size 1 (every trial alone) and the default write the same bytes,
        and each row is ``inf`` exactly from its trial's diverged checkpoint on.
        """
        cfg = _write_config(tmp_path / "cfg.json", config)
        outs = []
        for group_size in (1, harness.GROUP_SIZE):
            monkeypatch.setattr(harness, "GROUP_SIZE", group_size)
            out = tmp_path / f"g{group_size}"
            assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
            outs.append((out / "series.csv").read_bytes())
        assert outs[0] == outs[1]
        manifest = json.loads((out / "manifest.json").read_text())
        diverged = manifest["diverged"][config["algorithm"]]
        checkpoints = manifest["experiments"][0]["checkpoints"]
        rows = [line.split(",") for line in outs[1].decode().splitlines()[1:]]
        assert len(rows) == config["trials"] * len(checkpoints)
        for _, _, trial, it, _, value in rows:
            v = float(value)
            assert v == math.inf if trial in diverged and int(it) >= diverged[trial] else math.isfinite(v)
        return diverged, checkpoints

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_trials_are_recorded(self, tmp_path, monkeypatch):
        diverged, _ = self._run(tmp_path, monkeypatch, DIVERGING)
        assert sorted(diverged) == ["0", "1", "2", "3"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_2sls_trials_are_recorded(self, tmp_path, monkeypatch):
        diverged, checkpoints = self._run(tmp_path, monkeypatch, DIVERGING_2SLS)
        # Expected: the trials whose stream makes the 1-d kernel raise, each at
        # the first checkpoint on or after the step that raised.
        spec = presets.specs_from_config(DIVERGING_2SLS)[0]
        expected = {}
        for i in range(spec.trials):
            rng = np.random.Generator(np.random.PCG64(harness.mix_seed(spec.base_seed, i)))
            reg = estimators.Online2SLSRegressor(lam=spec.lam, gamma0=spec.gamma0)
            try:
                reg.fit(*dgp.sample_one_block(rng, spec.dgp, spec.T))
            except FloatingPointError:
                expected[str(i)] = next(c for c in checkpoints if c > reg.n_iter_)
        assert diverged == expected
        assert sorted(expected) == ["0", "1", "4", "7"]

    def test_spec_stops_stepping_once_all_trials_diverged(self, tmp_path, monkeypatch):
        [last] = self._check_stepping(tmp_path, monkeypatch, DIVERGING)
        assert last < DIVERGING["T"]

    def test_diverged_spec_steps_on_beside_a_partner_that_does_not(self, tmp_path, monkeypatch):
        two_stage, direct = self._check_stepping(tmp_path, monkeypatch, DIVERGING_PAIR)
        assert two_stage < direct == DIVERGING_PAIR["T"]

    def test_lane_stops_once_every_spec_has_diverged(self, tmp_path, monkeypatch):
        assert self._check_stepping(tmp_path, monkeypatch, DIVERGING_BOTH) == [16, 43]

    @staticmethod
    def _check_stepping(tmp_path, monkeypatch, config) -> list[int]:
        """Each spec's last trial's divergence, or T if not all diverge, in spec order; checks that the specs'
        one lane steps every theta up to the latest of them and writes the 1-d kernel's bytes."""
        calls = []  # per window of the two-timescale lane: rows, and the raw-residual flag of each theta
        step = estimators.Window.step

        def counting(window, t0, rows, alphas=0, betas=0):
            if window.direct is not None:
                calls.append((rows, window.direct))
            return step(window, t0, rows, alphas, betas)

        monkeypatch.setattr(estimators.Window, "step", counting)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", _write_config(tmp_path / "cfg.json", config), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        checkpoints = manifest["experiments"][0]["checkpoints"]
        specs = presets.specs_from_config(config)
        lasts = []
        for spec in specs:
            diverged = manifest["diverged"][spec.algorithm]
            lasts.append(max(diverged.values()) if len(diverged) == spec.trials else spec.T)
        # All trials run as one group, in one lane that steps every theta in each call until every trial of
        # every spec has diverged: one call per window from one checkpoint or block end to the next, up to the
        # last divergence.
        last, block = max(lasts), harness._SAMPLE_BLOCK
        ends = {c for c in checkpoints if c <= last} | set(range(block, last, block))
        assert [n for n, _ in calls] == np.diff([0, *sorted(ends)]).tolist()
        assert {d for _, d in calls} == {tuple(spec.algorithm == "direct_sgd" for spec in specs)}
        # The bytes are those of stepping every row: the 1-d kernel over the whole
        # stream, with the harness's step sizes.
        lines = [cli.CSV_HEADER]
        with np.errstate(all="ignore"):
            for spec in sorted(specs, key=lambda s: s.algorithm):
                update = {"two_stage_sgd": estimators.two_stage_update,
                          "direct_sgd": estimators.direct_residual_update}[spec.algorithm]
                alphas, betas = schedule.steps(spec.alpha, spec.T), schedule.steps(spec.beta, spec.T)
                for i in range(spec.trials):
                    rng = np.random.Generator(np.random.PCG64(harness.mix_seed(spec.base_seed, i)))
                    z, x, y = dgp.sample_one_block(rng, spec.dgp, spec.T)
                    theta, gamma, dist = spec.theta0, spec.gamma0, []
                    for t in range(spec.T):
                        theta, gamma = update(theta, gamma, z[t], x[t], y[t], alphas[t], betas[t])
                        if t + 1 in checkpoints:
                            d = theta - spec.dgp.theta_star
                            dist.append(d @ d)
                    dist = np.array(dist)
                    dist[np.logical_or.accumulate(~np.isfinite(dist))] = np.inf
                    lines += [f"{spec.experiment_id},{spec.algorithm},{i},{c},dist_sq,{v!r}"
                              for c, v in zip(checkpoints, dist.tolist())]
        assert (out / "series.csv").read_text() == "\n".join(lines) + "\n"
        return lasts


class TestSeriesRows:
    @staticmethod
    def _f_string_rows(series) -> list[str]:
        """The formulation series_rows replaced: every value of every metric formatted in place."""
        prefix = f"{series.spec.experiment_id},{series.spec.algorithm}"
        names = [m for m in harness.METRICS if m in series.metrics]
        values = np.stack([series.metrics[m] for m in names], axis=-1)
        keys = itertools.product(range(values.shape[0]), series.iterations.tolist(), names)
        return [f"{prefix},{trial},{it},{m},{v!r}" for (trial, it, m), v in zip(keys, values.ravel().tolist())]

    @pytest.mark.parametrize("config, test_n", [(DIVERGING_PAIR, 40), (DIVERGING, 0), (DIVERGING_2SLS, 1)])
    def test_rows_equal_the_f_string_formulation(self, config, test_n):
        # series_rows formats a series' values in one compiled call; the rows
        # must be those of formatting each value with repr, diverged (inf)
        # rows and test_n = 0 among them.
        specs = presets.specs_from_config({**config, "T": 400, "test_n": test_n})
        for series in harness.run_experiments(specs):
            assert np.isinf(series.metrics["dist_sq"]).any()
            assert series.metrics.keys() == (set(harness.METRICS) if test_n else {"dist_sq"})
            assert cli.series_rows(series) == self._f_string_rows(series)

    def test_csv_files_are_the_f_string_bytes(self, tmp_path, monkeypatch):
        # Values on both sides of repr's layout thresholds, 2.0, the least
        # subnormal and inf, placed in every metric of a hand-built series of
        # each algorithm, through run_specs_to_dir's whole CSV path.
        edges = np.array([9999999999999998.0, 1e16, 0.0001, 1e-05, 2.0, 5e-324, math.inf])
        specs = presets.specs_from_config({**DIVERGING_PAIR, "T": 400, "test_n": 5, "trials": 3})
        n = len(specs[0].checkpoints)
        series = []
        for k, spec in enumerate(specs):
            metrics = {"dist_sq": np.resize(np.roll(edges, k), (3, n)),
                       "oracle_mse": np.repeat(np.roll(edges, 2 * k)[:3, None], n, axis=1),
                       "test_mse": np.resize(-np.roll(edges, 3 * k), (3, n))}
            series.append(harness.MetricSeries(spec, metrics, ["00" * 32] * 3))
        monkeypatch.setattr(harness, "run_experiments", lambda _: series)
        cli.run_specs_to_dir(specs, tmp_path)
        rows = {s.spec.algorithm: self._f_string_rows(s) for s in series}

        def csv(lines):  # write_series_csv's formulation before the texts were built once per algorithm
            return ("\n".join([cli.CSV_HEADER, *lines]) + "\n").encode()

        assert (tmp_path / "series.csv").read_bytes() == csv([line for alg in sorted(rows) for line in rows[alg]])
        for alg, lines in rows.items():
            assert (tmp_path / f"series_{alg}.csv").read_bytes() == csv(lines)
        assert set(edges.tolist()) <= {float(line.rsplit(",", 1)[1]) for line in rows["direct_sgd"]}


def _repr_cases() -> list[np.ndarray]:
    """Doubles to format, in chunks: random bit patterns, every power of two, subnormals and the largest double,
    signed zeros, infinities and NaNs, integers up to 2**53, both sides of repr's layout thresholds, and decimals
    of 1 to 17 significant digits; each with its negation."""
    rng = np.random.default_rng(2025)
    random_bits = np.frombuffer(rng.bytes(8 * 1_000_000), dtype=np.float64)
    tiny, huge = 5e-324, np.finfo(np.float64).max
    subnormals = np.frombuffer((rng.integers(1, 2**52, 10_000, dtype=np.uint64)).tobytes(), dtype=np.float64)
    edges = [0.0, math.inf, math.nan, tiny, 2 * tiny, np.nextafter(2.2250738585072014e-308, 0), 2.2250738585072014e-308,
             huge, np.nextafter(huge, 0), 2.0**53, 2.0**53 - 1, 2.0**53 + 2]
    thresholds = np.array([9999999999999998.0, 1e16, 0.0001, 1e-05])
    integers = np.concatenate([np.arange(100_000), rng.integers(0, 2**53, 100_000, endpoint=True)]).astype(np.float64)
    decimals = [float(f"{rng.integers(10 ** (k - 1), 10**k)}e{rng.integers(-340, 310)}")
                for k in range(1, 18) for _ in range(5_000)]
    others = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)), subnormals, edges, thresholds,
                             np.nextafter(thresholds, 0), np.nextafter(thresholds, math.inf), integers, decimals])
    return np.split(random_bits, 10) + [others, -others]


@pytest.fixture(scope="module")
def repr_cases() -> list[tuple[np.ndarray, list[str]]]:
    """Each chunk of :func:`_repr_cases` with the repr of each of its values."""
    return [(values, list(map(repr, values.tolist()))) for values in _repr_cases()]


def _recomputed_pow5() -> np.ndarray:
    """The tables of shortest_reprs from their definition, each row checked against it."""
    rows = []
    for q in range(_native.POW5_INV_ROWS):
        p, bits = 5**q, len(format(5**q, "b"))
        j = bits - 1 + 125
        inv = (1 << j) // p + 1
        assert (inv - 1) * p <= 2**j < inv * p
        rows.append(inv)
    for i in range(_native.POW5_ROWS):
        p, bits = 5**i, len(format(5**i, "b"))
        top = p >> bits - 125 if bits > 125 else p << 125 - bits
        assert top.bit_length() == 125 and top * 2**bits <= p * 2**125 < (top + 1) * 2**bits
        rows.append(top)
    return np.array([(v % 2**64, v // 2**64) for v in rows], dtype=np.uint64)


def _formatter(lib):
    """The shortest_reprs of the loaded build lib, on the recomputed tables, as _native.reprs calls it."""
    tables = _recomputed_pow5()
    lib.use_pow5.argtypes, lib.use_pow5.restype = (ctypes.c_void_p,) * 2, None
    lib.use_pow5(tables[:_native.POW5_INV_ROWS].ctypes.data, tables[_native.POW5_INV_ROWS:].ctypes.data)
    fmt = lib.shortest_reprs
    fmt.argtypes, fmt.restype = (ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p), ctypes.c_int64

    def reprs(values):
        out = np.empty(_native.REPR_BYTES * values.size, dtype=np.uint8)
        size = fmt(values.size, values.ctypes.data, out.ctypes.data)
        return out[:size].tobytes().decode("ascii").split("\n")[:-1]

    reprs.tables = tables  # the build reads them in place
    return reprs


class TestShortestRepr:
    """The compiled formatter of the CSV values writes ``float.__repr__``'s text, byte for byte."""

    @staticmethod
    def _check(reprs, cases):
        for values, want in cases:
            got = reprs(values)
            if got != want:
                bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
                pytest.fail(f"{len(got)} texts for {len(want)} values; first differing: {bad[:5]}")
            assert max(map(len, got)) < _native.REPR_BYTES

    def test_equals_repr(self, repr_cases):
        self._check(_native.reprs, repr_cases)

    def test_build_without_avx512_equals_repr(self, repr_cases, no_avx512_build):
        self._check(_formatter(no_avx512_build), repr_cases)

    def test_cases_reach_every_layout(self, repr_cases):
        texts = {text for _, want in repr_cases for text in want}
        for text in ("0.0", "-0.0", "inf", "-inf", "nan", "5e-324", "-1.7976931348623157e+308", "9999999999999998.0",
                     "1e+16", "0.0001", "1e-05", "9007199254740992.0", "2.2250738585072014e-308", "2.0"):
            assert text in texts

    def test_tables_are_their_definition(self):
        assert _native.pow5_tables().tobytes() == _recomputed_pow5().tobytes()

    def test_table_rows_cover_every_double(self):
        # A double is m * 2**e2 with e2 in [-1076, 969] in the routine's terms;
        # its bit length and log10 formulas must be exact wherever it uses them.
        def pow5_bits(e): return ((e * 1217359) >> 19) + 1
        def log10_pow2(e): return (e * 78913) >> 18
        def log10_pow5(e): return (e * 732923) >> 20

        assert all(pow5_bits(e) == (5**e).bit_length() for e in range(_native.POW5_ROWS))
        assert all(log10_pow2(e) == len(str(2**e)) - 1 for e in range(970))
        assert all(log10_pow5(e) == len(str(5**e)) - 1 for e in range(1077))
        assert max(log10_pow2(e) - (e > 3) for e in range(970)) + 1 == _native.POW5_INV_ROWS
        assert max(e - (log10_pow5(e) - (e > 1)) for e in range(1, 1077)) + 1 == _native.POW5_ROWS


def test_python_m_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "ivstream", "--version"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ivstream ")


class TestCheck:
    def test_all_checks_pass(self, capsys):
        assert cli.cmd_check() == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    def test_corrupted_u0_negative_control(self, capsys, monkeypatch):
        # The check fails when the U of the 2SLS window loop it steps drifts off
        # the exact inverse, and when U starts negative definite, so that a
        # rank-one denominator is not positive and the loop ends NaN.
        loop = estimators.Online2SLSRegressor._loop

        def drifting(state, *blocks):
            window = loop(state, *blocks)
            step = window.step

            def drift(*args):
                events = step(*args)
                state[2][...] *= 1.0 + 1e-6
                return events

            window.step = drift
            return window

        def negative(state, *blocks):
            state[2][...] *= -1.0
            return loop(state, *blocks)

        for corrupted in (drifting, negative):
            monkeypatch.setattr(estimators.Online2SLSRegressor, "_loop", staticmethod(corrupted))
            rc = cli.main(["check"])
            assert rc != 0
            captured = capsys.readouterr()
            assert "sherman_morrison" in captured.err
            assert "FAIL" in captured.out
        assert cli._check_sherman_morrison(0x5A) == (math.inf, math.inf)  # the NaN state reads inf
