"""Experiment configs, and the named presets written in them.

A config describes one experiment; :func:`specs_from_config` resolves it into
one :class:`ExperimentSpec` per algorithm and :func:`spec_to_dict` writes a
resolved spec back in the same schema. Every preset cell is such a config, so
``ivstream run --preset P --cell C`` runs exactly what ``ivstream run
--config`` runs on that cell's config.

Config schema (JSON)
--------------------
Required: ``dgp.family``, ``algorithm`` (or a list of distinct ``algorithms``),
``T``, ``trials``. Optional keys with defaults::

    {
      "experiment_id": "experiment",
      "dgp": {
        "family": "endogenous_linear" | "shared_confounder",
        "d_x": 1, "d_z": d_x,
        "theta_star": [...], "gamma_star": [[...]], "z_cov": [[...]],
        "rho": 1.0, "sigma_eps": 0.5,          # endogenous_linear only
        "c": 0.1, "phi": "identity"            # shared_confounder only
      },
      "algorithm": "two_stage_sgd",
      "schedule": {
        "alpha": {"kind": "polynomial", "coeff": 0.3, "exponent": 0.95}
                 | {"kind": "constant", "value": 0.01}
                 | {"kind": "log_horizon"}      # log(T) / (mu T), mu measured
                 | {"kind": "two_timescale"},   # worst-case prescription
        "beta": {...},
        "lambda": 0.1
      },
      "T": 100000, "trials": 50, "seed": 0, "test_n": 0,
      "checkpoints": [1, 10, ...],
      "init": {"theta0": [...], "gamma0": [[...]]}
    }

A ``dgp`` object takes the six shared keys and those of its own family; a key
of the other family, like any unknown key, is a :class:`ConfigError`.

Presets
-------
``fig1``
    Two-sample one-stage SGD on the shared-confounder family over the grid
    (d_x, d_z) in {(4, 8), (8, 16)}, c in {0.1, 1.0}, link in {identity,
    square}, with the ``log_horizon`` step. Cell ids look like
    ``dx4_dz8_c0.1_phi_id``.

``fig2``
    Algorithm comparison (two-timescale SGD, plug-in variant, streaming
    2SLS) on the endogenous-linear family over (d_x, d_z) in {(1, 1),
    (8, 16)}, rho in {1, 4}, sigma_eps in {0.5, 1.0}, with a 400-sample
    held-out test set and the default schedules (the worst-case prescription
    of :func:`ivstream.schedule.two_timescale_schedules` is far too small to
    enter the asymptotic regime within desk-scale horizons; see the README).
    Cell ids look like ``dx1_dz1_rho1_sig0.5``.

``fig3``
    Divergence comparison of the two-timescale update against the plug-in
    variant from a far-off first-stage initialisation (gamma started at 10,
    planted value -1). Single cell ``default``.

All specs within a cell share one base seed, so the per-trial sample streams
are identical across algorithms and the curves are paired.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

from .dgp import DgpConfig, EndogenousLinear, SharedConfounder, endogenous_linear_config, shared_confounder_config
from .estimators import DEFAULT_RIDGE, REGRESSORS
from .harness import ExperimentSpec, check_run
from .oracle import theory_constants
from .schedule import Constant, Polynomial, StepSchedule, log_horizon_alpha, two_timescale_schedules


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configs."""


# ---------------------------------------------------------------------------
# config parsing / serialization


def _reject_unknown(d: dict, allowed: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _real(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


# An integral float such as 1e5 is an integer, a fraction is not.
def _integer(value, name: str) -> int:
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) or _real(value, name).is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _array(value, name: str):
    """A JSON array of numbers as a float64 array; None stays None."""
    if value is None:
        return None
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged array
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ConfigError(f"{name} must be an array of numbers, got {value!r}")
    return arr.astype(np.float64)


# Each family's config name: its parameter class, its config function and the defaults of the keys
# only it reads. A dgp object takes the family, d_x, d_z and _DGP_ARRAYS, and its own family's keys.
_FAMILIES = {
    "endogenous_linear": (EndogenousLinear, endogenous_linear_config, {"rho": 1.0, "sigma_eps": 0.5}),
    "shared_confounder": (SharedConfounder, shared_confounder_config, {"c": 0.1, "phi": "identity"}),
}
_DGP_ARRAYS = ("theta_star", "gamma_star", "z_cov")


def _dgp_from_dict(d: dict) -> DgpConfig:
    if not isinstance(d, dict):
        raise ConfigError("'dgp' must be an object")
    family = d.get("family")
    if not (isinstance(family, str) and family in _FAMILIES):
        raise ConfigError(f"dgp.family must be one of {list(_FAMILIES)}, got {family!r}")
    _, make, own = _FAMILIES[family]
    _reject_unknown(d, {"family", "d_x", "d_z", *_DGP_ARRAYS, *own}, f"dgp of family {family!r}")
    kw = {key: _array(d.get(key), f"dgp.{key}") for key in _DGP_ARRAYS}
    d_x = _integer(d.get("d_x", 1), "dgp.d_x")
    d_z = _integer(d.get("d_z", d_x), "dgp.d_z")
    # The link is a name, which the family checks; every other family key is a number.
    kw |= {key: d.get(key, v) if isinstance(v, str) else _real(d.get(key, v), f"dgp.{key}") for key, v in own.items()}
    return make(d_x, d_z, **kw)


def _dgp_to_dict(cfg: DgpConfig) -> dict:
    family, own = next((name, own) for name, (cls, _, own) in _FAMILIES.items() if isinstance(cfg.family, cls))
    return {"family": family, "d_x": cfg.d_x, "d_z": cfg.d_z, **{key: getattr(cfg.family, key) for key in own},
            **{key: getattr(cfg, key).tolist() for key in _DGP_ARRAYS}}


def _schedule_to_dict(s: StepSchedule | None) -> dict | None:
    if s is None:
        return None
    if isinstance(s, Constant):
        return {"kind": "constant", "value": s.alpha}
    return {"kind": "polynomial", "coeff": s.coeff, "exponent": s.exponent}


def _resolve_schedule(d, which: str, cfg: DgpConfig, T: int, constants) -> StepSchedule:
    """Schedule ``which`` from its config entry; ``constants()`` gives the
    process's theory constants (measured at most once per config)."""
    if d is None:
        # Slow/fast coefficients scaled by the dimension-dependent stability
        # limits of the two recursions (the theta step must contract against
        # curvature ~ W W^T with W ~ N(0, I_dx), the gamma step against Z Z^T
        # with Z ~ N(0, I_dz)), with the decay 1 - iota/2 at iota = 0.1.
        if which == "alpha":
            return Polynomial(0.9 / (cfg.d_x + 2.0), 0.95)
        return Polynomial(1.5 / (cfg.d_z + 2.0), 0.95)
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"schedule.{which} must be an object with a 'kind'")
    kind = d["kind"]
    if kind == "constant":
        _reject_unknown(d, {"kind", "value"}, f"schedule.{which}")
        return Constant(_real(d.get("value"), f"schedule.{which}.value"))
    if kind == "polynomial":
        _reject_unknown(d, {"kind", "coeff", "exponent"}, f"schedule.{which}")
        return Polynomial(_real(d.get("coeff"), f"schedule.{which}.coeff"),
                          _real(d.get("exponent", 0.95), f"schedule.{which}.exponent"))
    if kind == "log_horizon":
        _reject_unknown(d, {"kind"}, f"schedule.{which}")
        if T < 2:
            raise ConfigError(f"schedule.{which}: log_horizon needs T >= 2, got {T}")
        return log_horizon_alpha(T, constants())[0]
    if kind == "two_timescale":
        _reject_unknown(d, {"kind", "iota"}, f"schedule.{which}")
        iota = _real(d.get("iota", 0.1), f"schedule.{which}.iota")
        return two_timescale_schedules(constants(), cfg.d_z, iota)[("alpha", "beta").index(which)]
    raise ConfigError(f"unknown schedule kind {kind!r}")


_TOP_KEYS = {
    "experiment_id", "dgp", "algorithm", "algorithms", "schedule",
    "T", "trials", "seed", "test_n", "checkpoints", "init",
}


def specs_from_config(
    config: dict,
    seed: int | None = None,
    trials: int | None = None,
    T: int | None = None,
) -> list[ExperimentSpec]:
    """Resolve a config dict into one spec per requested algorithm; a malformed one raises ConfigError.

    The run fields (the DGP, T, trials, ``test_n``, checkpoints, ``lam``, ``init`` and
    ``experiment_id``) go through :func:`~ivstream.harness.check_run` once, before any
    schedule is resolved; each algorithm's spec is built from its result and runs only
    the algorithm's checks (see :class:`~ivstream.harness.ExperimentSpec`).
    """
    try:
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        _reject_unknown(config, _TOP_KEYS, "config")
        for key in ("dgp", "T", "trials"):
            if key not in config:
                raise ConfigError(f"config is missing required key {key!r}")
        if ("algorithm" in config) == ("algorithms" in config):
            raise ConfigError("config must define exactly one of 'algorithm' or 'algorithms'")
        algorithms = config["algorithms"] if "algorithms" in config else [config["algorithm"]]
        if not isinstance(algorithms, list) or not algorithms:
            raise ConfigError("'algorithms' must be a non-empty list")
        unknown = [a for a in algorithms if a not in REGRESSORS]
        if unknown:
            raise ConfigError(f"unknown algorithm {unknown[0]!r}; expected one of {tuple(REGRESSORS)}")
        repeated = [a for i, a in enumerate(algorithms) if a in algorithms[:i]]
        if repeated:
            raise ConfigError(f"'algorithms' repeats {repeated[0]!r}")

        cfg = _dgp_from_dict(config["dgp"])
        horizon = _integer(config["T"] if T is None else T, "T")
        n_trials = _integer(config["trials"] if trials is None else trials, "trials")
        base_seed = _integer(config.get("seed", 0) if seed is None else seed, "seed")
        test_n = _integer(config.get("test_n", 0), "test_n")
        checkpoints = config.get("checkpoints")
        if checkpoints is not None:
            if not isinstance(checkpoints, (list, tuple)):
                raise ConfigError(f"checkpoints must be a list of integers, got {checkpoints!r}")
            checkpoints = [_integer(c, "checkpoints") for c in checkpoints]

        init, sched = ({} if config.get(key) is None else config[key] for key in ("init", "schedule"))
        for key, value in (("init", init), ("schedule", sched)):
            if not isinstance(value, dict):
                raise ConfigError(f"'{key}' must be an object, got {value!r}")
        _reject_unknown(init, {"theta0", "gamma0"}, "init")
        _reject_unknown(sched, {"alpha", "beta", "lambda"}, "schedule")
        # A schedule no listed algorithm reads would never be checked; the
        # null that spec_to_dict writes for one is no entry.
        read = {which for alg in algorithms for which in REGRESSORS[alg]._schedules}
        unread = [which for which in ("alpha", "beta") if sched.get(which) is not None and which not in read]
        if unread:
            raise ConfigError(f"schedule.{unread[0]} is given, but no listed algorithm reads it: {algorithms}")

        experiment_id = config.get("experiment_id", "experiment")
        lam = _real(sched.get("lambda", DEFAULT_RIDGE), "schedule.lambda")
        # Everything but the schedules is checked first, once, so a bad config is rejected
        # before the constants are measured; each spec runs only its algorithm's checks.
        run = check_run(cfg, horizon, n_trials, test_n, checkpoints, lam,
                        *(_array(init.get(k), f"init.{k}") for k in ("theta0", "gamma0")), experiment_id)
        # Each schedule, and the constants it may need, is resolved once per config.
        constants = functools.cache(lambda: theory_constants(cfg, gamma0=run[2]))
        resolved = functools.cache(lambda which: _resolve_schedule(sched.get(which), which, cfg, horizon, constants))
        return [
            ExperimentSpec._of_run(
                run, dgp=cfg, algorithm=alg, T=horizon, trials=n_trials, base_seed=base_seed, lam=lam,
                test_n=test_n, experiment_id=experiment_id,
                **{which: resolved(which) for which in REGRESSORS[alg]._schedules},
            )
            for alg in algorithms
        ]
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e


def spec_to_dict(spec: ExperimentSpec) -> dict:
    """Lossless JSON-compatible snapshot of a resolved spec."""
    return {
        "experiment_id": spec.experiment_id,
        "dgp": _dgp_to_dict(spec.dgp),
        "algorithm": spec.algorithm,
        "schedule": {
            "alpha": _schedule_to_dict(spec.alpha),
            "beta": _schedule_to_dict(spec.beta),
            "lambda": spec.lam,
        },
        "T": spec.T,
        "trials": spec.trials,
        "seed": spec.base_seed,
        "test_n": spec.test_n,
        "checkpoints": list(spec.checkpoints),
        "init": {
            "theta0": None if spec.theta0 is None else spec.theta0.tolist(),
            "gamma0": None if spec.gamma0 is None else spec.gamma0.tolist(),
        },
    }


# ---------------------------------------------------------------------------
# presets

PRESETS = ("fig1", "fig2", "fig3")

_DEFAULT_SEEDS = {"fig1": 101, "fig2": 202, "fig3": 303}


def _cell_configs(name: str) -> dict[str, dict]:
    """The configs of a preset's cells, by cell id."""
    cells = {}
    if name == "fig1":
        for d_x, d_z in ((4, 8), (8, 16)):
            for c in (0.1, 1.0):
                for phi, tag in (("identity", "id"), ("square", "sq")):
                    cells[f"dx{d_x}_dz{d_z}_c{c}_phi_{tag}"] = {
                        "dgp": {"family": "shared_confounder", "d_x": d_x, "d_z": d_z, "c": c, "phi": phi},
                        "algorithm": "two_sample_sgd",
                        "schedule": {"alpha": {"kind": "log_horizon"}},
                        "T": 485_000,
                    }
    elif name == "fig2":
        for d_x, d_z in ((1, 1), (8, 16)):
            for rho in (1.0, 4.0):
                for sig in (0.5, 1.0):
                    cells[f"dx{d_x}_dz{d_z}_rho{rho:g}_sig{sig:g}"] = {
                        "dgp": {"family": "endogenous_linear", "d_x": d_x, "d_z": d_z, "rho": rho, "sigma_eps": sig},
                        "algorithms": ["two_stage_sgd", "direct_sgd", "online_2sls"],
                        "T": 100_000,
                        "test_n": 400,
                    }
    elif name == "fig3":
        cells["default"] = {
            "dgp": {"family": "endogenous_linear", "d_x": 1, "d_z": 1, "rho": 4.0, "sigma_eps": 1.0,
                    "theta_star": [1.0], "gamma_star": [[-1.0]]},
            "algorithms": ["two_stage_sgd", "direct_sgd"],
            # From gamma0 = 10 the slow step uses a smaller coefficient and a
            # lighter decay so the transient stays controlled while the total
            # step mass still drives the error to the noise floor by T = 1e5.
            # The exponent pair stays inside the admissible range (both in
            # (1/2, 1) with the fast decay exceeding 2 - 2 * slow decay).
            "schedule": {"alpha": {"kind": "polynomial", "coeff": 0.2, "exponent": 0.7},
                         "beta": {"kind": "polynomial", "coeff": 0.5, "exponent": 0.65}},
            "T": 100_000,
            "init": {"theta0": [0.0], "gamma0": [[10.0]]},
        }
    else:
        raise ConfigError(f"unknown preset {name!r}; expected one of {PRESETS}")
    return {
        cell: {"experiment_id": f"{name}_{cell}", **config, "trials": 50, "seed": _DEFAULT_SEEDS[name]}
        for cell, config in cells.items()
    }


def preset_cells(name: str) -> list[str]:
    """Cell ids of a preset."""
    return list(_cell_configs(name))


def build_preset(
    name: str,
    cell: str | None = None,
    seed: int | None = None,
    trials: int | None = None,
    T: int | None = None,
) -> dict[str, list[ExperimentSpec]]:
    """Expand a preset into specs, optionally restricted to one cell.

    ``seed``, ``trials`` and ``T`` override the preset defaults for every
    produced spec, as they override a config's. Within a cell all algorithms
    share the base seed.
    """
    configs = _cell_configs(name)
    if cell is not None:
        if cell not in configs:
            raise ConfigError(f"preset {name!r} has no cell {cell!r}; known cells: {list(configs)}")
        configs = {cell: configs[cell]}
    return {cell_id: specs_from_config(config, seed=seed, trials=trials, T=T) for cell_id, config in configs.items()}
