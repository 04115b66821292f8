"""Command-line front end: run experiments and self-check.

Subcommands
-----------
``run``
    Run a JSON config as one cell, or a preset's cells (``--cell``, which
    needs ``--preset``, picks one), writing ``series.csv`` and
    ``manifest.json`` into the output directory for one cell, else into a
    subdirectory per cell. A config or cell listing several algorithms runs
    those of one oracle on the same per-trial streams (``two_sample_sgd`` on
    two-sample streams of its own) and writes one ``series_<algorithm>.csv``
    per algorithm too. A usage error (a bad config, ``--cell`` with
    ``--config``, an unknown cell) exits 2 before anything runs; a failure
    in a run exits 1.

``check``
    Run the reduced-scale validation suites (gradient unbiasedness of the
    two-sample estimator, Sherman-Morrison consistency of the streaming 2SLS
    state, equality of lockstep trials with trials run alone) and exit
    non-zero on the first failure.

CSV schema
----------
``experiment_id,algorithm,trial,iteration,metric,value`` with metric in
:data:`ivstream.harness.METRICS`; values are shortest round-trip decimals of
64-bit floats, the text ``repr`` gives each, and ``inf`` for ``dist_sq`` and
``test_mse`` from a diverged trial's first non-finite checkpoint on; rows
sorted by (algorithm, trial, iteration, metric); LF line endings, UTF-8. The
values of a series are formatted in one call of the compiled
``shortest_reprs`` (:func:`ivstream._native.reprs`), each algorithm's CSV text
is built once, and ``series.csv`` joins those texts. Files are written to a
temporary name and renamed into place, each with the mode a plain ``open()``
gives: 0o666 less the umask.

Configs
-------
A config is in the schema of :mod:`ivstream.presets`, which parses it and
writes the manifest's resolved ``experiments`` in the same schema.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import secrets
import sys
from pathlib import Path

import numpy as np

from . import __version__, _native, estimators as est, harness, presets
from .dgp import endogenous_linear_config, sample_one_block, sample_two_block, shared_confounder_config
from .harness import ExperimentSpec, MetricSeries, RNG_ALGORITHM, SEED_MIXER
from .oracle import grad_f, summarize
from .presets import ConfigError, spec_to_dict, specs_from_config

CSV_HEADER = "experiment_id,algorithm,trial,iteration,metric,value"


# ---------------------------------------------------------------------------
# output writing


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to a new temporary name, then rename it to ``path``. ``os.open`` creates the file with
    the mode a plain ``open()`` gives, 0o666 less the umask; ``mkstemp``'s 0o600 would survive the rename."""
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def series_rows(series: MetricSeries) -> list[str]:
    """One CSV line per (trial, checkpoint, recorded metric) in the schema's order, the harness's: trials and
    checkpoints ascend, :data:`ivstream.harness.METRICS` is sorted, and a trial's ``oracle_mse`` is constant.
    The values are formatted in one compiled call (:func:`ivstream._native.reprs`), each as ``repr`` writes it,
    and each iteration once."""
    prefix, m = f"{series.spec.experiment_id},{series.spec.algorithm}", series.metrics
    its = list(map(str, series.iterations.tolist()))
    trials, n = m["dist_sq"].shape
    scored = "oracle_mse" in m
    values = [m["dist_sq"].ravel()] + ([m["test_mse"].ravel(), m["oracle_mse"][:, 0]] if scored else [])
    texts, size = _native.reprs(np.concatenate(values)), trials * n
    lines = []
    for trial in range(trials):
        at, head = trial * n, f"{prefix},{trial},"
        dist = texts[at:at + n]
        if not scored:
            lines += [f"{head}{it},dist_sq,{d}" for it, d in zip(its, dist)]
            continue
        oracle, test = f",oracle_mse,{texts[2 * size + trial]}", texts[size + at:size + at + n]
        for it, d, t in zip(its, dist, test):
            lines += (f"{head}{it},dist_sq,{d}", f"{head}{it}{oracle}", f"{head}{it},test_mse,{t}")
    return lines


def write_series_csv(path: Path, texts: list[str]) -> None:
    """Write the header and ``texts``, each whole LF-ended CSV lines, already in CSV order, atomically."""
    _atomic_write(path, "".join([CSV_HEADER, "\n", *texts]))


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0).isoformat()


def run_specs_to_dir(specs: list[ExperimentSpec], out_dir: Path) -> None:
    """Run the specs, one per algorithm, then write the joined CSV, per-algorithm CSVs, manifest."""
    algorithms = [s.algorithm for s in specs]
    if len(set(algorithms)) < len(algorithms):
        raise ValueError(f"run_specs_to_dir takes one spec per algorithm, got {algorithms}")
    out_dir.mkdir(parents=True, exist_ok=True)
    started = _utcnow()
    texts: dict[str, str] = {}
    digests: dict[str, str] = {}
    diverged: dict[str, dict[int, int]] = {}
    for spec, series in zip(specs, harness.run_experiments(specs)):
        texts[spec.algorithm] = "\n".join(series_rows(series)) + "\n"  # never empty: a spec has a trial and a checkpoint
        digests[spec.algorithm] = series.combined_stream_digest()
        diverged[spec.algorithm] = series.diverged()
    outputs = ["series.csv"]
    write_series_csv(out_dir / "series.csv", [texts[alg] for alg in sorted(texts)])
    if len(specs) > 1:
        for alg, text in texts.items():
            name = f"series_{alg}.csv"
            write_series_csv(out_dir / name, [text])
            outputs.append(name)
    manifest = {
        "toolkit_version": __version__,
        "rng_algorithm": RNG_ALGORITHM,
        "seed_mixer": SEED_MIXER,
        "started_utc": started,
        "finished_utc": _utcnow(),
        "experiments": [spec_to_dict(s) for s in specs],
        "outputs": outputs,
        "stream_digests": digests,
        "diverged": diverged,
    }
    _atomic_write(out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# validation suites (cmd check)


def _check_gradient(seed: int, n: int) -> float:
    """Relative l2 error of ``n`` Monte-Carlo two-sample gradients' mean."""
    cfg = shared_confounder_config(4, 8, c=0.1, phi="identity")
    summary = summarize(cfg)
    theta = cfg.theta_star + np.array([1.0, -1.0, 2.0, 0.5])
    rng = np.random.Generator(np.random.PCG64(seed))
    _, x, x_p, y = sample_two_block(rng, cfg, n)
    resid = x @ theta - y
    mc_grad = (x_p * resid[:, None]).mean(axis=0)
    ref = grad_f(theta, summary)
    return float(np.linalg.norm(mc_grad - ref) / np.linalg.norm(ref))


def _check_sherman_morrison(seed: int) -> tuple[float, float]:
    """max |U A_U - I| and max |V A_V - I| after 1000 rows, each one call of the 2SLS
    window loop that every run steps, at B = 1; inf if the state breaks (ends NaN)."""
    cfg = endogenous_linear_config(8, 16, rho=4.0, sigma_eps=1.0)
    rng = np.random.Generator(np.random.PCG64(seed))
    z, x, y = sample_one_block(rng, cfg, 1000)
    lam = 0.1
    theta, gamma, u, v = est.initial_state(8, 16, lam=lam)
    state = (theta[None, None], gamma[None], u[None], v[None])
    window = est.Online2SLSRegressor._loop(state, [z], [x], None, [y], (False,))
    acc_u = lam * np.eye(8)
    acc_v = lam * np.eye(16)
    for t in range(1000):
        w = z[t] @ gamma  # the gamma before row t
        acc_u += np.outer(w, w)
        acc_v += np.outer(z[t], z[t])
        window.step(t, 1)
    if not all(np.isfinite(a).all() for a in state):
        return float("inf"), float("inf")
    return float(np.abs(u @ acc_u - np.eye(8)).max()), float(np.abs(v @ acc_v - np.eye(16)).max())


def _check_determinism() -> float:
    """1.0 if a lockstep run's trials differ in any bit from trials run alone."""
    cells = presets.build_preset("fig2", cell="dx1_dz1_rho1_sig0.5", trials=4, T=2000)
    spec = cells["dx1_dz1_rho1_sig0.5"][0]
    together = harness.run_experiment(spec).metrics
    alone = [harness.run_trial(spec, i).metrics for i in range(spec.trials)]
    same = all(np.concatenate([a[m] for a in alone]).tobytes() == v.tobytes() for m, v in together.items())
    return 0.0 if same else 1.0


def cmd_check() -> int:
    checks = [
        ("gradient_unbiasedness", lambda: _check_gradient(0xD1CE, 1_000_000), "relative l2 error", 1e-2),
        ("sherman_morrison", lambda: max(_check_sherman_morrison(0x5A)), "max |prod - I|", 1e-8),
        ("determinism", _check_determinism, "mismatch flag", 0.0),
    ]
    failed = None
    for name, fn, what, tol in checks:
        measured = fn()
        ok = measured <= tol
        print(f"{name}: {what} = {measured:.3g} (tolerance {tol:g}) {'PASS' if ok else 'FAIL'}")
        if not ok and failed is None:
            failed = name
    if failed is not None:
        print(f"first failing check: {failed}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# entry points


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ivstream", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"ivstream {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment or preset")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override the base seed")
    run_p.add_argument("--trials", type=int, default=None, help="override the trial count")
    run_p.add_argument("--iters", type=int, default=None, help="override the iteration count T")
    src = run_p.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="JSON experiment config")
    src.add_argument("--preset", choices=presets.PRESETS, help="named benchmark preset")
    run_p.add_argument("--cell", default=None, help="run only this cell of --preset")

    sub.add_parser("check", help="run the validation suites")
    return parser


def cmd_run(args) -> int:
    # A config is one cell. Every cell's specs are built before any cell runs, so a usage error writes nothing.
    out, overrides = Path(args.out), {"seed": args.seed, "trials": args.trials, "T": args.iters}
    if args.config is not None:
        if args.cell is not None:
            raise ConfigError(f"--cell {args.cell!r} selects a preset cell; it needs --preset, not --config")
        cells = {"": specs_from_config(_load_config(args.config), **overrides)}
    else:
        cells = presets.build_preset(args.preset, cell=args.cell, **overrides)
    for cell_id, specs in cells.items():
        run_specs_to_dir(specs, out if len(cells) == 1 else out / cell_id)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_check()
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError, ValueError, FloatingPointError, np.linalg.LinAlgError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
