"""Benchmark of the ivstream toolkit.

Usage (from the repository root)::

    python3 ivbench/run.py --workload fig1_grid --seed 0 --seconds 20 --trace 0
    python3 ivbench/run.py --workload all

Each workload repeats one *pass* until ``--seconds`` have elapsed (at least
one pass). A pass is a set-up followed by a run:

``fig1_grid``
    set-up: ``presets.build_preset("fig1", cell=c, ...)`` for all 8 cells
    (Monte-Carlo schedule constants); run: ``cli.run_specs_to_dir`` for each
    cell that built. Exercises ``oracle.theory_constants`` and the
    two-sample kernel at d_x 4 and 8.
``fig2_grid``
    the ``fig2`` preset reduced to one cell per cost class
    (``dx1_dz1_rho1_sig0.5`` and ``dx8_dz16_rho4_sig1``) with all three
    algorithms: the one-sample kernels, test-MSE scoring at every checkpoint
    and four CSVs per cell. The workload a trial-batched engine should speed up.
``stream_fit``
    set-up: draw one ``endogenous_linear`` stream at dx1_dz1 and one at
    dx8_dz16; run: ``.fit`` of each of the four ``*Regressor`` classes on
    each stream. The library path (one stream, per-row validation and
    ``schedule.step``), which bypasses harness, dgp, cli and oracle.

Seed 0 means each preset's own base seed, so ``ivstream run --preset fig1
--cell <c> --trials 10 --iters 5000`` writes the same ``series.csv``.

Times are in normalised seconds: wall-clock program time scaled by the
machine's speed, sampled while the program runs (``speed.py``), because the
speed of a shared virtual machine swings by up to a factor of two.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before it
form the report: run context, failures, ``fail_frac`` and ``src_sloc``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from speed import SpeedProbe, Span
from tracer import Tracer, installed

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("fig1_grid", "fig2_grid", "stream_fit")

FIG1_T, FIG1_TRIALS = 5_000, 10
FIG2_T, FIG2_TRIALS = 5_000, 6
FIG2_CELLS = ("dx1_dz1_rho1_sig0.5", "dx8_dz16_rho4_sig1")
STREAM_ROWS = 10_000
STREAM_DIMS = ((1, 1), (8, 16))
MICRO_ROWS = 4_000
CSV_HEADER = "experiment_id,algorithm,trial,iteration,metric,value"

#: SHA-256 of each cell's ``series.csv`` at seed 0 (the byte-identity
#: contract), and of the fitted stream_fit parameters at seed 0.
EXPECTED_SHA256 = {
    "fig1_grid": {
        "dx4_dz8_c0.1_phi_id": "27159a84f6755b7da601cdbfde7c150ba474a1596746be32725aad1efea5a97b",
        "dx4_dz8_c1.0_phi_id": "ca307e75d05c87d7ce5f37704c4d40c090febe869c6eea12b19f2c41832eed1b",
        "dx8_dz16_c0.1_phi_id": "038b626920fabcb6246a49ae513a08521638df38c225aa027bf35289b43d87ce",
        "dx8_dz16_c1.0_phi_id": "88c1d7d154cb21f3c7a34a9408e560e958a0e926001c17e1a252614ea81c7c89",
    },
    "fig2_grid": {
        "dx1_dz1_rho1_sig0.5": "15a1056d206a1bb224c7f4c8b09e8c0738d91176a7dd0f75a90cf84743c00e91",
        "dx8_dz16_rho4_sig1": "58b6157c0fce0dd3137c33bd96f2e1623bec4e1201e1d96fcda9a4af50712725",
    },
    "stream_fit": {"theta": "012f80964c25dc5214151c2f4ffb89052999bf64518e40d002d8b07c7bca1898"},
}


def fail(msg: str) -> None:
    print(f"ivbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import ivstream from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ivstream" / "__init__.py").is_file():
        fail(f"no ivstream sources under {src}")
    sys.path.insert(0, str(src))
    import ivstream
    import ivstream.cli
    import ivstream.presets

    if Path(ivstream.__file__).resolve().parent != (src / "ivstream").resolve():
        fail(f"imported ivstream from {ivstream.__file__}, not from {src}")
    return ivstream


@dataclass
class Pass:
    """One set-up plus run of a workload."""

    setup: Span = None
    run: Span = None
    steps: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)


def dims_tag(d_x: int, d_z: int) -> str:
    return f"dx{d_x}_dz{d_z}"


# ---------------------------------------------------------------------------
# correctness checks


def check_csv(path: Path, specs) -> list[str]:
    """Header, row count (trials x checkpoints x metrics) and finiteness."""
    lines = path.read_text(encoding="utf-8").splitlines()
    problems = []
    if not lines or lines[0] != CSV_HEADER:
        return [f"{path.name}: bad header"]
    expected = sum(s.trials * len(s.checkpoints) * (3 if s.test_n else 1) for s in specs)
    if len(lines) - 1 != expected:
        problems.append(f"{path.name}: {len(lines) - 1} rows, expected {expected}")
    if not all(math.isfinite(float(line.rsplit(",", 1)[1])) for line in lines[1:]):
        problems.append(f"{path.name}: non-finite values")
    return problems


def check_cell(cell_dir: Path, cell: str, specs) -> list[str]:
    problems = check_csv(cell_dir / "series.csv", specs)
    if len(specs) > 1:
        for s in specs:
            problems += check_csv(cell_dir / f"series_{s.algorithm}.csv", [s])
        manifest = json.loads((cell_dir / "manifest.json").read_text(encoding="utf-8"))
        digests = manifest["stream_digests"]
        if len(digests) != len(specs) or len(set(digests.values())) != 1:
            problems.append(f"{cell}: algorithms saw different streams {digests}")
    return [f"{cell}/{p}" for p in problems]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# workloads


def grid_pass(iv, preset: str, cells, algorithms: int, T: int, trials: int, seed: int,
              out: Path, tracer: Tracer, probe: SpeedProbe) -> Pass:
    """``cmd_run`` on each cell: build_preset, then run_specs_to_dir."""
    p = Pass(attempted=len(cells) * algorithms)
    built, done = {}, []

    def setup():
        for cell in cells:
            try:
                built.update(iv.presets.build_preset(preset, cell=cell, seed=seed or None, trials=trials, T=T))
            except Exception as e:  # a cell that cannot be built is a failed operation
                p.failures += [f"{cell} build: {type(e).__name__}: {e}"] * algorithms

    def run():
        for cell, specs in built.items():
            tracer.tag = dims_tag(specs[0].dgp.d_x, specs[0].dgp.d_z)
            try:
                iv.cli.run_specs_to_dir(specs, out / cell)
            except Exception as e:  # e.g. a diverging trial: nothing of the cell is written
                p.failures += [f"{cell} run: {type(e).__name__}: {e}"] * len(specs)
            else:
                done.append(cell)

    tracer.phase = "setup"
    p.setup = probe.time(setup)
    tracer.phase = "run"
    p.run = probe.time(run)

    for cell in done:
        specs = built[cell]
        p.steps += sum(s.trials * s.T for s in specs)
        p.problems += check_cell(out / cell, cell, specs)
        p.digests[cell] = sha256(out / cell / "series.csv")
    return p


def fig1_pass(iv, seed, out, tracer, probe):
    return grid_pass(iv, "fig1", iv.presets.preset_cells("fig1"), 1, FIG1_T, FIG1_TRIALS, seed, out, tracer, probe)


def fig2_pass(iv, seed, out, tracer, probe):
    return grid_pass(iv, "fig2", FIG2_CELLS, 3, FIG2_T, FIG2_TRIALS, seed, out, tracer, probe)


def make_streams(iv, seed: int, n: int):
    """One endogenous_linear stream (Z, X, X', Y) per size in STREAM_DIMS."""
    streams = {}
    for d_x, d_z in STREAM_DIMS:
        cfg = iv.endogenous_linear_config(d_x, d_z, rho=1.0, sigma_eps=0.5)
        rng = np.random.default_rng((seed, d_x, d_z))
        streams[dims_tag(d_x, d_z)] = iv.dgp.sample_two_block(rng, cfg, n)
    return streams


def regressors(iv, d_x: int, d_z: int):
    alpha = iv.Polynomial(0.9 / (d_x + 2.0), 0.95)
    beta = iv.Polynomial(1.5 / (d_z + 2.0), 0.95)
    return (
        iv.TwoSampleSGDRegressor(alpha=alpha),
        iv.TwoStageSGDRegressor(alpha=alpha, beta=beta),
        iv.DirectSGDRegressor(alpha=alpha, beta=beta),
        iv.Online2SLSRegressor(lam=0.1),
    )


def stream_pass(iv, seed, out, tracer, probe):
    """``.fit`` of every regressor on one pre-drawn stream per size."""
    p = Pass(attempted=len(STREAM_DIMS) * 4)
    streams, fitted = {}, []

    def setup():
        streams.update(make_streams(iv, seed, STREAM_ROWS))

    def run():
        for (d_x, d_z), (z, x, x_p, y) in zip(STREAM_DIMS, streams.values()):
            tracer.tag = dims_tag(d_x, d_z)
            for reg in regressors(iv, d_x, d_z):
                try:
                    if isinstance(reg, iv.TwoSampleSGDRegressor):
                        reg.fit(z, x, y, x_p)
                    else:
                        reg.fit(z, x, y)
                except Exception as e:
                    p.failures.append(f"{tracer.tag} {type(reg).__name__}: {type(e).__name__}: {e}")
                else:
                    fitted.append((tracer.tag, reg, z, x))
                    p.steps += len(y)

    tracer.phase = "setup"
    p.setup = probe.time(setup)
    tracer.phase = "run"
    p.run = probe.time(run)

    h = hashlib.sha256()
    for tag, reg, z, x in fitted:
        name = f"{tag} {type(reg).__name__}"
        h.update(reg.theta_.tobytes())
        if reg.n_iter_ != len(x) or not np.all(np.isfinite(reg.theta_)):
            p.problems.append(f"{name}: n_iter_={reg.n_iter_} or non-finite theta_")
        if isinstance(reg, iv.Online2SLSRegressor):
            ridge = np.linalg.solve(reg.lam * np.eye(z.shape[1]) + z.T @ z, z.T @ x)
            dev = float(np.abs(reg.gamma_ - ridge).max())
            if not dev <= 1e-8:
                p.problems.append(f"{name}: gamma_ differs from the ridge first stage by {dev:.3g}")
    if len(fitted) == p.attempted:
        p.digests["theta"] = h.hexdigest()
    return p


PASSES = {"fig1_grid": fig1_pass, "fig2_grid": fig2_pass, "stream_fit": stream_pass}


# ---------------------------------------------------------------------------
# per-layer metrics


KERNELS = ("two_sample_update", "two_stage_update", "direct_residual_update", "online_2sls_update")
#: (kernel, size) pairs some workload runs: fig1 runs the two-sample kernel at
#: dx4_dz8 and dx8_dz16, fig2 and stream_fit run every kernel at dx1_dz1 and
#: dx8_dz16.
KERNEL_SIZES = [(k, d) for k in KERNELS for d in ("dx1_dz1", "dx8_dz16")] + [("two_sample_update", "dx4_dz8")]

RUN_LAYERS = (  # (traced name, work stat name or None, report calls)
    ("validation.as_float_vector", None, True),
    ("schedule.step", None, True),
    ("dgp.sample_one_block", "rows", False),
    ("dgp.sample_two_block", "rows", False),
    ("dgp.test_set", "rows", False),
    ("metrics.dist_to_opt", None, True),
    ("metrics.test_mse_arrays", None, True),
    ("metrics.stack_test_set", None, True),
    ("cli.series_rows", "rows", False),
    ("cli.write_series_csv", "bytes", False),
    ("cli.run_specs_to_dir", "bytes", False),
)
SETUP_LAYERS = ("oracle.theory_constants", "oracle.mc_moments", "oracle.summarize")


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass averages of the traced statistics."""
    m = {}

    def put(name, total, unit):
        m[name] = {"value": total / passes, "unit": unit}

    for k, d in KERNEL_SIZES:
        calls, self_s, _, _ = tracer.get("run", f"estimators.{k}.{d}")
        put(f"estimators.{k}.{d}.calls", calls, "count")
        put(f"estimators.{k}.{d}.self_s", self_s, "s")
        m[f"estimators.{k}.{d}.us_per_call"] = {"value": 1e6 * self_s / calls if calls else 0.0, "unit": "us"}
    for name, work, calls_too in RUN_LAYERS:
        calls, self_s, amount, _ = tracer.get("run", name)
        if calls_too:
            put(f"{name}.calls", calls, "count")
        if work:
            put(f"{name}.{work}", amount, "count" if work == "rows" else "B")
        put(f"{name}.self_s", self_s, "s")
    _, self_s, trials, _ = tracer.get("run", "harness.run_experiment")
    put("harness.run_experiment.self_s", self_s, "s")
    put("harness.trials", trials, "count")
    for name in SETUP_LAYERS:
        calls, self_s, _, _ = tracer.get("setup", name)
        put(f"{name}.calls", calls, "count")
        put(f"{name}.self_s", self_s, "s")
    peak = tracer.get("setup", "oracle.theory_constants")[3]
    m["oracle.theory_constants.peak_alloc_mb"] = {"value": peak / 2**20, "unit": "MB"}
    put("presets.build_preset.self_s", tracer.get("setup", "presets.build_preset")[1], "s")
    return m


def _kernel_loops(est, z, x, x_p, y, d_x, d_z):
    """One chained pass of each kernel over the rows, as the harness steps."""
    a, b = 0.9 / (d_x + 2.0) / len(y), 1.5 / (d_z + 2.0) / len(y)
    rows = range(len(y))

    def two_sample():
        theta = np.zeros(d_x)
        for i in rows:
            theta = est.two_sample_update(theta, x[i], x_p[i], y[i], a)

    def two_stage():
        theta, gamma = np.zeros(d_x), np.zeros((d_z, d_x))
        for i in rows:
            theta, gamma = est.two_stage_update(theta, gamma, z[i], x[i], y[i], a, b)

    def direct():
        theta, gamma = np.zeros(d_x), np.zeros((d_z, d_x))
        for i in rows:
            theta, gamma = est.direct_residual_update(theta, gamma, z[i], x[i], y[i], a, b)

    def online_2sls():
        theta, gamma, u, v = np.zeros(d_x), np.zeros((d_z, d_x)), np.eye(d_x) / 0.1, np.eye(d_z) / 0.1
        for i in rows:
            theta, gamma, u, v = est.online_2sls_update(theta, gamma, u, v, z[i], x[i], y[i])

    return dict(zip(KERNELS, (two_sample, two_stage, direct, online_2sls)))


def kernel_microbench(iv, seed: int, probe: SpeedProbe, repeats: int = 5) -> dict:
    """Normalised us per direct kernel call on pre-drawn rows, median of ``repeats``."""
    m = {}
    for (d_x, d_z), (z, x, x_p, y) in zip(STREAM_DIMS, make_streams(iv, seed, MICRO_ROWS).values()):
        for k, loop in _kernel_loops(iv.estimators, z, x, x_p, y, d_x, d_z).items():
            times = [probe.time(loop).norm_s for _ in range(repeats)]
            us = 1e6 * statistics.median(times) / len(y)
            m[f"estimators.{k}.{dims_tag(d_x, d_z)}.us_per_step"] = {"value": us, "unit": "us"}
    return m


# ---------------------------------------------------------------------------
# run context


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        libs = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
                if "openblas" in line.lower() and line.split()[-1].startswith("/")}
        for lib in sorted(libs):
            dll = ctypes.CDLL(lib)
            for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
                if hasattr(dll, fn):
                    return int(getattr(dll, fn)())
    except OSError:
        pass
    return None


def commit_sha():
    """HEAD of the checkout's git directory, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_files():
    return sorted((ROOT / "src" / "ivstream").rglob("*.py"))


def src_sloc() -> int:
    """Non-blank lines under src/ivstream that are not ``#`` comments."""
    return sum(
        1
        for path in source_files()
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.strip().startswith("#")
    )


def run_context() -> dict:
    h = hashlib.sha256()
    for path in source_files():
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "IVSTREAM_THREADS")},
        "commit": commit_sha(),
        "src_sha256": h.hexdigest(),
    }


# ---------------------------------------------------------------------------
# running a workload


def rate(p: Pass) -> float:
    """Steps per normalised second of run time (see ``speed.py``)."""
    return p.steps / p.run.norm_s


def wall_rate(p: Pass) -> float:
    return p.steps / p.run.wall_s


def run_workload(iv, name: str, seed: int, seconds: float, trace: bool) -> int:
    context = run_context()
    context["loadavg_start"] = os.getloadavg()
    run_pass = PASSES[name]
    probe = SpeedProbe()
    tracer = Tracer(probe.clock)
    passes: list[tuple[bool, Pass]] = []
    workdir = Path(tempfile.mkdtemp(prefix=f".runs-{name}-", dir=BENCH_DIR))
    try:
        start = perf_counter()
        # With tracing, passes alternate untraced/traced, so the overhead is
        # measured under the same machine load as the per-layer numbers.
        while not passes or perf_counter() - start < seconds or (trace and len(passes) < 2):
            traced = trace and len(passes) % 2 == 1
            out = workdir / f"pass{len(passes)}"
            if traced:
                with installed(tracer):
                    p = run_pass(iv, seed, out, tracer, probe)
            else:
                p = run_pass(iv, seed, out, Tracer(), probe)
            shutil.rmtree(out, ignore_errors=True)
            passes.append((traced, p))
        elapsed = perf_counter() - start
        micro = kernel_microbench(iv, seed, probe) if trace else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    context["loadavg_end"] = os.getloadavg()

    every = [p for _, p in passes]
    plain = [p for t, p in passes if not t]
    attempted = sum(p.attempted for p in every)
    failures = [f for p in every for f in p.failures]
    problems = list(dict.fromkeys(q for p in every for q in p.problems))
    if any(p.digests != every[0].digests for p in every):
        problems.append("outputs differ between passes of the same seed")
    if seed == 0:
        got = every[0].digests
        for key, digest in EXPECTED_SHA256[name].items():
            if key in got and got[key] != digest:
                problems.append(f"{key}: SHA-256 {got[key]} differs from the recorded {digest}")

    if trace:
        layered = [p for t, p in passes if t]
        base, slow = statistics.median(map(rate, plain)), statistics.median(map(rate, layered))
        metrics = layer_metrics(tracer, len(layered))
        metrics.update(micro)
        metrics["trace.untraced_steps_per_s"] = {"value": base, "unit": "1/s"}
        metrics["trace.traced_steps_per_s"] = {"value": slow, "unit": "1/s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (base - slow) / base, "unit": "%"}
    else:
        metrics = {
            "steps_per_s": {"value": statistics.median(map(rate, plain)), "unit": "1/s"},
            "setup_s": {"value": statistics.median(p.setup.norm_s for p in plain), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }

    print(f"ivbench workload={name} seed={seed} trace={int(trace)} passes={len(passes)} "
          f"measured_s={elapsed:.2f}")
    print("context " + json.dumps(context, sort_keys=True))
    for msg in dict.fromkeys(failures):
        print(f"failed x{failures.count(msg)}: {msg}")
    for q in problems:
        print(f"check failed: {q}")
    print(f"fail_frac {len(failures) / attempted:.4g} ({len(failures)} of {attempted} operations failed)")
    print(f"src_sloc {src_sloc()} (informational, not gated)")
    traced_passes = [p for t, p in passes if t]
    for label, rates in (("untraced", list(map(rate, plain))), ("traced", list(map(rate, traced_passes))),
                         ("untraced wall-clock", list(map(wall_rate, plain)))):
        if rates:
            print(f"{label} pass steps/s: n={len(rates)} median={statistics.median(rates):.6g} "
                  f"min={min(rates):.6g} max={max(rates):.6g}")
    speeds = [p.run.norm_s / p.run.wall_s for p in every]
    print(f"machine speed (normalised s per wall s) over the run phases: median={statistics.median(speeds):.4g} "
          f"min={min(speeds):.4g} max={max(speeds):.4g}")
    print(f"setup_s wall-clock median {statistics.median(p.setup.wall_s for p in plain):.6g} s")
    for key, digest in every[0].digests.items():
        print(f"sha256 {key} {digest}")
    for key, m in metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process (peak RSS is per process), then a summary."""
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        summary[name] = json.loads(proc.stdout.splitlines()[-1])
    print("\nworkload     " + "  ".join(f"{k:>18}" for k in ("fail_frac", *summary[WORKLOADS[0]]["metrics"])))
    for name, r in summary.items():
        cells = [f"{r['failed'] / r['attempted']:>18.4g}"]
        cells += [f"{m['value']:>14.6g} {m['unit']:<3}" for m in r["metrics"].values()]
        print(f"{name:<12} " + "  ".join(cells) + ("" if r["correct"] else "  INCORRECT"))
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    iv = import_program()
    return run_workload(iv, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
