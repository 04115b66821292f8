"""Seeded multi-trial experiment harness.

A trial streams T samples from its own generator, applies one algorithm's
update per iteration, and records metrics at a fixed checkpoint grid. An
experiment repeats the trial ``trials`` times with independent streams and
aggregates the per-checkpoint mean and standard deviation.

Reproducibility contract
------------------------
Trial i draws from ``PCG64(mix_seed(base_seed, i))`` where ``mix_seed`` is
the SplitMix64 finalizer over ``base_seed + GOLDEN * (i + 1)``: first its
held-out test set (when ``test_n > 0``), then its training stream in blocks
of 16 384 rows. The mixing function and generator are fixed, so any two runs
with the same base seed produce bitwise-identical streams regardless of how
trials are grouped. Aggregation reduces over trials in index order.

Lockstep groups
---------------
Trials share T, the schedules and the checkpoints, so the engine splits them
into balanced groups of at most :data:`GROUP_SIZE` and advances each group
with one batched kernel call per iteration
(:data:`ivstream.estimators.BATCH_KERNELS`) on stacked state. Each trial keeps
its own generator, stream digest and checkpoint metrics, and its iterates are
bitwise equal to a run of the 1-d kernel on its stream alone, so
:func:`run_trial` is the one-trial group. A group holds one sample block per
trial, which bounds its memory whatever the trial count or T. Groups run one
after another, each writing its checkpoints into its rows of one
(trials, checkpoints) array per metric. A trial that diverges is a recorded
result: from its first non-finite checkpoint on, its ``dist_sq`` and
``test_mse`` are ``inf``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import estimators as est
from . import metrics as met
from ._validation import as_float_matrix, as_float_vector, check_positive
from .dgp import DgpConfig, sample_one_block, sample_two_block
from .schedule import StepSchedule, steps

#: The step schedules each algorithm takes.
SCHEDULES = {
    "two_sample_sgd": ("alpha",),
    "two_stage_sgd": ("alpha", "beta"),
    "direct_sgd": ("alpha", "beta"),
    "online_2sls": (),
}
ALGORITHMS = tuple(SCHEDULES)

#: Algorithms that consume the two-sample oracle rather than one-sample data.
TWO_SAMPLE_ALGORITHMS = ("two_sample_sgd",)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
RNG_ALGORITHM = "pcg64"
SEED_MIXER = "splitmix64"

_SAMPLE_BLOCK = 16_384

#: Most trials advanced by one kernel call; a group holds one sample block
#: per trial, so this also caps the blocks held at once.
GROUP_SIZE = 4

#: Rows of a group's blocks gathered into stacked (rows, B, d) inputs at once.
_WINDOW = 256

#: The checkpoint metrics, in CSV order; the last two need ``test_n > 0``.
METRICS = ("dist_sq", "oracle_mse", "test_mse")


def mix_seed(base_seed: int, trial_index: int) -> int:
    """Derive trial i's seed: SplitMix64 finalizer of base_seed + GOLDEN*(i+1)."""
    x = (int(base_seed) + _GOLDEN * (int(trial_index) + 1)) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def log_checkpoints(T: int) -> list[int]:
    """Strictly increasing checkpoints from 50 log-spaced points in [1, T], including 1 and T."""
    if T < 1:
        raise ValueError("T must be >= 1")
    pts = np.unique(np.round(np.logspace(0.0, np.log10(T), 50)).astype(np.int64))
    pts = pts[(pts >= 1) & (pts <= T)]
    if pts[-1] != T:
        pts = np.append(pts, T)
    return [int(p) for p in pts]


def check_run(dgp: DgpConfig, T: int, trials: int, test_n: int, checkpoints, lam: float, theta0, gamma0) -> tuple:
    """Validated ``(checkpoints, theta0, gamma0)`` of a run of ``dgp``.

    These are the checks of :class:`ExperimentSpec` that need no schedule;
    each failure raises ``ValueError``.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if test_n < 0:
        raise ValueError("test_n must be >= 0")
    if checkpoints is None:
        checkpoints = tuple(log_checkpoints(T))
    else:
        checkpoints = tuple(int(c) for c in checkpoints)
        if any(c < 1 or c > T for c in checkpoints):
            raise ValueError("checkpoints must lie in [1, T]")
        if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
            raise ValueError("checkpoints must be strictly increasing")
    check_positive(lam, "lam")
    d_x, d_z = dgp.d_x, dgp.d_z
    return (
        checkpoints,
        None if theta0 is None else as_float_vector(theta0, d_x, "theta0"),
        None if gamma0 is None else as_float_matrix(gamma0, (d_z, d_x), "gamma0"),
    )


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    """Everything needed to reproduce one (DGP, algorithm, schedule) run."""

    dgp: DgpConfig
    algorithm: str
    T: int
    trials: int
    base_seed: int
    alpha: StepSchedule | None = None
    beta: StepSchedule | None = None
    lam: float = est.DEFAULT_RIDGE
    checkpoints: tuple[int, ...] | None = None
    test_n: int = 0
    theta0: np.ndarray | None = None
    gamma0: np.ndarray | None = None
    experiment_id: str = "experiment"

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        needed = SCHEDULES[self.algorithm]
        if any(getattr(self, which) is None for which in needed):
            raise ValueError(f"{self.algorithm} requires the schedules {' and '.join(needed)}")
        checked = check_run(self.dgp, self.T, self.trials, self.test_n, self.checkpoints,
                            self.lam, self.theta0, self.gamma0)
        for name, value in zip(("checkpoints", "theta0", "gamma0"), checked):
            object.__setattr__(self, name, value)


@dataclass(eq=False)
class MetricSeries:
    """Per-trial checkpoint metrics plus across-trial aggregates.

    ``metrics`` maps each recorded metric of :data:`METRICS` to a
    (trials, checkpoints) float64 array whose row i is trial i; ``oracle_mse``
    is the same in every column of a row.
    """

    spec: ExperimentSpec
    metrics: dict[str, np.ndarray]
    stream_digests: list[str]

    @property
    def iterations(self) -> np.ndarray:
        return np.array(self.spec.checkpoints, dtype=np.int64)

    def values(self, metric: str) -> np.ndarray:
        """(trials, checkpoints) array of one recorded metric."""
        return self.metrics[metric]

    def mean(self, metric: str) -> np.ndarray:
        return self.values(metric).mean(axis=0)

    def std(self, metric: str) -> np.ndarray:
        return self.values(metric).std(axis=0)

    def diverged(self) -> dict[int, int]:
        """First non-finite checkpoint iteration of each diverged trial, by row."""
        bad = np.isinf(self.metrics["dist_sq"])
        first = self.iterations[bad.argmax(axis=1)]
        return {int(i): int(first[i]) for i in np.flatnonzero(bad.any(axis=1))}

    def combined_stream_digest(self) -> str:
        h = hashlib.sha256()
        for d in self.stream_digests:
            h.update(bytes.fromhex(d))
        return h.hexdigest()


def trial_groups(trials: int) -> list[np.ndarray]:
    """Trial indices in ceil(trials / GROUP_SIZE) balanced lockstep groups."""
    return np.array_split(np.arange(trials), -(-trials // GROUP_SIZE))


def _initial_state(spec: ExperimentSpec, b: int) -> tuple[np.ndarray, ...]:
    d_x, d_z = spec.dgp.d_x, spec.dgp.d_z
    state = [
        np.zeros(d_x) if spec.theta0 is None else spec.theta0,
        np.zeros((d_z, d_x)) if spec.gamma0 is None else spec.gamma0,
    ]
    if spec.algorithm == "online_2sls":
        state += [np.eye(d_x) / spec.lam, np.eye(d_z) / spec.lam]
    return tuple(np.tile(a, (b,) + (1,) * a.ndim) for a in state)


@np.errstate(over="ignore", invalid="ignore")  # a diverging trial overflows
def _run_group(spec: ExperimentSpec, indices) -> MetricSeries:
    """Advance the trials ``indices`` in lockstep; one metric row per trial.

    Each trial's block is hashed as drawn, and the kernel's stacked inputs
    are gathered from the blocks ``_WINDOW`` rows at a time, so the group
    holds one block per trial plus a window.
    """
    cfg = spec.dgp
    theta_star = cfg.theta_star
    rngs = [np.random.Generator(np.random.PCG64(mix_seed(spec.base_seed, int(i)))) for i in indices]
    tests = [sample_one_block(rng, cfg, spec.test_n)[1:] for rng in rngs] if spec.test_n > 0 else []

    shape = (len(rngs), len(spec.checkpoints))
    metrics = {"dist_sq": np.empty(shape)}
    if tests:
        metrics["oracle_mse"] = np.array([[met.test_mse_arrays(theta_star, tx, ty)] * shape[1] for tx, ty in tests])
        metrics["test_mse"] = np.empty(shape)
    dist, test = metrics["dist_sq"], metrics.get("test_mse")

    kernel = est.BATCH_KERNELS[spec.algorithm]
    state = _initial_state(spec, len(rngs))
    two_sample = spec.algorithm in TWO_SAMPLE_ALGORITHMS
    sample = sample_two_block if two_sample else sample_one_block
    alphas = steps(spec.alpha, spec.T) if spec.alpha is not None else None
    betas = steps(spec.beta, spec.T) if spec.beta is not None else None

    digests = [hashlib.sha256() for _ in rngs]
    blocks: list[tuple] = []
    cps = (*spec.checkpoints, spec.T + 1)  # the sentinel is never reached
    cp_idx = 0
    t = start = end = 0
    while t < spec.T:
        if t == end:
            n_blk = min(_SAMPLE_BLOCK, spec.T - t)
            blocks.clear()
            for rng, digest in zip(rngs, digests):
                block = sample(rng, cfg, n_blk)
                for arr in block:
                    digest.update(arr)
                blocks.append(block if two_sample else (block[0], block[1], None, block[2]))
            start, end = t, t + n_blk
        stop = min(t + _WINDOW, end, cps[cp_idx])
        rows = slice(t - start, stop - start)
        z, x, xp, y = (
            repeat(None) if blocks[0][k] is None else np.stack([blk[k][rows] for blk in blocks], axis=1)
            for k in range(4)
        )
        a = repeat(None) if alphas is None else alphas[t:stop].tolist()
        b = repeat(None) if betas is None else betas[t:stop].tolist()
        for zi, xi, xpi, yi, ai, bi in zip(z, x, xp, y, a, b):
            state = kernel(state, zi, xi, xpi, yi, ai, bi)
        t = stop
        if t == cps[cp_idx]:
            # The arithmetic of metrics.dist_to_opt and metrics.test_mse_arrays,
            # one trial at a time, without their finiteness checks.
            theta = state[0]
            d = theta - theta_star
            for j in range(len(rngs)):
                dist[j, cp_idx] = d[j] @ d[j]
            for j, (tx, ty) in enumerate(tests):
                r = ty - tx @ theta[j]
                test[j, cp_idx] = r @ r / len(ty)
            cp_idx += 1
    # A trial's first non-finite checkpoint marks it and every later one inf.
    diverging = [v for m, v in metrics.items() if m != "oracle_mse"]
    bad = np.logical_or.accumulate(~np.isfinite(diverging).all(axis=0), axis=1)
    for v in diverging:
        v[bad] = np.inf
    return MetricSeries(spec=spec, metrics=metrics, stream_digests=[d.hexdigest() for d in digests])


def run_trial(spec: ExperimentSpec, trial_index: int) -> MetricSeries:
    """Run one seeded trial and return its one-row checkpoint metrics.

    The held-out test set (when ``test_n > 0``) is drawn first, then the
    training stream, all from the trial's own generator. The stream digest is
    a SHA-256 over the raw sample blocks in draw order. The result equals row
    ``trial_index`` of :func:`run_experiment`.
    """
    if not (0 <= trial_index < spec.trials):
        raise ValueError(f"trial_index must be in [0, {spec.trials})")
    return _run_group(spec, [trial_index])


def run_experiment(spec: ExperimentSpec) -> MetricSeries:
    """Run all trials, one lockstep group after another, and aggregate."""
    groups = [_run_group(spec, group) for group in trial_groups(spec.trials)]
    return MetricSeries(
        spec=spec,
        metrics={m: np.concatenate([g.metrics[m] for g in groups]) for m in groups[0].metrics},
        stream_digests=[d for g in groups for d in g.stream_digests],
    )


def fit_slope(iterations, values, tail_fraction: float) -> float:
    """Least-squares slope of log10(values) on log10(iterations) over the tail.

    ``tail_fraction`` selects the trailing fraction of checkpoints. Raises if
    the tail window holds fewer than 5 checkpoints or any non-positive value.
    """
    iterations = np.asarray(iterations, dtype=float)
    values = np.asarray(values, dtype=float)
    if iterations.shape != values.shape or iterations.ndim != 1:
        raise ValueError("iterations and values must be 1-d arrays of equal length")
    if not (0.0 < tail_fraction <= 1.0):
        raise ValueError("tail_fraction must be in (0, 1]")
    k = int(np.ceil(tail_fraction * len(values)))
    window_it = iterations[-k:]
    window_val = values[-k:]
    if len(window_val) < 5:
        raise ValueError(f"tail window has {len(window_val)} checkpoints; need >= 5")
    if np.any(window_val <= 0.0):
        raise ValueError("tail window contains non-positive values; slope undefined")
    coeffs = np.polyfit(np.log10(window_it), np.log10(window_val), 1)
    return float(coeffs[0])
