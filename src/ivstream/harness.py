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
after another.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
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


def mix_seed(base_seed: int, trial_index: int) -> int:
    """Derive trial i's seed: SplitMix64 finalizer of base_seed + GOLDEN*(i+1)."""
    x = (int(base_seed) + _GOLDEN * (int(trial_index) + 1)) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def log_checkpoints(T: int, n: int = 50) -> list[int]:
    """Strictly increasing log-spaced iteration checkpoints including 1 and T."""
    if T < 1:
        raise ValueError("T must be >= 1")
    pts = np.unique(np.round(np.logspace(0.0, np.log10(T), n)).astype(np.int64))
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
class TrialResult:
    points: list[met.MetricPoint]
    stream_digest: str


@dataclass(eq=False)
class MetricSeries:
    """Per-trial checkpoint series plus across-trial aggregates."""

    spec: ExperimentSpec
    trials: list[list[met.MetricPoint]]
    stream_digests: list[str] = field(default_factory=list)

    @property
    def iterations(self) -> np.ndarray:
        return np.array([p.iteration for p in self.trials[0]], dtype=np.int64)

    def values(self, metric: str) -> np.ndarray:
        """(trials, checkpoints) array of one metric; NaN where absent."""
        out = np.full((len(self.trials), len(self.trials[0])), np.nan)
        for i, trial in enumerate(self.trials):
            for j, p in enumerate(trial):
                v = getattr(p, metric)
                if v is not None:
                    out[i, j] = v
        return out

    def mean(self, metric: str) -> np.ndarray:
        return self.values(metric).mean(axis=0)

    def std(self, metric: str) -> np.ndarray:
        return self.values(metric).std(axis=0)

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


def _run_group(spec: ExperimentSpec, indices) -> list[TrialResult]:
    """Advance the trials ``indices`` in lockstep; one result per trial.

    Each trial's block is hashed as drawn, and the kernel's stacked inputs
    are gathered from the blocks ``_WINDOW`` rows at a time, so the group
    holds one block per trial plus a window.
    """
    cfg = spec.dgp
    theta_star = cfg.theta_star
    rngs = [np.random.Generator(np.random.PCG64(mix_seed(spec.base_seed, int(i)))) for i in indices]
    tests = [sample_one_block(rng, cfg, spec.test_n)[1:] for rng in rngs] if spec.test_n > 0 else []
    oracle_mse = [met.test_mse_arrays(theta_star, tx, ty) for tx, ty in tests]

    kernel = est.BATCH_KERNELS[spec.algorithm]
    state = _initial_state(spec, len(rngs))
    two_sample = spec.algorithm in TWO_SAMPLE_ALGORITHMS
    sample = sample_two_block if two_sample else sample_one_block
    alphas = steps(spec.alpha, spec.T) if spec.alpha is not None else None
    betas = steps(spec.beta, spec.T) if spec.beta is not None else None

    digests = [hashlib.sha256() for _ in rngs]
    points: list[list[met.MetricPoint]] = [[] for _ in rngs]
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
            cp_idx += 1
            theta = state[0]
            for j, trial in enumerate(points):
                trial.append(
                    met.MetricPoint(
                        iteration=t,
                        dist_sq=met.dist_to_opt(theta[j], theta_star),
                        test_mse=met.test_mse_arrays(theta[j], *tests[j]) if tests else None,
                        oracle_mse=oracle_mse[j] if tests else None,
                    )
                )
    return [TrialResult(points=p, stream_digest=d.hexdigest()) for p, d in zip(points, digests)]


def run_trial(spec: ExperimentSpec, trial_index: int) -> TrialResult:
    """Run one seeded trial and return its checkpoint metrics.

    The held-out test set (when ``test_n > 0``) is drawn first, then the
    training stream, all from the trial's own generator. The stream digest is
    a SHA-256 over the raw sample blocks in draw order. The result equals
    trial ``trial_index`` of :func:`run_experiment`.
    """
    if not (0 <= trial_index < spec.trials):
        raise ValueError(f"trial_index must be in [0, {spec.trials})")
    return _run_group(spec, [trial_index])[0]


def run_experiment(spec: ExperimentSpec) -> MetricSeries:
    """Run all trials, one lockstep group after another, and aggregate."""
    results = [r for group in trial_groups(spec.trials) for r in _run_group(spec, group)]
    return MetricSeries(
        spec=spec,
        trials=[r.points for r in results],
        stream_digests=[r.stream_digest for r in results],
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
