"""Seeded multi-trial experiment harness.

A trial streams T samples from its own generator, applies one algorithm's
update per iteration, and records metrics at a fixed checkpoint grid. An
experiment repeats the trial ``trials`` times with independent streams and
keeps every trial's row; :meth:`MetricSeries.mean` averages them.

Reproducibility contract
------------------------
Trial i draws from ``PCG64(mix_seed(base_seed, i))`` where ``mix_seed`` is the
SplitMix64 finalizer over ``base_seed + GOLDEN * (i + 1)``: first its held-out
test set (when ``test_n > 0``), then its training stream in blocks of 16 384
rows. The mixing function and generator are fixed, so any two runs with the
same base seed produce bitwise-identical streams regardless of how trials are
grouped. Aggregation reduces over trials in index order. A trial's stream
digest hashes the DGP, the blocks' shapes and the PCG64 state and increment
after each block, read from ``bit_generator.state``.

Lockstep groups
---------------
Trials share T, the schedules and the checkpoints, so the engine splits them
into balanced groups and advances each group on stacked state with one call
of a window loop (:mod:`ivstream.estimators`) per window, from one checkpoint
or block end to the next. Every block of a group is drawn into the same
arrays of the pass's one buffer, so each lane binds its loop once per group,
to a table of those arrays' addresses and to the stacked state, and never
again (:class:`_Lane`); for each sample block it only computes the block's
steps, so a window call passes only integers and addresses read once. The
loop steps all the group's trials on each row before the next, in SIMD lanes
at d_x = d_z = 1, where a trial's row costs a few nanoseconds; streaming
2SLS at d > 1 steps one trial through the window after another instead.
Either order gives each trial the same bits. A checkpoint's
metrics are one call of the compiled ``checkpoint_metrics`` per lane, bound
like the loop to tables of the held-out sets and of the metric rows, which it
writes in place, its sums in the loops' order (numpy's vecdot and matvec, bit
for bit, where OpenBLAS runs its SkylakeX kernels); ``oracle_mse`` is that
call on theta_star. A trial's iterates are bitwise equal to a run of it alone
on its stream, so :func:`run_trial` is a pass whose one group is that trial. A pass allocates one buffer, which holds
a sample block of each trial of its largest group (:func:`_pass_blocks`), and
draws every block of every group into it in place, so no block costs fresh
pages (a freed array's pages, once the allocator returns them to the system,
fault again when the next array touches them). :func:`trial_groups` sizes the
groups by a block's bytes, so the samples held do not grow with the trial
count or T. A trial that diverges is a recorded result: from its first
non-finite checkpoint on, its ``dist_sq`` and ``test_mse`` are ``inf``, and
a lane stops once every trial of every spec in it has diverged.

One pass per shared stream
--------------------------
The algorithms of one config that read the same oracle read the same streams:
the same :class:`~ivstream.dgp.DgpConfig` object, base seed, T, trials,
``test_n``, checkpoints and oracle kind. :func:`run_experiments` runs such
specs in one pass, so each trial's held-out set, ``oracle_mse``, blocks and
stream digest are made once. Within a pass, the specs step in lanes, one loop
call and one metrics call per lane and window or checkpoint, each algorithm's
facts read from :data:`ivstream.estimators.REGRESSORS`. A lane stacks its S
specs' thetas as (S, B, d_x) on one gamma. The two-timescale specs
(``two_stage_sgd`` and ``direct_sgd``) with equal alpha, beta and gamma0 share
a lane, stepped by one :func:`~ivstream.estimators.two_timescale_window` call.
This is exact because their gamma recursions read the same rows with the same
steps from the same start and never read theta. Every other spec has a lane of
its own (S = 1). Each spec's metrics are those of its own theta; a diverged
spec steps on beside a partner that has not, its later checkpoints ``inf``.
Specs that do not share a stream run in separate passes; :func:`run_experiment`
is the one-spec case.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import _native
from . import estimators as est
from ._validation import check_integer, check_positive
from .dgp import DgpConfig, sample_one_block, sample_two_block
from .schedule import StepSchedule, steps

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
RNG_ALGORITHM = "pcg64"
SEED_MIXER = "splitmix64"

_SAMPLE_BLOCK = 16_384

#: Most trials advanced by one kernel call, whatever the size of their blocks.
GROUP_SIZE = 64

#: Bytes of sample blocks a lockstep group may hold at once (one per trial); a pass's one buffer holds
#: those of its largest group, plus a shared Z for the two-sample oracle.
_GROUP_BYTES = 32 << 20

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


def check_run(dgp: DgpConfig, T: int, trials: int, test_n: int, checkpoints, lam: float, theta0, gamma0,
              experiment_id: str) -> tuple:
    """Validated ``(checkpoints, theta0, gamma0)`` of a run of ``dgp``.

    These are the checks of :class:`ExperimentSpec` that need no algorithm;
    each failure raises ``ValueError``. A spec built directly runs them on
    construction; :func:`ivstream.presets.specs_from_config` runs them once per
    config and builds each algorithm's spec from their result.
    """
    # An id starts every CSV row, so it must not split a field or a line.
    if not isinstance(experiment_id, str) or any(c in experiment_id for c in ',"\r\n'):
        raise ValueError(f"experiment_id must be a string without commas, quotes or line breaks, got {experiment_id!r}")
    for name, value, least in (("T", T, 1), ("trials", trials, 1), ("test_n", test_n, 0)):
        if check_integer(value, name) < least:
            raise ValueError(f"{name} must be >= {least}")
    if checkpoints is None:
        checkpoints = tuple(log_checkpoints(T))
    else:
        try:
            checkpoints = tuple(checkpoints)
        except TypeError:  # not iterable
            raise ValueError(f"checkpoints must be a sequence of integers, got {checkpoints!r}") from None
        checkpoints = tuple(check_integer(c, "checkpoints") for c in checkpoints)
        if not checkpoints:
            raise ValueError("checkpoints must be non-empty")
        if any(c < 1 or c > T for c in checkpoints):
            raise ValueError("checkpoints must lie in [1, T]")
        if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
            raise ValueError("checkpoints must be strictly increasing")
    check_positive(lam, "lam")
    theta, gamma = est.initial_state(dgp.d_x, dgp.d_z, theta0, gamma0)
    return checkpoints, None if theta0 is None else theta, None if gamma0 is None else gamma


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    """Everything needed to reproduce one (DGP, algorithm, schedule) run; a real step is a ``Constant``,
    a step the algorithm does not read is rejected, ``lam`` is kept as a Python float and ``T``,
    ``trials``, ``base_seed`` and ``test_n`` as Python ints.

    Construction runs every check, each failure a ``ValueError``: the algorithm's (its name, the schedules
    it reads or refuses, the integer fields), then :func:`check_run`'s on the run fields. A config's specs
    (:func:`ivstream.presets.specs_from_config`) share one ``check_run`` and run only the algorithm's.
    """

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
        self._check(None)

    @classmethod
    def _of_run(cls, run: tuple, **fields) -> ExperimentSpec:
        """A spec of ``fields`` whose ``checkpoints``, ``theta0`` and ``gamma0`` are ``run``, :func:`check_run`'s
        result on its run fields, so only the algorithm's checks run."""
        spec = cls.__new__(cls)
        for f in dataclasses.fields(cls):
            object.__setattr__(spec, f.name, fields.get(f.name, f.default))
        spec._check(run)
        return spec

    def _check(self, run: tuple | None) -> None:
        """The algorithm's checks: its name, the schedules it reads or refuses and the integer fields. The run
        fields take ``run``, :func:`check_run`'s result on them, or are checked here when it is None."""
        if self.algorithm not in est.REGRESSORS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {tuple(est.REGRESSORS)}")
        read = est.REGRESSORS[self.algorithm]._schedules
        for which in ("alpha", "beta"):
            if which in read:
                object.__setattr__(self, which, est._as_schedule(getattr(self, which), which))
            elif getattr(self, which) is not None:  # it would never be checked or stepped
                raise ValueError(f"{which} is given, but {self.algorithm} does not read it")
        if run is None:
            run = check_run(self.dgp, self.T, self.trials, self.test_n, self.checkpoints,
                            self.lam, self.theta0, self.gamma0, self.experiment_id)
        for name, value in zip(("checkpoints", "theta0", "gamma0"), run):
            object.__setattr__(self, name, value)
        for name in ("T", "trials", "base_seed", "test_n"):
            object.__setattr__(self, name, check_integer(getattr(self, name), name))
        object.__setattr__(self, "lam", float(self.lam))


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

    def mean(self, metric: str) -> np.ndarray:
        """Across-trial mean of one recorded metric at each checkpoint."""
        return self.metrics[metric].mean(axis=0)

    def diverged(self) -> dict[int, int]:
        """First non-finite checkpoint iteration of each diverged trial, by row."""
        bad = np.isinf(self.metrics["dist_sq"])
        first = self.iterations[bad.argmax(axis=1)]
        return {int(i): int(first[i]) for i in np.flatnonzero(bad.any(axis=1))}

    def combined_stream_digest(self) -> str:
        return hashlib.sha256(b"".join(bytes.fromhex(d) for d in self.stream_digests)).hexdigest()


def trial_groups(spec: ExperimentSpec) -> list[np.ndarray]:
    """Trial indices in balanced lockstep groups, sized by the bytes of a sample block.

    A group takes as many trials as their blocks fit in ``_GROUP_BYTES``, at
    least one and at most :data:`GROUP_SIZE`. A block's row holds X, X' and Y
    for the two-sample oracle and Z, X and Y otherwise (:func:`_kept_shapes`).
    """
    block_bytes = 8 * sum(map(math.prod, _kept_shapes(spec)))
    size = min(GROUP_SIZE, max(1, _GROUP_BYTES // block_bytes))
    return np.array_split(np.arange(spec.trials), -(-spec.trials // size))


def _kept_shapes(spec: ExperimentSpec) -> list[tuple]:
    """The shapes of the fields of a trial's sample block that the loops read: X, X' and Y for the
    two-sample oracle, whose kernel reads no Z, and Z, X and Y otherwise."""
    d_x, d_z, n = spec.dgp.d_x, spec.dgp.d_z, min(_SAMPLE_BLOCK, spec.T)
    return [(n, d_x), (n, d_x), (n,)] if est.REGRESSORS[spec.algorithm]._reads_x_prime else [(n, d_z), (n, d_x), (n,)]


def _pass_blocks(spec: ExperimentSpec, b: int) -> tuple[list[list[np.ndarray]], list]:
    """The arrays each of ``b`` trials draws its blocks into, full-sized views of one buffer that holds each
    trial's kept fields (:func:`_kept_shapes`) in turn and, for the two-sample oracle, one Z they share; and
    the loops' fields on them: the trials' z, x, x_prime and y, a list per field, None for one not kept."""
    two_sample = est.REGRESSORS[spec.algorithm]._reads_x_prime
    kept = _kept_shapes(spec)
    shapes = kept * b + ([(kept[0][0], spec.dgp.d_z)] if two_sample else [])
    sizes = [math.prod(shape) for shape in shapes]
    arrays = [a.reshape(shape) for a, shape in zip(np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1]), shapes)]
    fields = [arrays[k:3 * b:3] for k in range(3)]
    fields = [None, *fields] if two_sample else [*fields[:2], None, fields[2]]
    return [arrays[3 * b:] + arrays[3 * j:3 * j + 3] for j in range(b)], fields


def _initial_state(spec: ExperimentSpec, b: int) -> tuple[np.ndarray, ...]:
    """The spec's :func:`~ivstream.estimators.initial_state`, stacked for ``b`` trials."""
    lam = spec.lam if "lam" in est.REGRESSORS[spec.algorithm]._param_names else None
    state = est.initial_state(spec.dgp.d_x, spec.dgp.d_z, spec.theta0, spec.gamma0, lam)
    return tuple(np.tile(a, (b,) + (1,) * a.ndim) for a in state)


def _stream_key(spec: ExperimentSpec) -> tuple:
    """What a spec's stream depends on; specs with equal keys read the same rows."""
    return (spec.dgp, spec.base_seed, spec.T, spec.trials, spec.test_n, spec.checkpoints,
            est.REGRESSORS[spec.algorithm]._reads_x_prime)


def _lane_key(spec: ExperimentSpec, k: int) -> tuple:
    """Specs of one pass with equal keys share a lane: specs of the two-timescale
    loop, which steps several thetas on one gamma, with equal alpha, beta and
    gamma0, whose gamma recursions are then identical."""
    if est.REGRESSORS[spec.algorithm]._loop is not est.two_timescale_window:
        return ("own", k)
    return ("two_timescale", spec.alpha, spec.beta, _initial_state(spec, 1)[1].tobytes())


def _recorder(theta, tests: tuple, rows: list) -> functools.partial:
    """``checkpoint_metrics`` (``_windows.c``) bound to S thetas (S, B, d_x), ``tests`` and ``rows``, as a lane
    holds them; called with a column, it fills it and returns how many thetas have a finite ``dist_sq`` in it."""
    loop, test_n = _native.loops().checkpoint_metrics, len(tests[2][0]) if tests[2] else 0
    dist, mse = ([r[m] for r in rows if m in r] for m in ("dist_sq", "test_mse"))
    held = [np.array([a.ctypes.data for a in arrays], np.uintp) for arrays in (*tests[1:], dist, mse)]
    held += [np.empty(theta.shape[-1] + test_n), theta, tests, dist, mse]  # the work row, then what it reads
    args = (*theta.shape, theta.ctypes.data, tests[0].ctypes.data, test_n, *(a.ctypes.data for a in held[:5]),
            dist[0].strides[0] // 8)
    record = functools.partial(loop, *(c(a) for c, a in zip(loop.argtypes, args)))
    record.held = held  # the arrays whose addresses it passes
    return record


class _Lane:
    """The specs of a pass that one window loop steps: S thetas stacked as (S, B, d_x) on the first spec's
    gamma (and U, V), with their S raw-residual flags; only a two-timescale lane has S > 1 (:func:`_lane_key`).

    The lane binds its loop once, when it is made, to the state and to the group's ``fields`` on the pass's
    buffer (each trial's z, x, x_prime and y, a list per field or None), whose addresses hold every block of
    the group. For each block, :meth:`block` computes the steps, so a window is one call on integers and
    addresses read once. ``record``, bound once too, to the thetas, theta_star and the trials' held-out x and
    y in ``tests`` (lists empty without a test set), writes a checkpoint's metrics into each spec's
    (B, checkpoints) rows of ``out`` and returns how many of the S thetas have a finite ``dist_sq`` there.
    """

    def __init__(self, specs: list[ExperimentSpec], members: list[int], b: int, fields: list, out: list, tests):
        lead = specs[members[0]]
        self.schedules = [getattr(lead, which) for which in est.REGRESSORS[lead.algorithm]._schedules]
        direct = [est.REGRESSORS[specs[k].algorithm]._raw_residual for k in members]
        states = [_initial_state(specs[k], b) for k in members]
        state = (np.stack([st[0] for st in states]), *states[0][1:])  # the window and the recorder hold it
        self.window = est.REGRESSORS[lead.algorithm]._loop(state, *fields, direct)
        self.record = _recorder(state[0], tests, [out[k] for k in members])

    def block(self, start: int, end: int) -> None:
        """Compute the steps of rows ``start + 1`` to ``end``, the block drawn last."""
        self.steps = [steps(s, end, start) for s in self.schedules]
        self.addresses = [a.ctypes.data for a in self.steps]

    def step(self, r: int, rows: int) -> None:
        """Step rows ``r`` to ``r + rows - 1`` of the block."""
        self.window.step(r, rows, *[a + 8 * r for a in self.addresses])


def _run_group(specs: list[ExperimentSpec], indices, out: list[dict[str, np.ndarray]],
               blocks: list[list[np.ndarray]], fields: list) -> list[str]:
    """Advance the trials ``indices`` of specs that share a stream in lockstep; return their stream digests.

    ``out`` holds each spec's (len(indices), checkpoints) rows of every metric, filled with ``inf``, and the
    group writes its checkpoints into them in place. Each trial's blocks are drawn once for all the specs,
    which step in lanes (:func:`_lane_key`) until all their trials have diverged, into the trial's arrays
    of the pass's ``blocks``, which the loops read as ``fields`` (:func:`_pass_blocks`); a short last block
    fills their first rows.
    """
    spec = specs[0]  # the stream's description, the same in every spec
    cfg, b = spec.dgp, len(indices)
    rngs = [np.random.Generator(np.random.PCG64(mix_seed(spec.base_seed, int(i)))) for i in indices]
    held_out = [sample_one_block(rng, cfg, spec.test_n)[1:] for rng in rngs] if spec.test_n > 0 else []
    tests = (cfg.theta_star, [x for x, _ in held_out], [y for _, y in held_out])
    if held_out:
        oracle = np.empty((2, b, 1))  # theta_star's dist_sq and test_mse
        _recorder(np.tile(tests[0], (1, b, 1)), tests, [dict(zip(("dist_sq", "test_mse"), oracle))])(0)
        for m in out:
            m["oracle_mse"][:] = oracle[1]

    lanes: dict[tuple, list[int]] = {}
    for k, s in enumerate(specs):
        lanes.setdefault(_lane_key(s, k), []).append(k)
    active = [_Lane(specs, members, b, fields, out, tests) for members in lanes.values()]

    two_sample = est.REGRESSORS[spec.algorithm]._reads_x_prime
    sample = sample_two_block if two_sample else sample_one_block
    # A trial's stream digest: the DGP and the blocks' shapes once, then the PCG64 state and increment after
    # each block, as four 64-bit words, the high one of each first.
    layout = repr((cfg.d_x, cfg.d_z, cfg.family, two_sample, spec.T, _SAMPLE_BLOCK)).encode()
    head = hashlib.sha256(layout + cfg.theta_star.tobytes() + cfg.gamma_star.tobytes() + cfg.z_cov.tobytes())
    digests = [head.copy() for _ in rngs]
    cps = (*spec.checkpoints, spec.T + 1)  # the sentinel is never reached
    cp_idx = 0
    t = start = end = 0
    while t < spec.T:
        if t == end:
            start, end = t, min(t + _SAMPLE_BLOCK, spec.T)
            for rng, digest, arrays in zip(rngs, digests, blocks):
                sample(rng, cfg, end - start, out=[a[:end - start] for a in arrays])
                pcg = rng.bit_generator.state["state"]
                digest.update(np.array([*divmod(pcg["state"], 1 << 64), *divmod(pcg["inc"], 1 << 64)], np.uint64))
            for lane in active:
                lane.block(start, end)
        stop = min(end, cps[cp_idx])
        for lane in active:
            lane.step(t - start, stop - t)
        t = stop
        if t == cps[cp_idx]:
            # A lane whose trials have all diverged, in every spec, stops; its later checkpoints stay inf.
            active = [lane for lane in active if lane.record(cp_idx)]
            cp_idx += 1
    return [d.hexdigest() for d in digests]


def _run_pass(specs: list[ExperimentSpec], groups: list[np.ndarray]) -> list[MetricSeries]:
    """Run the lockstep ``groups`` of specs that share a stream; one series per spec.

    Each spec's (trials, checkpoints) arrays and the digest list are allocated
    once, and each group writes its contiguous rows of them in place. So is
    the one buffer that every group draws its blocks into (:func:`_pass_blocks`),
    sized for the largest group.
    """
    spec = specs[0]
    shape = (sum(len(g) for g in groups), len(spec.checkpoints))
    names = METRICS if spec.test_n > 0 else METRICS[:1]
    metrics = [{m: np.full(shape, np.inf) for m in names} for _ in specs]
    blocks, fields = _pass_blocks(spec, max(map(len, groups)))
    digests: list[str] = []
    for group in groups:
        b, rows = len(group), slice(len(digests), len(digests) + len(group))
        digests += _run_group(specs, group, [{m: v[rows] for m, v in mk.items()} for mk in metrics], blocks[:b],
                              [None if f is None else f[:b] for f in fields])
    series = []
    for s, m in zip(specs, metrics):
        # A trial's first non-finite checkpoint marks it and every later one inf.
        diverging = [v for name, v in m.items() if name != "oracle_mse"]
        bad = np.logical_or.accumulate(~np.isfinite(diverging).all(axis=0), axis=1)
        for v in diverging:
            v[bad] = np.inf
        series.append(MetricSeries(spec=s, metrics=m, stream_digests=list(digests)))
    return series


def run_trial(spec: ExperimentSpec, trial_index: int) -> MetricSeries:
    """Run one seeded trial and return its one-row checkpoint metrics.

    The held-out test set (when ``test_n > 0``) is drawn first, then the
    training stream, all from the trial's own generator, whose state after each
    block the stream digest hashes. The result equals row ``trial_index`` of
    :func:`run_experiment`.
    """
    if not (0 <= check_integer(trial_index, "trial_index") < spec.trials):
        raise ValueError(f"trial_index must be in [0, {spec.trials})")
    return _run_pass([spec], [np.array([trial_index])])[0]


def run_experiments(specs: list[ExperimentSpec]) -> list[MetricSeries]:
    """Run every spec, those that read the same stream in one pass; results in spec order.

    Specs read the same stream when they share the :class:`DgpConfig` object,
    base seed, T, trial count, ``test_n``, checkpoints and oracle kind, as the
    algorithms of one config do. A pass runs its lockstep groups one after
    another and draws each trial's stream once for all its specs.
    """
    passes: dict[tuple, list[int]] = {}
    for k, spec in enumerate(specs):
        passes.setdefault(_stream_key(spec), []).append(k)
    results: list[MetricSeries] = [None] * len(specs)
    for members in passes.values():
        shared = [specs[k] for k in members]
        for k, series in zip(members, _run_pass(shared, trial_groups(shared[0]))):
            results[k] = series
    return results


def run_experiment(spec: ExperimentSpec) -> MetricSeries:
    """Run all trials of one spec, one lockstep group after another."""
    return run_experiments([spec])[0]


def fit_slope(iterations, values, tail_fraction: float) -> float:
    """Least-squares slope of log10(values) on log10(iterations) over the tail.

    ``tail_fraction`` selects the trailing fraction of checkpoints. Raises ``ValueError``
    if the tail window holds fewer than 5 checkpoints, iterations that are not
    finite, positive and strictly increasing, or a non-finite or non-positive value.
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
    if not (np.isfinite(window_it).all() and window_it[0] > 0.0 and (np.diff(window_it) > 0.0).all()):
        raise ValueError("tail window's iterations must be finite, positive and strictly increasing")
    if not (np.isfinite(window_val) & (window_val > 0.0)).all():
        raise ValueError("tail window contains non-finite or non-positive values; slope undefined")
    coeffs = np.polyfit(np.log10(window_it), np.log10(window_val), 1)
    return float(coeffs[0])
