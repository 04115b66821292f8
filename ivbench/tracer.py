"""Per-layer timing of ivstream, applied from outside the package.

A :class:`Tracer` wraps the public functions named in :data:`TARGETS` and
swaps the wrappers into every ``ivstream`` module (and class attribute) that
holds the original, so calls made between the package's own modules are
timed as well. Nothing inside ``src/`` is changed; :func:`installed` restores
the originals on exit.

For each wrapped function the tracer keeps, per phase (``setup`` or
``run``): the number of calls, the self time (the span's duration minus the
time covered by traced calls nested inside it), a work count (rows, bytes or
trials, where the target defines one) and the largest traced allocation.
Aggregates are kept in memory instead of individual spans, because the
kernels are called millions of times per run.
"""

from __future__ import annotations

import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


def _first_rows(args, kwargs, out):
    return len(out[0])


def _len_out(args, kwargs, out):
    return len(out)


def _file_bytes(args, kwargs, out):
    return Path(args[0]).stat().st_size


def _dir_bytes(args, kwargs, out):
    return sum(p.stat().st_size for p in Path(args[1]).iterdir() if p.is_file())


def _spec_trials(args, kwargs, out):
    return args[0].trials


#: (module, function, options). ``tagged`` splits the statistics by the
#: tracer's current tag (the problem size); ``work`` returns the work count of
#: one call; ``alloc`` records the peak traced allocation of the call.
TARGETS = (
    ("estimators", "two_sample_update", {"tagged": True}),
    ("estimators", "two_stage_update", {"tagged": True}),
    ("estimators", "direct_residual_update", {"tagged": True}),
    ("estimators", "online_2sls_update", {"tagged": True}),
    ("_validation", "as_float_vector", {}),
    ("schedule", "step", {}),
    ("dgp", "sample_one_block", {"work": _first_rows}),
    ("dgp", "sample_two_block", {"work": _first_rows}),
    ("dgp", "test_set", {"work": _len_out}),
    ("metrics", "dist_to_opt", {}),
    ("metrics", "test_mse_arrays", {}),
    ("metrics", "stack_test_set", {}),
    ("harness", "run_experiment", {"work": _spec_trials}),
    ("oracle", "theory_constants", {"alloc": True}),
    ("oracle", "mc_moments", {}),
    ("oracle", "summarize", {}),
    ("presets", "build_preset", {}),
    ("cli", "series_rows", {"work": _len_out}),
    ("cli", "write_series_csv", {"work": _file_bytes}),
    ("cli", "run_specs_to_dir", {"work": _dir_bytes}),
)


class Tracer:
    """Aggregated spans of the wrapped ivstream functions."""

    def __init__(self, clock=perf_counter):
        self.clock = clock  # spans are timed on this clock (program time)
        self.phase = "run"
        self.tag = ""
        # (phase, name) -> [calls, self seconds, work, peak allocation bytes]
        self.stats: dict[tuple[str, str], list] = {}
        self._child = [0.0]

    def get(self, phase: str, name: str) -> list:
        return self.stats.get((phase, name), [0, 0.0, 0, 0])

    def wrap(self, name, fn, tagged=False, work=None, alloc=False):
        child, clock = self._child, self.clock

        def traced(*args, **kwargs):
            child.append(0.0)
            if alloc:
                tracemalloc.start()
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                peak = 0
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                nested = child.pop()
                child[-1] += dt
                key = (self.phase, f"{name}.{self.tag}" if tagged else name)
                s = self.stats.get(key)
                if s is None:
                    s = self.stats[key] = [0, 0.0, 0, 0]
                s[0] += 1
                s[1] += dt - nested
                s[3] = max(s[3], peak)
            if work is not None:
                s[2] += work(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced


def _holders(modules, orig):
    """(object, attribute, current value) for every reference to ``orig``."""
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                yield mod, attr, val
            elif isinstance(val, type) and val.__module__ == mod.__name__:
                for cattr, cval in list(vars(val).items()):
                    if isinstance(cval, staticmethod) and cval.__func__ is orig:
                        yield val, cattr, cval


@contextmanager
def installed(tracer: Tracer):
    """Route every ivstream reference to a target through ``tracer``."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "ivstream" or n.startswith("ivstream.")]
    saved = []
    try:
        for modname, fname, opts in TARGETS:
            orig = getattr(sys.modules[f"ivstream.{modname}"], fname)
            wrapper = tracer.wrap(f"{modname.lstrip('_')}.{fname}", orig, **opts)
            for obj, attr, val in list(_holders(modules, orig)):
                saved.append((obj, attr, val))
                setattr(obj, attr, staticmethod(wrapper) if isinstance(val, staticmethod) else wrapper)
        yield tracer
    finally:
        for obj, attr, val in reversed(saved):
            setattr(obj, attr, val)
