"""Machine-speed normalisation of the benchmark's timings.

On a shared virtual machine the CPU's speed changes from one second to the
next, by up to a factor of two, while nothing else of ours runs. Wall times
of the same work then spread far more than any change worth detecting.

A :class:`SpeedProbe` samples that speed while the program runs: a timer
signal interrupts the program every ``interval`` seconds, and the handler
times :func:`reference`, a fixed loop of small numpy calls that is never
changed along with the program. The handler's own time is taken out of the
program's time, and each interval of program time is scaled by the speed
measured in it. A *normalised second* is a second of a machine on which
``reference`` takes :data:`REF_S`.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import NamedTuple

import numpy as np

#: Duration of :func:`reference` at nominal speed: its time on the machine
#: the benchmark was written on (2 vCPUs, Intel Xeon, 2.0 GHz nominal) while
#: that ran at its faster speed.
REF_S = 0.5e-3

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((64, 16))
_B = _rng.standard_normal((64, 8))


def reference() -> float:
    """A streaming update loop of small numpy calls, like the program's hot path."""
    g, t = np.zeros((16, 8)), np.zeros(8)
    for a, b in zip(_A, _B):
        r = a @ g - b
        g = g - 1e-3 * np.outer(a, r)
        t = t + 1e-3 * float(r @ t) * b
    return float(t[0])


class Span(NamedTuple):
    """Program time of one timed phase: wall seconds and normalised seconds."""

    wall_s: float
    norm_s: float


class SpeedProbe:
    """Samples the machine's speed during timed phases (see the module doc)."""

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.stolen = 0.0  # seconds spent in the probe, excluded from program time
        self.speeds: list[float] = []
        self._busy = False
        for _ in range(3):  # warm up numpy's dispatch before the first sample
            reference()

    def clock(self) -> float:
        """Program time: wall time minus the time the probe took."""
        return perf_counter() - self.stolen

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        self.speeds.append(REF_S / (t1 - t0))
        self.stolen += perf_counter() - t0
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def time(self, fn) -> Span:
        """Run ``fn()`` and return its :class:`Span`.

        Samples are taken just before, every ``interval`` during, and just
        after the call. The normalised time is the program time times the
        mean speed of those samples: the mean over time, since the samples
        are evenly spaced in time.
        """
        self.speeds = []
        self.sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            start = self.clock()
            fn()
            wall = self.clock() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()
        return Span(wall, wall * float(np.mean(self.speeds)))
