"""The pace of the CPU a worker runs on, sampled while it measures.

On a shared host the same code runs up to twice as slow in spells that last
from seconds to minutes, and no statistic over a run of tens of seconds
removes a spell that covers it. So while a worker measures, a timer signal
runs a fixed reference kernel INTERVAL_S seconds after its last run ended,
in the worker's own thread, and records how long it took. A measured
interval is reported at the reference pace: its time, less the sampler's
own time inside it, divided by the kernel's mean slowdown against
REFERENCE_S in a window of at least WINDOW_S around the interval.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
WINDOW_S = 1.0
# reference() at full pace on the 2-core Xeon the baseline was recorded on
REFERENCE_S = 1.0e-3
PROBES = 50

_rng = np.random.default_rng(0)
_REAL = _rng.standard_normal((4, 2, 2))
_COMPLEX = _rng.standard_normal((4, 2, 2)) + 1j * _rng.standard_normal((4, 2, 2))


def reference() -> int:
    """Tiny-stack linear algebra and interpreter work, as in the library:
    bare eigh calls, then PSD projections of a stack of four 2x2 matrices
    as written in linalg today (copied, so the reference never changes with
    the code it measures)."""
    for _ in range(30):
        np.linalg.eigh(_REAL)
    x = _COMPLEX
    for _ in range(12):
        w, u = np.linalg.eigh((x + np.conj(np.swapaxes(x, -1, -2))) / 2)
        x = (u * np.clip(w, 0.0, None)[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2)) + _COMPLEX
    s = 0
    for k in range(450):
        s += k * k % 7
    return s


def probe() -> float:
    """The slowdown right now: mean of PROBES reference runs over REFERENCE_S."""
    times = []
    for _ in range(PROBES):
        t = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t)
    return statistics.fmean(times) / REFERENCE_S


class Pace:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        reference()
        self.durations.append(time.perf_counter() - t)
        self.starts.append(t)
        # one shot at a time, so that a run the host stalls for longer than
        # INTERVAL_S is not interrupted by the next
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self) -> Pace:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        # ignore first: a pending sample would arm the timer again
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def at_reference(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Seconds each perf_counter interval would take at the reference
        pace. A sample that starts inside an interval also ends inside it,
        since the handler runs in the measured thread."""
        t = np.asarray(self.starts)
        d = np.asarray(self.durations)
        own = np.concatenate([[0.0], np.cumsum(d)])
        out = []
        for t0, t1 in intervals:
            lo, hi = np.searchsorted(t, [t0, t1])
            mid, half = (t0 + t1) / 2, max(t1 - t0, WINDOW_S) / 2
            near = d[np.searchsorted(t, mid - half) : np.searchsorted(t, mid + half)]
            slowdown = (near.mean() if near.size else d.mean()) / REFERENCE_S
            out.append((t1 - t0 - (own[hi] - own[lo])) / slowdown)
        return out
