"""Host-speed gauge: a fixed reference work timed next to the measured work.

The host this benchmark was tuned on (2 virtual CPUs shared with other
tenants) runs the same code up to a third slower in some minutes than in
others, and whole runs shift together: over five runs of one commit the
``compile_cold`` lookup p50 ranged from 66 to 113 us.  Sampling choices
cannot remove that, so every registered timing is scaled to a fixed
reference speed.  The benchmark times a pure-Python reference work, which
the program under test cannot change, at the same moments as the program,
and multiplies each of the program's times by ``REFERENCE_US`` over the
reference work's time then.  The raw times are printed next to the scaled
ones.

Long operations (a cold compile, a set-up) run while a helper thread times
one reference work every ``SAMPLE_PERIOD_S``; the operation is scaled by
their median.  An operation whose work runs in another process (the fleet
worker) is bracketed by readings taken just before and just after it
instead, because a helper thread would compete with that process for the
CPU.  :meth:`Gauge.timed` leaves the time spent on reference work out of
every timing that encloses it.  Stream samples are scaled by the reference
work's median within the same ``WINDOW_S`` window (see
:func:`scale_samples`).
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import Callable, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Nominal microseconds of one reference work; scaled times are in units of
#: this speed.  About the reference work's time on the reference host.
REFERENCE_US = 1000.0
#: Reference works per reading taken around an operation in another process.
READING_WORKS = 25
#: Seconds between reference works timed during a long operation.
SAMPLE_PERIOD_S = 0.02
#: Stream samples in one window of this many seconds share a scale.
WINDOW_S = 1.0

# A working set of a few hundred kilobytes, built once at import.
_TABLE = {f"key{i}": i for i in range(4096)}
_KEYS = tuple(_TABLE)


class _Counter:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, amount: int) -> None:
        self.value = (self.value + amount) & 0xFFFF


_COUNTER = _Counter()


def reference_work() -> int:
    """Dict lookups, attribute access, method calls and integer arithmetic.

    Allocates no object the garbage collector tracks, so it never triggers
    a collection and its time does not depend on the program's heap.
    """
    table, counter = _TABLE, _COUNTER
    total = 0
    for key in _KEYS:
        value = table[key]
        counter.bump(value)
        total = (total + value * 3) & 0xFFFFF
    return total


class Gauge:
    """Times long operations and gauges the host's speed while they run.

    Keeps the seconds spent on reference work, so a timing leaves out the
    reference work of the timings nested in it.
    """

    def __init__(self) -> None:
        self._spent_s = 0.0
        self._lock = threading.Lock()

    def _spend(self, seconds: float) -> None:
        with self._lock:
            self._spent_s += seconds

    def reading(self) -> float:
        """Median microseconds of ``READING_WORKS`` reference works."""
        start = time.perf_counter()
        times = []
        for _ in range(READING_WORKS):
            t0 = time.perf_counter()
            reference_work()
            times.append((time.perf_counter() - t0) * 1e6)
        self._spend(time.perf_counter() - start)
        return statistics.median(times)

    def timed(self, fn: Callable[[], T], in_process: bool = True) -> Tuple[T, float, float]:
        """Run ``fn`` and gauge the host's speed meanwhile.

        ``in_process`` says whether ``fn``'s work runs in this process
        (sampled during the call) or in another one (bracketed by readings).
        Returns ``fn``'s result, its wall seconds without the reference work
        done during it, and the scale to reference speed (multiply a time by
        it).
        """
        if not in_process:
            before = self.reading()
        sampler = _Sampler(self) if in_process else None
        spent = self._spent_s
        t0 = time.perf_counter()
        if sampler is not None:
            sampler.start()
        try:
            result = fn()
        finally:
            if sampler is not None:
                sampler.halt()
        wall = time.perf_counter() - t0 - (self._spent_s - spent)
        if sampler is not None:
            return result, wall, REFERENCE_US / statistics.median(sampler.samples)
        return result, wall, 2 * REFERENCE_US / (before + self.reading())


class _Sampler(threading.Thread):
    """Times one reference work now and every ``SAMPLE_PERIOD_S`` after."""

    def __init__(self, gauge: Gauge) -> None:
        super().__init__(name="hostspeed-sampler", daemon=True)
        self.samples: List[float] = []
        self._gauge = gauge
        self._halt = threading.Event()

    def run(self) -> None:
        while True:
            t0 = time.perf_counter()
            reference_work()
            t1 = time.perf_counter()
            self.samples.append((t1 - t0) * 1e6)
            self._gauge._spend(t1 - t0)
            if self._halt.wait(SAMPLE_PERIOD_S):
                return

    def halt(self) -> None:
        self._halt.set()
        self.join()


def scale_samples(
    samples: Sequence[Tuple[float, float]], reference: Sequence[Tuple[float, float]]
) -> List[float]:
    """Scale (start time, value) samples to reference speed.

    ``reference`` holds (start time, microseconds) of reference works run
    interleaved with the samples.  Each sample is multiplied by
    ``REFERENCE_US`` over the median reference work of its window; a window
    without reference works uses the nearest earlier one that has them,
    else the median of all.
    """
    origin = min(t for t, _ in reference)
    by_window = {}
    for t, us in reference:
        by_window.setdefault(int((t - origin) // WINDOW_S), []).append(us)
    medians = {w: statistics.median(v) for w, v in by_window.items()}
    overall = statistics.median(us for _, us in reference)
    scaled = []
    for t, value in samples:
        w = int((t - origin) // WINDOW_S)
        while w not in medians and w > 0:
            w -= 1
        scaled.append(value * REFERENCE_US / medians.get(w, overall))
    return scaled
