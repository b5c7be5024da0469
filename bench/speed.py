"""CPU-speed probe: rescales measured times to one reference speed.

On a shared host the speed of a core drifts by 20% and more over seconds
and minutes, with each core drifting on its own.  ``run.py`` therefore pins
itself and every process it starts to one core, and runs this probe as a
thread on that same core: every ``PERIOD_S`` it wakes and times a fixed
chunk of work (``chunk``, about 2 ms) in thread CPU time, taking about 4%
of the core from the command.  Its samples follow the speed of that core
closely: the same chunk run flat out beside it on that core tracked the
probe's cost per four seconds with a correlation of 0.99; on the other
core the correlation was -0.4.

``slowdown(start, end)`` is the mean chunk cost over an interval divided by
``REFERENCE_S``.  A time divided by it reads as seconds at the reference
speed.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

PERIOD_S = 0.05
MIN_SAMPLES = 20
# Median chunk cost on a 2.1 GHz Intel Xeon core with Python 3.11.  Fixed:
# it only sets the scale, and changing it would rescale every baseline.
REFERENCE_S = 0.0022

_X = int("7" * 3000)
_Y = int("3" * 3000)


def chunk() -> int:
    """Fixed work mixing what the CLI does: big-int products and an
    interpreted loop over small ints."""
    acc = 0
    for _ in range(20):
        acc ^= (_X * _Y) >> 100
    t = 0
    for i in range(1, 2000):
        t = (t * 31 + i) % 1000003
    return acc ^ t


class SpeedProbe:
    """Samples the speed of the current core in a background thread.

    Use as a context manager; call ``slowdown`` after it has exited."""

    def __init__(self):
        self.times: list[float] = []  # time.monotonic() at each sample
        self.costs: list[float] = []  # thread CPU seconds of each chunk
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            at = time.monotonic()
            cpu = time.thread_time()
            chunk()
            self.costs.append(time.thread_time() - cpu)
            self.times.append(at)

    def slowdown(self, start: float, end: float) -> float:
        """Mean chunk cost over [start, end] relative to REFERENCE_S; an
        interval with fewer than MIN_SAMPLES samples takes the MIN_SAMPLES
        nearest its middle instead."""
        if not self.costs:
            raise RuntimeError("speed probe took no samples")
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2,
                            len(self.times) - MIN_SAMPLES))
            hi = min(len(self.times), lo + MIN_SAMPLES)
        return statistics.fmean(self.costs[lo:hi]) / REFERENCE_S
