"""How fast the measured run's core runs Python, sampled during the run.

The benchmark host is a shared virtual machine: the speed a core gives
one thread swings by a quarter or more within seconds, with the program
unchanged.  A fixed pure-Python loop that uses none of the program's
code (heap pushes and pops, dict and set updates, integer and float
arithmetic, like an event loop) follows those swings.

:class:`HostProbe` runs that loop on a background thread of the
benchmark's parent process, pinned to the same CPU as the measured child
(``run.py`` pins both), for about an eighth of the time.  Each sample is the
loop's own CPU time, and the child reports its own CPU time, so the time
slices the two take from each other cancel out.  A run's times are then
scaled by ``REFERENCE_S / mean(loop CPU time during the run)``: what the
run would have taken where the loop takes ``REFERENCE_S``.  On the
tuning host this cut the run-to-run spread of the run time from about
12% to about 2%.

The loop shares a core with the measured run, so a change to the
program's use of caches could move the loop a little too; a change to
the program's speed alone cannot.
"""

from __future__ import annotations

import heapq
import os
import statistics
import threading
import time

__all__ = ["REFERENCE_S", "HostProbe"]

#: Loop length per sample, and the pause between samples.
LOOP_N = 10_000
PAUSE_S = 0.12
#: Typical loop CPU time on the tuning host (2 vCPU Xeon, Python 3.11).
#: Only a scale: it cancels between two measurements.
REFERENCE_S = 0.018


def _loop(n: int) -> float:
    """CPU seconds this thread spends on ``n`` iterations of the loop."""
    heap: list = []
    table: dict = {}
    live: set = set()
    x = 12345
    acc = 0.0
    started = time.thread_time()
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x / 2147483648.0, i))
        key = x & 4095
        table[key] = table.get(key, 0.0) + x * 1e-9
        if key in live:
            live.discard(key)
        else:
            live.add(key)
        if len(heap) > 512:
            t, j = heapq.heappop(heap)
            acc += t * table.get(j & 4095, 1.0)
    return time.thread_time() - started


class HostProbe:
    """Background sampler of the reference loop on ``cpu``.

    Use as a context manager; the first sample is taken before entry
    returns.
    """

    def __init__(self, cpu: int):
        self.cpu = cpu
        #: ``(monotonic start, loop CPU seconds)`` per sample.
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._first = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "HostProbe":
        self._thread.start()
        self._first.wait()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        os.sched_setaffinity(0, {self.cpu})  # this thread only
        while True:
            started = time.monotonic()
            self.samples.append((started, _loop(LOOP_N)))
            self._first.set()
            if self._stop.wait(PAUSE_S):
                return

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the mean loop time sampled in ``[start, end]``
        (monotonic clock), or over every sample when none fell in it."""
        window = [d for t, d in self.samples if start <= t <= end]
        window = window or [d for _t, d in self.samples]
        return REFERENCE_S / statistics.fmean(window)
