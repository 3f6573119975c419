"""Host time converted to reference seconds, to steady timings on a shared host.

A shared machine's speed is not constant: on a small cloud VM the same
interpreter loop runs 1.6 times slower for minutes at a stretch when the
neighbours are busy, and the program slows with it.  No bound of a quarter of
the median survives that.  `measured` therefore times the work and, while it
runs, samples the machine's current speed with a fixed probe (a short
interpreted loop of the kind the program itself runs) on a SIGALRM timer, every
`interval` seconds of host time, and once at either end.  Each stretch of work
between two probes is scaled by the speed those two probes saw:

    reference seconds = sum over stretches of  host_s * PROBE_REF_S / probe_s

(probe_s being the mean of the two probes around the stretch), so a stretch on
a machine that runs the probe in PROBE_REF_S counts at its host time.  The
probes' own time is left out of both totals.  Each probe runs twice and times
the second run, so that it measures the machine rather than how much of the
probe the work had evicted from the caches.  Probes add about 4% of host time.

Signal handlers run between bytecodes of the main thread, so a long call into
C (a big sort) delays the next probe; the stretch before it is simply longer.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

# Seconds the probe takes on the reference machine: an Intel Xeon vCPU of a
# 2-vCPU VM with CPython 3, in its faster state.  It only sets the scale.
PROBE_REF_S = 0.6e-3
PROBE_INTERVAL_S = 0.05


def probe() -> float:
    """Fixed interpreted work: float arithmetic, dict and list traffic."""
    table, items, acc, x = {}, [], 0.0, 0.5
    for i in range(2000):
        x = (x * 3.9) % 1.0
        table[i & 255] = x
        acc += x * table.get((i * 7) & 255, 0.0)
        items.append(x)
    items.sort()
    return acc + items[0]


@dataclass
class Timing:
    host_s: float = 0.0  # host time of the work, probes left out
    ref_s: float = 0.0  # the same in reference seconds
    probes: int = 0


class measured:
    """`with measured() as t: work()` fills t.host_s and t.ref_s.

    Enter it in the main thread; it owns SIGALRM and ITIMER_REAL meanwhile.
    """

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self.timing = Timing()
        self._busy = False
        self._last = self._speed = None

    def _probe(self) -> None:
        """Close the stretch that ends now with a probe of the current speed."""
        probe()  # refill the caches the work evicted, then time a warm probe
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        speed = PROBE_REF_S / (end - start)
        if self._last is not None:
            stretch = start - self._last
            self.timing.host_s += stretch
            # probe_s averaged over the stretch's two ends
            self.timing.ref_s += stretch * 2.0 / (1.0 / self._speed + 1.0 / speed)
        self.timing.probes += 1
        self._last, self._speed = end, speed

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a late alarm landed inside a probe
            return
        self._busy = True
        try:
            self._probe()
        finally:
            self._busy = False

    def __enter__(self) -> Timing:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self.timing

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self._busy = True
        try:
            self._probe()
        finally:
            signal.signal(signal.SIGALRM, self._previous)
