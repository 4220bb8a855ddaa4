"""Host-speed probe: corrects command times for a shared host's changing speed.

On a shared VM the vCPU runs at one of two speeds (about 1x and 1.5x slower)
that change every second or so, as other guests load the same physical core.
A command of 0.1-4 s mixes both, and the share of slow time differs from run
to run, so raw wall times of the same code spread by 10-40% between runs.

`SpeedProbe.running()` times a fixed piece of interpreter work (an integer
loop and float-to-text conversion) from a SIGALRM handler every PERIOD
seconds. The handler runs in the main thread, between the program's own
bytecodes, so it samples the speed of the CPU the program runs on, while it
runs. A bare integer loop slows less than the program at the slow level; the
float conversion, like the program's JSON writing and library calls, slows
about as much. A command's corrected time is its wall time without the
probes inside it, times REFERENCE_S over the mean probe time during the
command (10% trimmed at each end): the time the command would take on a host
where one probe takes REFERENCE_S. That is about the probe time at the fast
level of the 2-vCPU x86_64 VM the benchmark was tuned on, so there corrected
times read close to fast-level wall times. A change that makes the program
itself slower raises its corrected time by the same share; only the host's
speed is divided out. The raw wall times stay in the run record.
"""

from __future__ import annotations

import bisect
import contextlib
import random
import signal
import statistics
import time

PERIOD = 0.01         # seconds between probes
LOOP = 1000           # iterations of the probe's integer loop
FLOATS = 64           # floats the probe converts to text
REFERENCE_S = 100e-6  # probe time that corrected times are scaled to
MARGIN = 0.05         # seconds around a command whose probes give its speed


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        rng = random.Random(0)
        self._floats = [rng.random() for _ in range(FLOATS)]

    def _probe(self, signum, frame):
        # Neither part allocates an object the garbage collector tracks, so
        # the probe's time does not depend on the program's heap.
        t0 = time.perf_counter()
        s = 0
        for i in range(LOOP):
            s += i
        for x in self._floats:
            repr(x)
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def _between(self, t0, t1):
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return self.seconds[lo:hi]

    def corrected(self, start, seconds):
        """Wall time `seconds` of a command started at `start`, without the
        probes inside it and scaled to REFERENCE_S per probe."""
        own = seconds - sum(self._between(start, start + seconds))
        around = sorted(self._between(start - MARGIN,
                                      start + seconds + MARGIN))
        if not around:
            return own
        cut = len(around) // 10
        level = statistics.fmean(around[cut:len(around) - cut])
        return own * REFERENCE_S / level

    def summary(self):
        if not self.seconds:
            return {"probes": 0}
        return {"probes": len(self.seconds), "period_s": PERIOD,
                "reference_s": REFERENCE_S,
                "min_s": min(self.seconds),
                "p50_s": statistics.median(self.seconds),
                "max_s": max(self.seconds)}
