"""How fast the host runs Python, measured around and during each run of
the program.

On a shared host the same word can take twice as long from one minute to the
next, and the host's speed changes within a second too, because other
tenants load the cores and caches the benchmark runs on.  The benchmark
therefore runs a fixed piece of work of its own, a *unit*, in a chunk after
each run of the program and, from a timer signal, once every ``PERIOD``
seconds during a run.  It scales the run's wall time, less the units run
during it, by how long the units during it and in the chunks just before and
just after it took against their reference time ``UNIT_REF``::

    reference time = wall time * UNIT_REF * units / (seconds the units took)

A run's reference time is the time it would have taken on the host that
set ``UNIT_REF``, at the speed that host had when it did.  The unit is
the same kind of work as the program's inner loop, pure Python on tuples,
lists and dicts: substitute edge images into each other, cancel adjacent
inverse letters, and compare the rotations of the results.  It does not
call ``traintrack``, so a faster program shows in full.  NOTES.md gives the
measurements behind it.
"""

from __future__ import annotations

import gc
import math
import random
import signal
from time import perf_counter

# about the seconds one unit takes on the reference host (NOTES.md)
UNIT_REF = 1.0e-3
MIN_UNITS = 3       # the smallest calibration chunk
SHARE = 0.02        # calibration time per second of program time, at least
PERIOD = 0.02       # seconds between the units run during a run

_EDGES = 12
_ROUNDS = 2
_LIMIT = 32
_rng = random.Random(20261017)
_IMAGES = {e: tuple(_rng.choice((1, -1)) * _rng.randint(1, _EDGES)
                    for _ in range(_rng.randint(3, 9)))
           for e in range(1, _EDGES + 1)}


def unit():
    """One unit of work; the result is fixed, the time is what counts."""
    images = _IMAGES
    for _ in range(_ROUNDS):
        new = {}
        for e, word in images.items():
            out = []
            for x in word:
                image = images[abs(x)]
                for y in (image if x > 0 else [-z for z in reversed(image)]):
                    if out and out[-1] == -y:
                        out.pop()
                    else:
                        out.append(y)
            new[e] = tuple(out[:_LIMIT])
        images = new
    return min(w[i:] + w[:i] for w in images.values() for i in range(len(w)))


class Gauge:
    """Calibration chunks between runs of the program and, with ``sample``,
    single units during them."""

    def __init__(self, sample=False):
        self.last = self._chunk(MIN_UNITS)
        self.inside = (0.0, 0)     # seconds and units run during this run
        self.armed = False
        if sample:
            signal.signal(signal.SIGALRM, self._on_timer)
        self.sample = sample

    @staticmethod
    def _chunk(units):
        # without the collector: how often it runs, and what it scans, depend
        # on the program's heap, which a host-speed reading must not
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            for _ in range(units):
                unit()
            return perf_counter() - t0, units
        finally:
            if enabled:
                gc.enable()

    def _on_timer(self, signum, frame):
        if self.armed:
            seconds, units = self._chunk(1)
            self.inside = (self.inside[0] + seconds, self.inside[1] + units)

    def arm(self):
        """Start a run of the program."""
        self.inside = (0.0, 0)
        if self.sample:
            self.armed = True
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def disarm(self):
        """End a run; return the seconds the units run during it took."""
        self.armed = False
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return self.inside[0]

    def close(self):
        if self.sample:
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, wall):
        """Run the chunk that follows ``wall`` seconds of program work, and
        return how much slower than the reference the host ran over it, the
        units run during that work and the chunk before it."""
        chunk = self._chunk(max(MIN_UNITS, math.ceil(SHARE * wall / UNIT_REF)))
        before, self.last = self.last, chunk
        inside, self.inside = self.inside, (0.0, 0)
        return ((before[0] + inside[0] + chunk[0])
                / ((before[1] + inside[1] + chunk[1]) * UNIT_REF))
