"""A clock that scales wall time by the speed the host gives this process.

On a small share of a busy machine the same Python code runs at two
speeds: at times a neighbour on the same physical core makes it up to 1.8x
slower, for spells of a fraction of a second to several seconds.  What
fraction of a run falls into the slow spells differs from run to run, and
that alone moved the median latency by a quarter between runs of the same
code.

``HostClock`` times a fixed pure-Python probe (dict updates, sorting and
tuples, the kind of work coxkit does) at the start and end of every timed
interval and every ``PERIOD_S`` within it, from a ``SIGALRM`` handler.
Each slice of the interval between two probes is scaled by
``PROBE_REF_S`` / (the mean probe time at its two ends), and the probes'
own time is left out.  The result reads in seconds on a host where the
probe takes ``PROBE_REF_S``: about the unloaded speed of a 2-vCPU Intel
Xeon VM with Python 3.11.  Raw wall time is kept alongside.

The probe is the benchmark's own code and never calls coxkit, so a change
to the program moves the scaled time by the same factor as the wall time.
"""

import random
import signal
import time

PERIOD_S = 0.01
PROBE_REF_S = 75e-6

_rng = random.Random(7)
_ROWS = [[(_rng.randrange(40), _rng.randint(-3, 3)) for _ in range(8)]
         for _ in range(12)]


def _probe_once():
    acc = 0
    for _ in range(2):
        for row in _ROWS:
            d = {}
            for j, v in row:
                d[j] = d.get(j, 0) + v
            for k in sorted(d):
                acc += d[k] * k
            acc += len(tuple(sorted(d.items())))
    return acc


def probe():
    """Seconds one probe takes now: the faster of two, so that a single
    interrupt does not read as a slow host."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _probe_once()
        best = min(best, time.perf_counter() - t0)
    return best


class WallClock:
    """The same interface over plain wall time, for the traced run."""

    def start(self):
        self._t = time.perf_counter()

    def stop(self):
        wall = time.perf_counter() - self._t
        return wall, wall


class HostClock:
    """Times one interval at a time: ``start()``, then ``stop()`` returns
    (scaled seconds, wall seconds without the probes)."""

    def __init__(self):
        self._active = False
        self._in_tick = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self):
        self._scaled = 0.0
        self._wall = 0.0
        self._probe = probe()
        self._active = True
        self._t = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _slice(self):
        """Close the slice that ends now with a fresh probe."""
        t = time.perf_counter()
        p = probe()
        span = t - self._t
        self._wall += span
        self._scaled += span * PROBE_REF_S * 2 / (self._probe + p)
        self._probe = p

    def _tick(self, signum, frame):
        if self._active and not self._in_tick:
            self._in_tick = True
            self._slice()
            self._t = time.perf_counter()
            self._in_tick = False

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._active = False
        self._slice()
        return self._scaled, self._wall
