"""A fixed piece of pure-Python work that gauges the machine's speed.

On a shared machine the same code runs up to twice as slow for spells
of a fraction of a second to minutes, so raw latencies of two runs
differ more than any useful bound.  While a worker runs its ops, a
`Sampler` takes a sample every INTERVAL_S from a SIGALRM handler, inside
the ops as well as between them: it runs the probe twice with the
garbage collector paused and times the second run, so that it measures
the machine rather than the op's heap or the caches the op left cold.
The probe does the kinds of work raagbns does (Fraction products,
frozenset-keyed dicts, sorting tuples of strings).

An op's calibrated latency is its time without the samples taken inside
it, multiplied by the mean of PROBE_REF_MS / probe time over those
samples, or over the samples within WINDOW_S of it for an op too short
to hold MIN_SAMPLES: the time the op would take on a machine on which
the probe always takes PROBE_REF_MS.  Samples are evenly spaced in time,
so the mean weighs each stretch of a long op by how long it lasted.

Calibration is not exact: in a slow spell compute-bound code slows about
as much as the probe, memory-bound code less.  So workers also start
each op once the probe runs fast (`Sampler.wait_fast`), and run.py times
again the short ops that ran mostly in slow spells.  This module imports
nothing from raagbns.
"""

import gc
import signal
from fractions import Fraction
from time import perf_counter

PROBE_REF_MS = 0.3  # about the probe's median time on a 2-core Xeon virtual machine
INTERVAL_S = 0.05
MIN_SAMPLES = 5  # an op with fewer samples inside it is calibrated with those of a window around it
WINDOW_S = 0.25  # from this long before the op to this long after it
FAST_MARGIN = 1.25  # a probe within this factor of the fast time counts as fast
SIZE = 4


def _work():
    m = [[Fraction(i - j, i + j + 1) for j in range(SIZE)] for i in range(SIZE)]
    p = [[sum(m[i][k] * m[k][j] for k in range(SIZE)) for j in range(SIZE)] for i in range(SIZE)]
    seen = {}
    for i in range(150):
        key = frozenset((i % 7, i % 11, i % 13))
        seen[key] = seen.get(key, 0) + 1
    order = sorted((i * 7919 % 251, str(i)) for i in range(120))
    return p[0][0], len(seen), order[0]


def scale(samples_ms):
    """Factor that turns a time measured while the probe took
    `samples_ms`, sampled evenly in time, into a calibrated one."""
    return sum(PROBE_REF_MS / s for s in samples_ms) / len(samples_ms)


class Sampler:
    """Takes a sample every INTERVAL_S of wall time while it is started.
    Samples are [start, seconds taken, seconds of the timed probe run],
    in perf_counter time."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum=None, frame=None):
        began = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            _work()
            timed = perf_counter()
            _work()
            end = perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.samples.append([began, end - began, end - timed])

    def block(self, count):
        """Take `count` samples back to back, outside the timer."""
        for _ in range(count):
            self._sample()

    def wait_fast(self, limit_ms, budget_s):
        """Take samples back to back until the latest took at most
        `limit_ms`, for at most `budget_s`; return the seconds waited."""
        began = perf_counter()
        while self.samples[-1][2] * 1000 > limit_ms and perf_counter() - began < budget_s:
            self._sample()
        return perf_counter() - began

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def calibrate(samples, start, end, slow_ms):
    """For an op that ran from `start` to `end`, from a Sampler's samples:
    the seconds of probes inside it, its calibration factor, and the
    share of the probes inside it that took longer than `slow_ms` (None
    if fewer than MIN_SAMPLES ran inside it)."""
    inside = [(taken, s * 1000) for t, taken, s in samples if start <= t < end]
    seconds = sum(taken for taken, _ in inside)
    if len(inside) >= MIN_SAMPLES:
        times = [s for _, s in inside]
        return seconds, scale(times), sum(s > slow_ms for s in times) / len(times)
    near = [s * 1000 for t, _, s in samples if start - WINDOW_S <= t < end + WINDOW_S]
    return seconds, scale(near or [s * 1000 for _, _, s in samples]), None
