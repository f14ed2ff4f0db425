"""Host-speed calibration for the timed metrics.

The benchmark runs on a shared host whose speed drifts: the same request
can take 1.6-1.8 times as long a minute later, in phases that last from
seconds to minutes, while the process is never descheduled (no steal
time; CPU time tracks wall time). Medians within a run cannot remove a
drift that covers the whole run, so every timed figure is also scaled by
the host's speed at the time it was taken.

`kernel()` is a fixed piece of work that does not touch the program: small
dense linear algebra, long-array arithmetic, float formatting and
interpreter-bound object churn, the kinds of work gradnotch does. Their
shares (about 50%, 40% and 10% of its time) are the ones whose scaled
latencies of eig, field, equilibrium, sweep and check requests varied
least over four minutes in which the raw ones varied by 44-70%. A run
times it every SAMPLE_EVERY_S seconds between requests, and inside a
request that runs longer than IN_FLIGHT_AFTER_S from a SIGALRM handler on
the main thread (`during`); the time those in-flight samples take is taken
out of the request's latency. A latency measured between t0 and t1 is
multiplied by REFERENCE_S over the median kernel time of the samples
within WINDOW_S of that interval. `sweep` requests, which run on two
threads, are scaled by samples of the kernel on two threads, taken right
before and after each sweep. The result reads as the latency on the
host at its reference speed, in the same unit.

`setup_s` is scaled the same way, but by a start-up kernel: a fresh
interpreter that imports a fixed set of standard-library modules
(STARTUP_KERNEL), launched right after each timed launch; the kernel
above, timed in the parent, does not follow how long a fresh interpreter
takes to start.

On the reference machine the scaled figures of a fixed request list moved by 4-22%
over minutes in which the raw ones moved by 20-90%: the kernel follows
most, not all, of the drift.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# kernel time on an unloaded core of the reference machine (shared 2-vCPU
# Intel Xeon virtual machine, Python 3.11.7, numpy 2.4.6): the scale of every
# normalised figure, not a threshold
REFERENCE_S = 0.004
# start-up kernel and its launch time on the quiet reference host
STARTUP_KERNEL = ("import argparse, asyncio, dataclasses, decimal, "
                  "email.parser, fractions, json, statistics, unittest")
STARTUP_REFERENCE_S = 0.11
SAMPLE_EVERY_S = 0.25
IN_FLIGHT_AFTER_S = 0.5
WINDOW_S = 1.0
# a factor needs at least this many samples; the nearest ones are taken
# when the window holds fewer
MIN_SAMPLES = 3
WARMUP = 2


class _Term:
    __slots__ = ("re", "im", "tags")

    def __init__(self, re, im, tags):
        self.re, self.im, self.tags = re, im, tags

    def mul(self, other):
        return _Term(self.re * other.re - self.im * other.im,
                     self.re * other.im + self.im * other.re,
                     {**self.tags, **other.tags})


def kernel() -> float:
    """The calibration work; returns a value so that none of it is dead."""
    acc = 0.0
    rng = np.random.default_rng(1)
    x = np.linspace(-1.0, 1.0, 200)
    for k in range(16):
        s = np.linalg.svd(rng.standard_normal((8, 8)), compute_uv=False)
        y = np.cos((3 + k) * x) * np.exp(x) + x ** 3
        acc += float(s[-1]) + float(y.sum())
        acc += sum(math.sin(i * 0.01) * i for i in range(300))
        acc += len(",".join("%.17g" % v for v in y[:40]))
    r = np.linspace(0.1, 4.0, 5000)
    for k in range(3):
        c = [np.cos((k + j) * r) for j in range(4)]
        y = (c[0] * r ** 1.5 + c[1] * np.log(r)) * c[2] - c[3] / r
        acc += float(np.abs(y).max())
    acc += len("\n".join(",".join(repr(float(v)) for v in row)
                         for row in y[:1200].reshape(-1, 20)))
    terms = [_Term(math.cos(i), math.sin(i), {i % 7: i}) for i in range(400)]
    p = terms[0]
    for t in terms[1:]:
        p = p.mul(t)
    groups = {}
    for t in terms:
        groups.setdefault(round(t.re, 1), []).append(t.im)
    return acc + p.re + sum(len(v) for v in groups.values())


class HostSpeed:
    """Kernel timings over a run, and the speed factors they give.

    With threads=2 each sample runs the kernel on two threads at once, as
    the CLI's `sweep` runs on its two-worker pool: the GIL serialises the
    two, so on the reference host a sample takes 2 x REFERENCE_S, and its
    time also follows how fast the host hands the GIL between two cores,
    which a one-thread sample does not see. Call close() when done.
    """

    def __init__(self, threads: int = 1):
        self.times = []        # sample mid-points, increasing
        self.samples = []      # kernel seconds
        self.reference_s = threads * REFERENCE_S
        self._pool = (ThreadPoolExecutor(max_workers=threads)
                      if threads > 1 else None)
        self._threads = threads
        # the first calls load and warm what the kernel uses
        for _ in range(WARMUP):
            self._run()

    def _run(self) -> None:
        if self._pool is None:
            kernel()
        else:
            for f in [self._pool.submit(kernel)
                      for _ in range(self._threads)]:
                f.result()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._run()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.samples.append(t1 - t0)

    def maybe_sample(self) -> None:
        """Sample if the last sample is SAMPLE_EVERY_S old or more."""
        if not self.times or \
                time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    @contextlib.contextmanager
    def during(self):
        """Sample while the block runs, once it has run IN_FLIGHT_AFTER_S.

        Yields a list of the wall time each in-flight sample took, for the
        caller to take out of the block's time. Call from the main thread.
        """
        taken = []

        def on_alarm(signum, frame):
            t0 = time.perf_counter()
            self.sample()
            taken.append(time.perf_counter() - t0)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, IN_FLIGHT_AFTER_S,
                         SAMPLE_EVERY_S)
        try:
            yield taken
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, t0: float, t1: float) -> float:
        """The reference time over the median sample around [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = 0.5 * (t0 + t1)
            near = sorted(range(len(self.times)),
                          key=lambda i: abs(self.times[i] - mid))
            chosen = [self.samples[i] for i in near[:MIN_SAMPLES]]
        else:
            chosen = self.samples[lo:hi]
        return self.reference_s / statistics.median(chosen)
