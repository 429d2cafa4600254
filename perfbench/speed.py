"""Machine-speed probe for timing on a shared, noisy host.

On a box whose cores are shared with other tenants, the same operation can
take 1.5 times longer from one minute to the next, because the whole core
runs slower, not because the program changed.  The probe measures that
speed while the program runs: every ``INTERVAL_S`` of wall time a SIGALRM
handler (which runs in the main thread, between bytecodes) times a fixed
kernel of small numpy gathers, products and ``reduceat`` sums plus a short
pure-Python loop, the same mix of interpreter and small-array work the jet
arithmetic does.  The kernel does not use pbhverify, so no change to the
program can move it.

``normalize`` turns a wall time into seconds at reference speed:

    (wall - time spent in the probe) * mean(K_REF_S / kernel time)

which is the wall time the same work would take if every sample had run at
the kernel's reference speed ``K_REF_S``.  A slower program gives a
proportionally larger value; a slower machine does not.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# The kernel's median time on the 2-vCPU development host when unloaded.
K_REF_S = 6e-4


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((8, 4, 35))
        self._b = rng.standard_normal((8, 4, 35))
        self._ia = rng.integers(0, 35, 200)
        self._ib = rng.integers(0, 35, 200)
        self._starts = np.concatenate(
            [[0], np.sort(rng.choice(np.arange(1, 200), 34, replace=False))])
        self._coef = rng.standard_normal(200)
        self.samples = []
        self.busy_s = 0.0
        self._previous = None

    def kernel(self) -> float:
        t0 = time.perf_counter()
        s = 0
        for _ in range(12):
            p = self._a[..., self._ia] * self._b[..., self._ib]
            np.add.reduceat(p * self._coef, self._starts, axis=-1)
            for j in range(100):
                s += j * j % 7
        return time.perf_counter() - t0

    def _sample(self, signum, frame):
        dt = self.kernel()
        self.samples.append(dt)
        self.busy_s += dt

    def __enter__(self):
        self.samples, self.busy_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        # one sample after the interval, so that even a short one has one
        self.samples.append(self.kernel())
        return False

    def normalize(self, wall_s: float) -> float:
        return normalize(wall_s, self.busy_s, self.samples)


def normalize(wall_s, busy_s, samples):
    return (wall_s - busy_s) * statistics.fmean(K_REF_S / k for k in samples)
