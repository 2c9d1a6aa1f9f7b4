"""Core-speed probe behind wall_norm_s.

On a shared machine the speed of a core drifts by 10-30 % within seconds,
so pass wall times alone spread too widely between runs to gate on. While a pass runs, SIGALRM interrupts
every process doing its work every INTERVAL_S and times a fixed kernel
(kernel() below, written here so that it never changes with the package).
The pass time minus the probe's own time, scaled by NOMINAL_S over the mean
kernel time, is the pass time at a nominal core speed.

Pool workers forked during a pass arm their own timer (an at-fork hook) and
add their kernel timings to shared memory, so the grid workload's pool is
measured on the cores it runs on.
"""

from __future__ import annotations

import contextlib
import os
import signal
import time
from multiprocessing import Lock
from multiprocessing.sharedctypes import RawArray, RawValue

import numpy as np
from scipy.linalg import get_lapack_funcs

INTERVAL_S = 0.25
KERNEL_STEPS = 400
# About the kernel() time on the 2-vCPU Intel Xeon (2.1 GHz) the benchmark
# was tuned on (11-14.5 ms in its runs). It only sets the unit of wall_norm_s.
NOMINAL_S = 0.013
SLOTS = 16  # slot 0: this process; 1..: forked workers

_gttrf, _gttrs = get_lapack_funcs(("gttrf", "gttrs"), (np.zeros(3),))


def kernel(n: int = 800, steps: int = KERNEL_STEPS) -> None:
    """Fixed work shaped like a harvestcomp step loop: one tridiagonal solve
    and a few small array operations per iteration, run by the interpreter."""
    dl = np.full(n - 1, -1.0)
    factors = _gttrf(dl, np.full(n, 3.0), dl)[:5]
    x = np.linspace(1.0, 2.0, n)
    c = np.linspace(0.9, 1.1, n)
    for _ in range(steps):
        y, _info = _gttrs(*factors, x)
        x = y * (1.0 + 0.01 * c - 0.01 * y)
        np.maximum(x, 0.0, out=x)
        float(np.max(np.abs(x - y)))


class SpeedProbe:
    """Times kernel() every INTERVAL_S while armed, in this process (unless
    in_self is False) and in every process it forks meanwhile. snapshot()
    returns the running (seconds, count) totals per process."""

    def __init__(self):
        self._acc = RawArray("d", 2 * SLOTS)
        self._next = RawValue("i", 0)
        self._lock = Lock()
        self._slot = 0
        self._armed = False
        self.ticks: list[tuple[float, float]] = []  # (start, end) in this process, last arming
        os.register_at_fork(after_in_child=self._after_fork)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self._acc[2 * self._slot] += t1 - t0
        self._acc[2 * self._slot + 1] += 1
        self.ticks.append((t0, t1))

    def _after_fork(self):
        if not self._armed:
            return
        with self._lock:
            # slots of workers that have exited are reused; totals only grow
            self._slot = 1 + self._next.value % (SLOTS - 1)
            self._next.value += 1
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    @contextlib.contextmanager
    def armed(self, in_self: bool = True):
        self.ticks = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._armed = True
        if in_self:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._armed = False
            signal.signal(signal.SIGALRM, previous)

    def snapshot(self) -> np.ndarray:
        return np.array(self._acc[:]).reshape(SLOTS, 2)


def busy(wall: float, probed: np.ndarray) -> float:
    """A pass's wall time less the probe's share: its kernel time divided
    over the processes that ran it in parallel. probed holds the pass's
    (seconds, count) per process."""
    procs = int((probed[:, 1] > 0).sum())
    return wall - probed[:, 0].sum() / procs if procs else wall


def normalized(wall: float, probed: np.ndarray) -> float:
    """A pass at nominal core speed: busy() times NOMINAL_S over the mean
    kernel time. A pass too short for a tick is scaled by five kernel calls
    timed now."""
    seconds, count = probed[:, 0].sum(), probed[:, 1].sum()
    if count == 0:
        t0 = time.perf_counter()
        for _ in range(5):
            kernel()
        seconds, count = time.perf_counter() - t0, 5
    return busy(wall, probed) * NOMINAL_S * count / seconds
