"""Calibration kernel run between operations to track the speed of the core.

On a shared virtual machine the same code can run at half speed for tens of
seconds and then recover; wall and CPU time move together, so neither
removes it.  A fixed kernel that does the three kinds of work the workloads
do (a Python loop around small NumPy calls, small dense SVDs, elementwise
transcendental functions on a medium array) slows down by about the same
factor.  It uses NumPy only, never oscquad, so a change to the program does
not change it.  The benchmark runs it every ``INTERVAL_S`` seconds during the
timed loop and around each set-up, and reports every time at the nominal
speed: a measured wall time t becomes ``t * NOMINAL_S / k``, where k is the
median kernel time near the moment t was measured.  The raw wall times are
printed beside.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 1.0e-3  # reported times count one kernel call as this long
INTERVAL_S = 0.02
NEIGHBOURS = 5


class Calibrator:
    """Kernel timings with their time stamps, and the scale they imply."""

    def __init__(self):
        rng = np.random.default_rng(20191220)
        self._rows = rng.random((24, 24))
        self._vec = rng.random(24)
        self._matrix = rng.random((24, 24)) + 1j * rng.random((24, 24))
        self._array = rng.random(6000) + 0.5
        self.stamps = []
        self.durations = []
        self._last = -np.inf

    def _kernel(self) -> float:
        rows, vec, acc = self._rows, self._vec, 0.0
        for i in range(200):
            acc += float(np.dot(rows[i % 24], vec))
        for _ in range(2):
            acc += float(np.linalg.svd(self._matrix)[1][0])
        acc += float(np.abs(np.sum(np.exp(37j * self._array) * self._array**0.3)))
        return acc

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.stamps.append(0.5 * (t0 + t1))
        self.durations.append(t1 - t0)
        self._last = t1

    def maybe_sample(self, now: float) -> None:
        if now - self._last >= INTERVAL_S:
            self.sample()

    def scale(self, moments) -> np.ndarray:
        """Factor NOMINAL_S / k for each moment, k being the median of the
        NEIGHBOURS kernel timings nearest to it in time."""
        stamps = np.asarray(self.stamps)
        durations = np.asarray(self.durations)
        moments = np.atleast_1d(np.asarray(moments, dtype=float))
        if stamps.size == 0:
            raise RuntimeError("no calibration samples")
        half = NEIGHBOURS // 2
        idx = np.searchsorted(stamps, moments)
        lo = np.clip(idx - half - 1, 0, max(stamps.size - NEIGHBOURS, 0))
        out = np.empty(moments.size)
        for j, start in enumerate(lo):
            out[j] = NOMINAL_S / np.median(durations[start:start + NEIGHBOURS])
        return out

    def median_s(self) -> float:
        return float(np.median(self.durations))
