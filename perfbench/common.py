"""Shared helpers: statistics, the scipy correctness check, results.

The statistics are the benchmark's own, not ``repro``'s, so a change to
the program cannot change how the benchmark scores it.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: Allowed error of a DASP result against scipy CSR, as a multiple of
#: ``(|A| @ |x|)_i`` per output row.  FP64 accumulates in FP64 (observed
#: worst case on the suite ~5e-16); FP16 inputs accumulate in FP32
#: (observed worst case ~1.5e-7).  Both leave >500x headroom for a
#: different summation order and still catch any wrong entry.
TOLERANCE = {np.dtype(np.float64): 1e-12, np.dtype(np.float16): 1e-4}


def geomean(values) -> float:
    vals = [float(v) for v in values]
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def median(values) -> float:
    return float(statistics.median(values))


def high_percentile(values, q: float) -> float:
    """The q-th percentile, or NaN unless >= 10 samples lie beyond it."""
    vals = sorted(values)
    if len(vals) * (1.0 - q / 100.0) < 10:
        return float("nan")
    return float(np.percentile(vals, q))


class Reference:
    """scipy CSR's ``a @ x`` and the per-row error bound for checking it.

    ``a`` holds the matrix values exactly as the kernel consumed them
    (FP16 values widened to FP64), ``x`` likewise; ``x`` may be a vector
    or an ``(n, k)`` block.
    """

    def __init__(self, a, x, dtype) -> None:
        x = np.asarray(x, dtype=np.float64)
        self.ref = a @ x
        self.bound = TOLERANCE[np.dtype(dtype)] * (abs(a) @ np.abs(x))

    def ok(self, y) -> bool:
        y = np.asarray(y, dtype=np.float64)
        return bool(y.shape == self.ref.shape and np.isfinite(y).all()
                    and np.all(np.abs(y - self.ref) <= self.bound))


def matches(y, a, x, dtype) -> bool:
    """Does *y* equal scipy's ``a @ x`` within ``TOLERANCE[dtype]``?"""
    return Reference(a, x, dtype).ok(y)


#: Calibration units that scale the program import (timed at start-up).
IMPORT_UNITS = 5
#: Gather-multiply-segmented-sum rounds in one "gather" unit.
GATHER_ROUNDS = 4
#: Keys in one "unique" unit.
UNIQUE_KEYS = 100_000


class Calibrator:
    """Machine-speed probe for normalizing wall-clock metrics.

    The host this benchmark runs on shares its cores: the same loop runs
    up to ~60% slower for seconds at a time.  One calibration unit is a
    fixed, seeded piece of NumPy work that uses no program code and has
    the shape of the work it calibrates, so its time tracks the
    machine's current speed for that kind of work:

    * ``"gather"`` — gathers, products and segmented sums over ~20 MiB,
      like the DASP kernels on the larger suite plans;
    * ``"unique"`` — ``np.unique`` over int64 keys, like the cost
      model's sector counting that dominates serving and simulation.

    Workloads run units right before each piece of their own work and
    scale that work's wall time by ``REF_S[kind] / unit``: the time it
    would have taken on the reference machine.  Medians of those scaled
    times are far steadier than raw ones (measured: 2% against 6%
    variation between 5 s windows of one process).
    """

    #: Seconds of one unit on the reference machine (a quiet 2.1 GHz
    #: Xeon vCPU).
    REF_S = {"gather": 0.025, "unique": 0.02}

    def __init__(self, kind: str = "gather") -> None:
        rng = np.random.default_rng(20231112)
        self.kind = kind
        if kind == "gather":
            self._a = rng.uniform(-1.0, 1.0, 1 << 18)
            self._idx = rng.integers(0, 1 << 18, 1 << 20)
            self._val = rng.uniform(-1.0, 1.0, 1 << 20)
            self._starts = np.arange(0, 1 << 20, 16)
        else:
            self._keys = rng.integers(0, 1 << 40, UNIQUE_KEYS)
        self.samples: list[float] = []
        self.unit()  # first touch of the arrays and temporaries
        self.samples.clear()

    def unit(self) -> float:
        """Run one unit; returns the factor that puts work timed next to
        it on the reference machine."""
        t0 = time.perf_counter()
        if self.kind == "gather":
            for _ in range(GATHER_ROUNDS):
                np.add.reduceat(self._val * self._a[self._idx], self._starts)
        else:
            np.unique(self._keys)
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        return self.REF_S[self.kind] / seconds

    def import_scale(self) -> float:
        """Factor for the program import, timed before any unit ran."""
        return self.scale(IMPORT_UNITS)

    def scale(self, n: int) -> float:
        """Median factor over *n* units (for work that cannot be paired
        with a single unit, such as a server phase)."""
        return median(self.unit() for _ in range(n))


@dataclass
class Result:
    """What one workload run reports."""

    metrics: dict = field(default_factory=dict)   # name -> value
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    notes: list = field(default_factory=list)      # human-readable lines
    #: traced runs: (per-layer table of the timed part, its wall seconds)
    table: tuple | None = None

    def check(self, ok: bool, what: str) -> None:
        """Count one checked output; a failed one makes the run incorrect."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = False
            self.notes.append(f"MISMATCH: {what}")
