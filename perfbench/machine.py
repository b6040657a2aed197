"""A fixed reference loop that measures how fast the machine runs right now.

On a machine shared with other tenants the same Python code can run up to
twice as slow for minutes at a time, which swamps the differences a
benchmark has to resolve. The benchmark therefore brackets every timed step
with this loop, which does the two kinds of work the evaluator does (small
numpy calls inside a Python loop, and broadcast distance matrices) and never
changes with the program, and scales the step's wall time by ``REF_S`` over
the mean of the two loop times. Reported seconds are thus seconds on a
machine where the loop takes ``REF_S``.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.006  # nominal duration of one sample() call, seconds
_SCALAR_ITERATIONS = 300
_MATRIX_ITERATIONS = 8


class SpeedProbe:
    def __init__(self):
        self._grid = np.linspace(0.0, 100.0, 400)
        self._cap = np.sqrt(1.0 + self._grid)
        rng = np.random.default_rng(0)
        self._pts = rng.normal(size=(60, 2))
        self._a = rng.normal(size=(121, 2))
        self._b = rng.normal(size=(121, 2))

    def sample(self) -> float:
        """Wall seconds of one run of the reference loop."""
        grid, cap, pts = self._grid, self._cap, self._pts
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(_SCALAR_ITERATIONS):
            c = np.interp([i * 0.3, i * 0.3 + 0.1], grid, cap)
            acc += float(np.clip(acc * 1e-3 + c[0], 0.0, 5.0)) + min(float(c[1]), 3.0)
            d = pts[1:] - pts[:-1]
            acc += float(np.hypot(d[:, 0], d[:, 1]).sum()) * 1e-3
        for _ in range(_MATRIX_ITERATIONS):
            diff = self._a[:, None, :] - self._b[None, :, :]
            acc += float(np.sqrt((diff * diff).sum(axis=-1)).min())
        elapsed = time.perf_counter() - t0
        if not acc > 0.0:  # keeps the loop's result live
            raise RuntimeError("reference loop produced no result")
        return elapsed

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        """``seconds`` of wall time between two samples, in reference seconds."""
        return seconds * REF_S / (0.5 * (before + after))
