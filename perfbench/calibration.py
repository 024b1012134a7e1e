"""Scale wall times to a reference machine speed.

On a shared host the same code runs up to 1.7x slower for tens of seconds at
a time, so raw wall times of runs made minutes apart differ more than any
bound worth gating on. A fixed kernel that never touches ``studyclip``
(numpy element-wise work on an array shaped like the image encoder's
activations, about 20 ms) is timed between successive samples. Of the kernels
tried, this one tracked the program best: across six processes the spread of
the program's scaled epoch and evaluation times was 3-4%, against 6-14% raw.
Kernels with a BLAS call tracked worse: with OpenBLAS threads, a small matrix
product takes 0.3 to 12 ms depending on whether the worker threads are awake.

Each sample's wall time is multiplied by ``REFERENCE_S`` over the mean of the
kernel times on either side of it: the result is the time the sample would
have taken on a machine where the kernel takes ``REFERENCE_S``. A change to
``studyclip`` should not move the kernel, and then it moves a scaled time by
the same factor as the raw one. But the kernel runs in the program's process,
inside ``train()`` too, so it shares the caches and, after a BLAS call, the
CPUs with the program: a change to threading or memory behaviour can move it.
Every run prints the kernel times (``calibration_kernel_s``) so that this
can be checked. With OpenBLAS worker threads, which keep spinning for about
0.13 s after each threaded call, a kernel run in that window took twice as
long in some processes and not in others; so ``run.py`` runs BLAS on one
thread.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.020  # about the kernel's time on a 2-CPU x86-64 VM with AVX-512


class Clock:
    """Times the kernel between samples; ``factor()`` closes a sample."""

    def __init__(self, enabled: bool = True):
        self._x = np.random.default_rng(0).standard_normal((24, 15, 15, 16))
        # preallocated, so that the kernel's time does not depend on the allocator's state
        self._y = np.empty_like(self._x)
        self.enabled = enabled
        self.kernel_s: list[float] = []
        self.total_s = 0.0  # wall time spent in the kernel
        self._last = self._kernel() if enabled else REFERENCE_S

    def _kernel(self) -> float:
        y = self._y
        start = time.perf_counter()
        for _ in range(8):
            np.multiply(self._x, 8.0, out=y)
            np.logaddexp(0.0, y, out=y)
            np.abs(y, out=y)
            np.exp(np.negative(y, out=y), out=y)
            float(y.sum())
        elapsed = time.perf_counter() - start
        self.total_s += elapsed
        self.kernel_s.append(elapsed)
        return elapsed

    def factor(self) -> float:
        """Reference time per wall second for the sample that ended just now."""
        if not self.enabled:
            return 1.0
        before, self._last = self._last, self._kernel()
        return REFERENCE_S / (0.5 * (before + self._last))
