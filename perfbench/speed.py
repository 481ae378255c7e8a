"""Reference seconds: operation times corrected for the machine's speed.

On a shared machine the same work can take a third longer in one minute than
in the next, and Python-bound and BLAS-bound work slow down independently of
each other, so a run's wall time says as much about its neighbours as about
platoonkit.  `RefClock` samples both speeds with fixed kernels that share no
code with platoonkit: a Python loop of 8x8 matrix-vector products, like the
simulate loop ("py"), and a chain of 192x192 matrix products, like the Jacobi
rotations of a large eig_sym ("blas").  It samples at most every INTERVAL
seconds of operation time: at operation boundaries and, where hooks call
`checkpoint`, inside an operation.  Each stretch of an operation between two
samples is divided by the mean speed factor of the operation's kind at the
stretch's ends.  Factor 1 means a kernel ran in its reference time, so
reference seconds read like wall seconds on the reference machine.  Kernel
time is never part of an operation's time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: seconds of operation time between two speed samples
INTERVAL = 1.0
#: kernel times, in seconds, that define speed factor 1: medians on the
#: 2-core machine the README reference figures come from
REFERENCE_S = {"py": 0.023, "blas": 0.0050}
KINDS = tuple(REFERENCE_S)

_REPEATS = 4  # each kernel runs this often per sample; the median counts
_PY_STEPS = 4000
_BLAS_STEPS = 6


class RefClock:
    def __init__(self):
        self._clock = time.perf_counter
        self._m = np.full((8, 8), 0.1) - np.eye(8)
        self._a = np.random.default_rng(0).standard_normal((192, 192)) / 14.0
        self.samples: list = []  # kernel seconds (py, blas) of every sample
        self._sample()  # the first products of a size run several times slower
        self.samples.clear()
        self.factor = self._sample()
        self.kind = "py"
        self._since = 0.0
        self._mark = self._clock()
        self.raw = self.ref = 0.0

    def _py(self) -> None:
        x = np.ones(8)
        for _ in range(_PY_STEPS):
            x = x + 1e-3 * (self._m @ x)
            float(np.linalg.norm(x))

    def _blas(self) -> None:
        b = self._a
        for _ in range(_BLAS_STEPS):
            b = self._a.T @ b @ self._a
            b /= np.abs(b).max()

    def _sample(self) -> dict:
        clock = self._clock
        seconds = {}
        for kind, kernel in (("py", self._py), ("blas", self._blas)):
            times = []
            for _ in range(_REPEATS):
                t0 = clock()
                kernel()
                times.append(clock() - t0)
            seconds[kind] = statistics.median(times)
        self.samples.append((seconds["py"], seconds["blas"]))
        return {kind: seconds[kind] / REFERENCE_S[kind] for kind in KINDS}

    def py_factor(self) -> float:
        """Mean "py" speed factor of every sample so far: the correction for
        Python-bound work that ran apart from any operation (set-up)."""
        return statistics.mean(py for py, _ in self.samples) / REFERENCE_S["py"]

    def start(self, kind: str = "py") -> None:
        """Begin timing one operation, bound by the `kind` of work."""
        self.kind = kind
        self.raw = self.ref = 0.0
        self._mark = self._clock()

    def checkpoint(self) -> None:
        """Close the current stretch; sample the speed if INTERVAL seconds of
        operation time have passed since the last sample."""
        seg = self._clock() - self._mark
        self._since += seg
        self.raw += seg
        before = self.factor[self.kind]
        if self._since >= INTERVAL:
            self.factor = self._sample()
            self._since = 0.0
        self.ref += seg / (0.5 * (before + self.factor[self.kind]))
        self._mark = self._clock()

    def stop(self) -> tuple:
        """End the operation; return its (measured, reference) seconds."""
        self.checkpoint()
        return self.raw, self.ref
