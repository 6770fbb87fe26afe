"""Reference kernel that reads how fast the machine runs right now.

On a shared host the same code runs up to ~1.7x faster or slower from one
minute to the next, because co-tenants contend for the cores beneath us;
process CPU time follows wall time, so it offers no escape. The benchmark
therefore runs this fixed kernel between every two pieces of work and
rescales each piece's time to the speed at which the kernel takes
REF_SECONDS:

    calibrated = measured * REF_SECONDS / kernel time around the piece

The kernel mixes the two kinds of work the workloads do: interpreter
loops over scalar float math (barrier rows, QP, filter, env) and
single-threaded BLAS matmuls at training batch shapes (learner). It touches no package code, so a change to the package
cannot move it. Raw times are kept next to calibrated ones in the result
files.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Kernel time that defines one calibrated second: the median kernel time
# measured on a shared 2-core Intel Xeon host. Changing it rescales every figure.
REF_SECONDS = 0.5e-3
REPEATS = 3

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(128, 32))
_W = _rng.normal(size=(32, 64))
_OUT = np.empty((128, 64))


def reference_seconds() -> float:
    """Median wall time of REPEATS kernel runs; the median drops a preempted run."""
    return sorted(_kernel() for _ in range(REPEATS))[REPEATS // 2]


def _kernel() -> float:
    # allocates no arrays, so the state the workload left the allocator in
    # cannot change the reading
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1000):
        x = math.hypot(i * 0.25, 3.0)
        acc = (acc + x * 1e-3 + math.sqrt(x)) % 1000.0
    for _ in range(16):
        np.matmul(_X, _W, out=_OUT)
    if not math.isfinite(acc + _OUT[0, 0]):  # keeps the result live; never true
        raise FloatingPointError("reference kernel diverged")
    return time.perf_counter() - t0


def speed_factor(kernel_seconds) -> float:
    """REF_SECONDS over the mean of the kernel times that bracket a piece of work."""
    return REF_SECONDS / (sum(kernel_seconds) / len(kernel_seconds))
