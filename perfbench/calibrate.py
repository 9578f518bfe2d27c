"""Host-speed calibration: a fixed piece of work timed between passes.

The benchmark runs on shared VMs whose speed drifts.  On a 2-vCPU Xeon VM,
with the CPU steal under 1%, the same pass ran a quarter faster or slower
from one minute to the next, and interpreter start-up moved with it.
run.py times ``calibrate()`` before every pass and once after the last, in
its own process, which never imports scarkit, so no change to the library
can move the calibration.  ``wall_s`` and ``setup_s`` are scaled by
``REFERENCE_S / median calibration time`` of the run: they read as seconds
on a host where the calibration takes ``REFERENCE_S``.  The raw times stay in
the run record and on stdout.

The work mixes the two kinds the workloads do: pure-Python dict, tuple and
integer work like the builders, the hop graph and interpreter start-up, and
LAPACK/BLAS calls (SVD, matrix product) on the thread pool the passes use.
"""

from __future__ import annotations

import time

import numpy as np

# About the median calibration time on the reference host: a 2-vCPU Intel
# Xeon VM, Python 3.11.7, numpy 2.4.6 with OpenBLAS 0.3.31, 2 BLAS threads.
REFERENCE_S = 0.40

_MATRIX = np.random.default_rng(0).standard_normal((400, 400))


def calibrate() -> float:
    """Seconds this host takes for the fixed calibration work now."""
    t0 = time.perf_counter()
    table = {}
    for i in range(400_000):
        table[(i * 7919) % 400_009] = (i, i ^ 0x55)
    total = sum(a + b for a, b in table.values())
    for _ in range(4):
        np.linalg.svd(_MATRIX)
        _MATRIX @ _MATRIX
    elapsed = time.perf_counter() - t0
    if total <= 0:                       # keeps the loop's result in use
        raise AssertionError("calibration sum is not positive")
    return elapsed
