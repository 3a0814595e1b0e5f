"""Fixed reference kernels that gauge how fast the host runs right now.

The benchmark's host is shared with other tenants.  Their load slows a
computation by up to twice, for stretches of tens of seconds, and it slows
interpreter-bound and BLAS-bound code by different amounts.  So even the
fastest operation of a run moves by 20-30% from run to run.

The benchmark therefore runs every kernel below once before its first timed
step and again after each one.  A gauge's slowdown is the mean, over the
kernels, of a kernel's time over its nominal time; a step's slowdown is the
mean of the gauges on either side of it, and its time at nominal host speed
is its wall time over its slowdown.  The kernels cover the kinds of code graphain spends its time
in, so that their mean tracks the slowdown of all three workloads:

rotations  Givens rotations on a small array in a Python loop: small numpy
           calls, like a Jacobi eigensolver.
python     a pure-Python integer loop: the interpreter alone.
dense      a 600 x 600 Gram matrix and a row-wise sort: BLAS and memory,
           like a dense kNN graph.
eigh       LAPACK eigendecomposition of a 300 x 300 symmetric matrix, like a
           dense reference spectrum.

The kernels are the benchmark's own code and do not change with graphain.
Their nominal times are fixed; they only set the scale of the normalised
times (roughly the kernels' times on the unloaded 2-vCPU Xeon host the
benchmark was written on).
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((600, 64))
_S = _RNG.standard_normal((300, 300))
_S = _S @ _S.T
# preallocated, so that the kernels add little to the peak RSS of a run
_GRAM = np.empty((600, 600))
_ROWS = np.empty((600, 600))


def _rotations() -> None:
    a = np.eye(6) + 0.1
    for _ in range(200):
        for p in range(5):
            for q in range(p + 1, 6):
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = 0.8 * col_p - 0.6 * col_q
                a[:, q] = 0.6 * col_p + 0.8 * col_q
        a /= float(np.linalg.norm(a))


def _python() -> None:
    total = 0
    for i in range(250_000):
        total += i * i % 7


def _dense() -> None:
    for _ in range(8):
        np.matmul(_X, _X.T, out=_GRAM)
        np.copyto(_ROWS, _GRAM)
        _ROWS.sort(axis=1)


def _eigh() -> None:
    for _ in range(2):
        np.linalg.eigh(_S)


KERNELS = {  # name: (kernel, nominal seconds)
    "rotations": (_rotations, 0.013),
    "python": (_python, 0.016),
    "dense": (_dense, 0.016),
    "eigh": (_eigh, 0.014),
}


def kernel_slowdowns() -> list:
    """Run every kernel once; returns each one's time over its nominal time."""
    ratios = []
    for fn, nominal_s in KERNELS.values():
        start = time.perf_counter()
        fn()
        ratios.append((time.perf_counter() - start) / nominal_s)
    return ratios
