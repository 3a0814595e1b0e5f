"""Time the linear head: ``loss_and_grad`` per call and ``train_linear`` per epoch.

Problems are seeded, d = 8 and C = 3 soft labels, at 30, 300 and 3000 rows,
the shape of the teacher, curriculum and fine-tune stages.  Each case is
warmed up once, then timed in 7 repeats of a fixed number of calls; the JSON
gives the median and the interquartile range of the repeats in microseconds,
with the numpy, scipy and BLAS versions, ``os.cpu_count()`` and the BLAS
thread environment, which moves these numbers.  No timing is gated.

Usage: PYTHONPATH=src python scripts/bench_head.py [--out BENCH_head.json]
"""

import argparse
import json
import os
import platform
import time

import numpy as np
import scipy

from graphain.classifier import TrainConfig, loss_and_grad, train_linear
from graphain.labels import SoftLabelMatrix

ROWS = (30, 300, 3000)
DIM = 8
CLASSES = 3
REPEATS = 7
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _problem(rows):
    rng = np.random.default_rng(rows)
    h = rng.standard_normal((rows, DIM))
    y = rng.dirichlet(np.ones(CLASSES), size=rows)
    w = rng.standard_normal((DIM, CLASSES))
    return h, y, w


def _stats(samples):
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"median": float(median), "iqr": float(q3 - q1), "samples": samples}


def _timed(fn, count):
    """Microseconds per unit over ``REPEATS`` repeats of ``fn()``, which does
    ``count`` units, after one untimed call."""
    fn()
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e6 / count)
    return _stats(samples)


def bench_rows(rows):
    h, y, w = _problem(rows)
    labels = SoftLabelMatrix(y=y, masked=np.zeros(rows, dtype=bool))
    include = np.arange(rows)
    count = max(50, 60000 // rows)
    cfg = TrainConfig(lr=0.5, epochs=count, weight_decay=5e-4)

    def calls():
        for _ in range(count):
            loss_and_grad(h, y, w, 5e-4)

    def epochs():
        train_linear(h, labels, include, cfg)

    return {
        "rows": rows,
        "calls_per_repeat": count,
        "loss_and_grad_us_per_call": _timed(calls, count),
        "train_linear_us_per_epoch": _timed(epochs, count),
    }


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var, "default") for var in THREAD_VARS},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_head.json")
    args = parser.parse_args()
    report = {
        "case": "head",
        "dim": DIM,
        "classes": CLASSES,
        "repeats": REPEATS,
        "unit": "us",
        "environment": environment(),
        "results": [bench_rows(rows) for rows in ROWS],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for r in report["results"]:
        print(
            f"rows {r['rows']:>5}: loss_and_grad "
            f"{r['loss_and_grad_us_per_call']['median']:8.1f} us/call, train_linear "
            f"{r['train_linear_us_per_epoch']['median']:8.1f} us/epoch"
        )


if __name__ == "__main__":
    main()
