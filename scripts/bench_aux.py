"""Time the two O(n^2) stages of a seed: the cluster graph generator and the
kNN auxiliary graph.

``gen_gaussian_cluster_graph`` runs on the benchmark's ``wide`` (3x1000) and
``files`` (3x500, 32-wide features) specs; ``build_knn_aux_graph`` runs on
seeded Gaussian vectors at n = 1500, 3000 and 9000, d = 8, k = 7.  Each case
is warmed up once, then timed in 7 repeats of one call; the JSON gives the
median and the interquartile range of the repeats in milliseconds, with the
numpy, scipy and BLAS versions, ``os.cpu_count()`` and the BLAS thread
environment, which moves these numbers.  Each kNN case also records the
``tracemalloc`` peak of one more, untimed call, in MB (10^6 bytes): the
memory the call allocates beyond its input.  No figure is gated.

Usage: PYTHONPATH=src python scripts/bench_aux.py [--out BENCH_aux.json]
"""

import argparse
import json
import time
import tracemalloc

import numpy as np

from bench_head import REPEATS, _stats, environment
from graphain.curriculum import build_knn_aux_graph
from graphain.synthetic import SyntheticSpec, gen_gaussian_cluster_graph

GENERATOR_SPECS = {
    "wide": dict(clusters=3, nodes_per_cluster=1000, intra_p=0.01, inter_p=0.0005),
    "files": dict(
        clusters=3, nodes_per_cluster=500, intra_p=0.05, inter_p=0.005, centers_dim=32
    ),
}
KNN_ROWS = (1500, 3000, 9000)
KNN_DIM = 8
KNN_K = 7


def _timed(fn):
    """Milliseconds per call over ``REPEATS`` calls of ``fn()``, after one
    untimed call."""
    fn()
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return _stats(samples)


def _peak_mb(fn):
    """``tracemalloc`` peak of one call of ``fn()``, in MB."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def bench_generator(name):
    spec = SyntheticSpec(**GENERATOR_SPECS[name], seed=0)
    return {
        "spec": name,
        "n": spec.clusters * spec.nodes_per_cluster,
        "gen_ms_per_call": _timed(lambda: gen_gaussian_cluster_graph(spec)),
    }


def bench_knn(n):
    vectors = np.random.default_rng(n).standard_normal((n, KNN_DIM))

    def call():
        build_knn_aux_graph(vectors, KNN_K, 1.0)

    return {
        "n": n,
        "dim": KNN_DIM,
        "k": KNN_K,
        "knn_ms_per_call": _timed(call),
        "knn_tracemalloc_peak_mb": _peak_mb(call),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_aux.json")
    args = parser.parse_args()
    report = {
        "case": "aux",
        "repeats": REPEATS,
        "unit": "ms",
        "environment": environment(),
        "generator": [bench_generator(name) for name in GENERATOR_SPECS],
        "knn": [bench_knn(n) for n in KNN_ROWS],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for r in report["generator"]:
        print(f"generator {r['spec']:>5} (n {r['n']:>4}): "
              f"{r['gen_ms_per_call']['median']:7.1f} ms/call")
    for r in report["knn"]:
        print(f"knn n {r['n']:>4}, d {r['dim']}, k {r['k']}: "
              f"{r['knn_ms_per_call']['median']:7.1f} ms/call, "
              f"tracemalloc peak {r['knn_tracemalloc_peak_mb']:6.1f} MB")


if __name__ == "__main__":
    main()
