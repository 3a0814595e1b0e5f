"""Time the rsoft forward pass per layer at the paper's depth and at a large n.

Two cases, both at the default propagation config with the ``deep``
benchmark's fuzzy decays (p = q = 0.5):

n300_L10000  the default 3x100 cluster graph (n = 300), L = 10^4 layers, the
             paper's depth;
n9000_L64    a 3x3000 cluster graph (n = 9000) at the ``wide`` benchmark
             spec's mean degree (about 11), L = 64 layers.

Each case times ``run_fuzzy_r_softgraphain`` with the reducer already made:
one untimed call, then 7 repeats of one call.  The JSON gives the median and
the interquartile range of the repeats in microseconds per layer, with the
numpy, scipy and BLAS versions, ``os.cpu_count()`` and the BLAS thread
environment.  These are raw wall-clock times: a busy or throttled host moves
them, so compare runs taken back to back.  No timing is gated.

The report holds one entry per ``--label`` under ``runs``; running with a new
label adds it to an existing report, so the numbers of two versions of the
code sit side by side (run each with its own ``src`` on ``PYTHONPATH``).

Usage: PYTHONPATH=src:scripts python scripts/bench_layers.py [--out BENCH_layers.json] [--label current]
"""

import argparse
from pathlib import Path

from bench_aux import _timed
from bench_head import REPEATS
from bench_io import record_run
from graphain.classifier import make_reducer
from graphain.config import build_experiment_config
from graphain.graph import normalized_adjacency
from graphain.propagation import run_fuzzy_r_softgraphain
from graphain.synthetic import SyntheticSpec, gen_gaussian_cluster_graph

CASES = {
    "n300_L10000": dict(
        spec=dict(clusters=3, nodes_per_cluster=100, intra_p=0.3, inter_p=0.02),
        layers=10_000,
    ),
    "n9000_L64": dict(
        spec=dict(clusters=3, nodes_per_cluster=3000, intra_p=0.01 / 3, inter_p=0.0005 / 3),
        layers=64,
    ),
}


def bench(name):
    case = CASES[name]
    g = gen_gaussian_cluster_graph(SyntheticSpec(**case["spec"], seed=0))
    cfg = build_experiment_config(
        {"propagation.layers": str(case["layers"]), "propagation.p": "0.5", "propagation.q": "0.5"},
        source=f"bench_layers {name}",
    )
    reducer = make_reducer(g.feature_dim, cfg.embedding_dim, 0)
    ms = _timed(lambda: run_fuzzy_r_softgraphain(g, cfg.propagation, reducer=reducer))
    scale = 1e3 / case["layers"]
    return {
        "case": name,
        "n": g.n,
        "operator_nnz": normalized_adjacency(g).matrix.nnz,
        "width": cfg.embedding_dim,
        "layers": case["layers"],
        "us_per_layer": {
            "median": ms["median"] * scale,
            "iqr": ms["iqr"] * scale,
            "samples": [sample * scale for sample in ms["samples"]],
        },
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_layers.json")
    parser.add_argument("--label", default="current")
    args = parser.parse_args()
    results = [bench(name) for name in CASES]
    record_run(
        Path(args.out),
        {"case": "layers", "repeats": REPEATS, "unit": "us per layer"},
        args.label,
        results,
    )
    for r in results:
        print(
            f"{args.label}: {r['case']} (n {r['n']}, L {r['layers']}): "
            f"{r['us_per_layer']['median']:.1f} us/layer, iqr {r['us_per_layer']['iqr']:.1f}"
        )


if __name__ == "__main__":
    main()
