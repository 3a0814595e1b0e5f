"""Time the dataset files: ``load_dataset``, ``save_dataset`` and ``dataset_digest``.

The dataset is the benchmark's ``files`` graph (3x500 nodes, intra_p 0.05,
inter_p 0.005, 32-wide features, seed 0, split 0.1 / 0.2), about 1.15 MB on
disk.  Each call is warmed up once, then timed in 7 repeats of one call; the
JSON gives the median and the interquartile range of the repeats in
milliseconds, with the numpy, scipy and BLAS versions, ``os.cpu_count()`` and
the BLAS thread environment.  No timing is gated.

The report holds one entry per ``--label`` under ``runs``; running with a new
label adds it to an existing report, so the numbers of two versions of the
code sit side by side (run each with its own ``src`` on ``PYTHONPATH``).

Usage: PYTHONPATH=src:scripts python scripts/bench_io.py [--out BENCH_io.json] [--label current]
"""

import argparse
import json
import tempfile
from pathlib import Path

from bench_aux import GENERATOR_SPECS, _timed
from bench_head import REPEATS, environment
from graphain.io import dataset_digest, load_dataset, save_dataset
from graphain.synthetic import SyntheticSpec, gen_gaussian_cluster_graph, with_masks


def bench(directory: Path):
    g = with_masks(
        gen_gaussian_cluster_graph(SyntheticSpec(**GENERATOR_SPECS["files"], seed=0)),
        0.1,
        0.2,
        0,
    )
    save_dataset(g, directory)
    return {
        "n": g.n,
        "edges": g.num_edges,
        "feature_dim": g.feature_dim,
        "bytes": sum(path.stat().st_size for path in directory.iterdir()),
        "load_dataset_ms": _timed(lambda: load_dataset(directory, require_masks=True)),
        "save_dataset_ms": _timed(lambda: save_dataset(g, directory)),
        "dataset_digest_ms": _timed(lambda: dataset_digest(directory)),
    }


def record_run(out: Path, header: dict, label: str, results) -> None:
    """Store ``results`` with the environment under ``runs[label]`` of the
    JSON report ``out``, which is created from ``header`` if missing."""
    report = (
        json.loads(out.read_text(encoding="utf-8"))
        if out.exists()
        else {**header, "runs": {}}
    )
    report["runs"][label] = {"environment": environment(), "results": results}
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_io.json")
    parser.add_argument("--label", default="current")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        result = bench(Path(tmp))
    record_run(
        Path(args.out),
        {"case": "io", "spec": "files", "repeats": REPEATS, "unit": "ms"},
        args.label,
        result,
    )
    print(
        f"{args.label}: load_dataset {result['load_dataset_ms']['median']:.1f} ms, "
        f"save_dataset {result['save_dataset_ms']['median']:.1f} ms, "
        f"dataset_digest {result['dataset_digest_ms']['median']:.2f} ms"
    )


if __name__ == "__main__":
    main()
