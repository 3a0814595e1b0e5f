"""Benchmark workloads.

Each workload loads a different module of graphain heavily, so that a change
to one module moves one workload and leaves the others alone:

deep   3x100 nodes, 256 layers, fuzzy skips: the per-layer loop, where the
       d x d eigen-solve of the spectral filter dominates.  Its cost per seed
       varies by about 10% with the seed (the Jacobi solver needs 4 to 6
       sweeps per call, fixed by the seed's converged embedding), so a run
       times twelve seeds and reports their mean.
wide   3x1000 sparse nodes, 64 layers: the O(n^2) generator and the dense
       kNN auxiliary graph dominate; the eigen-solve barely matters.  About
       6% of seeds reach only 0.73-0.81 test accuracy, so a run averages
       twelve seeds.
files  a saved sparse 3x500 graph with 32-wide features, run in write mode:
       dataset loading and the diagnostics layer sweep (a second forward pass
       plus the dense reference spectrum) dominate.  At the default edge
       densities, loading and the first forward pass take about half of the
       time, and the sweep no longer dominates.

A run of a workload uses ``seeds_per_run`` run seeds derived from the
workload seed (each with its own dataset, for a workload that saves one);
an operation is one ``run_experiment`` call on one of them.  Operations are
short (0.3-2 s) so that a run times many of them.

``TINY`` holds the same workloads at sizes small enough for the self-test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict                 # config keys besides seeds / output_dir
    write_files: bool = False
    dataset: dict = field(default_factory=dict)  # SyntheticSpec fields saved in setup
    seeds_per_run: int = 1

    def seeds(self, seed: int) -> tuple:
        """The run seeds of one run, derived from the workload seed."""
        return tuple(seed * self.seeds_per_run + i for i in range(self.seeds_per_run))

    def materialise(self, seed: int, workdir: Path) -> None:
        """Write the dataset of a dataset workload under workdir."""
        if not self.dataset:
            return
        from graphain.io import save_dataset
        from graphain.synthetic import SyntheticSpec, gen_gaussian_cluster_graph, with_masks

        spec = SyntheticSpec(**self.dataset, seed=seed)
        save_dataset(with_masks(gen_gaussian_cluster_graph(spec), 0.1, 0.2, seed), workdir / "data")

    def build(self, seed: int, workdir: Path):
        """Experiment config running one run seed, with its files under workdir."""
        from graphain.config import build_experiment_config

        raw = dict(self.config)
        raw.update(
            seeds=str(seed),
            output_dir=str(workdir / "out"),
            deterministic_timing="true",
        )
        if self.dataset:
            raw["dataset.path"] = str(workdir / "data")
        raw = {key: str(value) for key, value in raw.items()}
        return build_experiment_config(raw, source=f"workload {self.name}")


FULL = {
    "deep": Workload("deep", {
        "synthetic.clusters": 3, "synthetic.nodes_per_cluster": 100,
        "propagation.layers": 256, "propagation.p": 0.5, "propagation.q": 0.5,
    }, seeds_per_run=12),
    "wide": Workload("wide", {
        "synthetic.clusters": 3, "synthetic.nodes_per_cluster": 1000,
        "synthetic.intra_p": 0.01, "synthetic.inter_p": 0.0005,
        "propagation.layers": 64,
    }, seeds_per_run=12),
    "files": Workload(
        "files",
        {"propagation.layers": 64},
        write_files=True,
        dataset={"clusters": 3, "nodes_per_cluster": 500, "intra_p": 0.05,
                 "inter_p": 0.005, "centers_dim": 32},
        seeds_per_run=3,
    ),
}

_TINY_TRAIN = {"train.epochs": 20, "curriculum.pacing_epochs": 5}

TINY = {
    "deep": Workload("deep", {
        "synthetic.clusters": 3, "synthetic.nodes_per_cluster": 12,
        "propagation.layers": 8, "propagation.p": 0.5, "propagation.q": 0.5,
        **_TINY_TRAIN,
    }, seeds_per_run=2),
    "wide": Workload("wide", {
        "synthetic.clusters": 3, "synthetic.nodes_per_cluster": 20,
        "propagation.layers": 4, **_TINY_TRAIN,
    }),
    "files": Workload(
        "files",
        {"propagation.layers": 4, **_TINY_TRAIN},
        write_files=True,
        dataset={"clusters": 3, "nodes_per_cluster": 15, "intra_p": 0.3,
                 "inter_p": 0.02, "centers_dim": 16},
        seeds_per_run=2,
    ),
}
