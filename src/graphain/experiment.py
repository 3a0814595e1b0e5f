"""End-to-end experiment driver.

Per seed: build or load the graph, propagate once (the embedding is
label-independent), train the teacher, run the curriculum pipeline, and
evaluate.  The per-layer diagnostics are recorded during that one forward
pass, and the smoothing snapshots are exported from the run that built them.
The run seed drives the synthetic generation, split, feature noise, and
reducer through independent child streams, so seed lists compose without
interaction.

A loaded dataset's operator, one per (operator mode, centring), is built
once per dataset Graph and kept while it lives, so it pays when the same
dataset is run more than once in a process: the seeds of a run after its
first, a second run, or ``run_grid.py``'s cells.  Noise leaves the edges,
so every seed shares it, and the forward pass only reads it, so no byte
moves.  A synthetic seed builds and frees its own operator.
"""

from __future__ import annotations

import math
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .classifier import make_reducer
from .config import ExperimentConfig, config_hash, render_config
from .curriculum import (
    aux_from_graph,
    build_knn_aux_graph,
    entropy_filter,
    estimate_labels_teacher,
    export_snapshots as write_snapshots,
    run_curriculum,
    smooth_labels,
    split_scores,
)
from .diagnostics import LayerRecorder, records_to_csv
from .errors import GraphainError, MissingMaskError, TooFewClassesError
from .graph import Graph, normalized_adjacency
from .io import dataset_digest, load_dataset, read_dataset_files, records_csv
from .propagation import operator_spec, run_fuzzy_r_softgraphain
from .synthetic import add_feature_noise, gen_gaussian_cluster_graph, with_masks

# dataset Graph -> {(mode, centered): its operator}; an entry dies with its
# Graph, once ``io.load_dataset`` drops it and no run holds it
_OPERATORS = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class ResultRow:
    seed: int
    config_hash: str
    task: int
    split: str
    accuracy: float
    loss: float
    wall_ms: float


def rows_to_csv(rows) -> str:
    return records_csv(ResultRow, rows)


def _child_seeds(seed: int) -> dict:
    ss = np.random.SeedSequence(seed)
    graph, split, noise, reducer = ss.spawn(4)
    return {
        "graph": graph.generate_state(1)[0],
        "split": split.generate_state(1)[0],
        "noise": noise.generate_state(1)[0],
        "reducer": reducer.generate_state(1)[0],
    }


@contextmanager
def _stage(name: str):
    try:
        yield
    except GraphainError as err:
        msg = err.args[0] if err.args else ""
        err.args = (f"[stage {name}] {msg}",)
        raise


def load_inputs(cfg: ExperimentConfig):
    """(config hash, dataset): what every seed of a run shares.  The dataset
    is the loaded Graph for a dataset config, None otherwise; each of its
    files is read once and hashed once, and the hash covers the bytes the
    Graph is built from (or was, when ``load_dataset`` kept it from an
    earlier load of the same bytes)."""
    with _stage("dataset"):
        if cfg.dataset_path is None:
            return config_hash(cfg), None
        files = read_dataset_files(cfg.dataset_path)
        sha256 = dataset_digest(cfg.dataset_path, files)
        g = load_dataset(cfg.dataset_path, require_masks=True, files=files, digest=sha256)
        return config_hash(cfg, sha256), g


def prepare_graph(cfg: ExperimentConfig, seed: int, dataset: Graph | None) -> Graph:
    """Build the seeded synthetic graph (with split) or take the loaded
    ``dataset``; ``graphain gen`` saves this Graph for the first run seed."""
    kids = _child_seeds(seed)
    if cfg.synthetic is not None:
        spec = replace(cfg.synthetic, seed=int(kids["graph"]))
        g = gen_gaussian_cluster_graph(spec)
        g = with_masks(g, cfg.train_frac, cfg.val_frac, int(kids["split"]))
    else:
        g = dataset
    if cfg.noisy_features:
        g = add_feature_noise(g, int(kids["noise"]))
    return g


def compute_embedding(cfg: ExperimentConfig, g: Graph, seed: int, observe=None, op=None):
    """Embedding of the configured variant.  Features not already
    ``embedding_dim`` wide are first mapped by the seed's reducer.

    ``observe`` and ``op`` are passed to the forward pass, which calls
    ``observe`` once per layer and builds the operator when ``op`` is None.
    """
    reducer = None
    if g.feature_dim != cfg.embedding_dim:
        reducer = make_reducer(
            g.feature_dim, cfg.embedding_dim, int(_child_seeds(seed)["reducer"])
        )
    return run_fuzzy_r_softgraphain(
        g, cfg.propagation, reducer=reducer, variant=cfg.variant, observe=observe, op=op
    )


def _dataset_operator(cfg: ExperimentConfig, dataset: Graph):
    """The operator of ``dataset``'s edges that the variant multiplies by,
    built on the first call for its (mode, centring) and kept after it."""
    spec = operator_spec(cfg.propagation, cfg.variant)
    kept = _OPERATORS.setdefault(dataset, {})
    if spec not in kept:
        kept[spec] = normalized_adjacency(dataset, *spec)
    return kept[spec]


def _build_aux(cfg: ExperimentConfig, g: Graph, h: np.ndarray):
    mode = cfg.curriculum.aux_mode
    if mode == "input_graph":
        return aux_from_graph(g)
    vectors = g.features if mode == "feature_knn" else h
    return build_knn_aux_graph(vectors, cfg.curriculum.knn_k, cfg.curriculum.gamma_prime)


def _arm_rows(cfg: ExperimentConfig, digest: str, seed: int, g: Graph, result):
    rows = []
    for m in result.metrics:
        wall = 0.0 if cfg.deterministic_timing else m.wall_ms
        rows.append(
            ResultRow(seed, digest, m.index, "train", m.train_accuracy, m.train_loss, wall)
        )
        rows.append(
            ResultRow(seed, digest, m.index, "val", m.val_accuracy, m.val_loss, wall)
        )

    with _stage("evaluation"):
        start = time.perf_counter()
        test_acc, test_loss = split_scores(result.probs, result.logp, g, g.test_mask)
        wall = 0.0 if cfg.deterministic_timing else (time.perf_counter() - start) * 1e3
        if not math.isnan(test_acc):  # NaN: no labeled test node, so no test row
            index = result.metrics[-1].index
            rows.append(ResultRow(seed, digest, index, "test", test_acc, test_loss, wall))
    return rows


def run_seed(cfg: ExperimentConfig, seed: int, diagnostics_path=None, inputs=None):
    """One seed of the pipeline; returns (rows, supervised rows, smoothing
    snapshots).  The teacher is the supervised arm; a config without a
    curriculum (``cfg.curriculum`` None) ends the seed after it, with rows
    the supervised rows and snapshots None.

    With ``diagnostics_path``, the per-layer diagnostics of the seed's one
    forward pass are written there as CSV.  ``inputs`` is the run's
    ``load_inputs(cfg)``, read here when not given; either way a loaded
    dataset's kept operator serves the seed.
    """
    digest, dataset = inputs or load_inputs(cfg)
    with _stage("dataset"):
        g = prepare_graph(cfg, seed, dataset)
        if g.train_mask.size == 0:
            raise MissingMaskError("train mask is empty")
        if (g.labels[g.train_mask] < 0).any():
            raise MissingMaskError("train mask contains unlabeled nodes")
        if g.num_classes < 2:
            raise TooFewClassesError(
                f"the labels name {g.num_classes} class; the head needs at least 2"
            )
    with _stage("propagation"):
        recorder = None if diagnostics_path is None else LayerRecorder(g)
        op = None if dataset is None else _dataset_operator(cfg, dataset)
        h = compute_embedding(cfg, g, seed, observe=recorder, op=op)
    if recorder is not None:
        records_to_csv(recorder.records, diagnostics_path)

    with _stage("teacher"):
        # no snapshots, so no pacing task
        teacher = run_curriculum(g, h, [], cfg.train, 0)
    supervised_rows = _arm_rows(cfg, digest, seed, g, teacher)
    if cfg.curriculum is None:
        return supervised_rows, supervised_rows, None

    with _stage("label-estimation"):
        estimated = estimate_labels_teacher(
            teacher.probs, g.labels[g.train_mask], g.train_mask
        )
    with _stage("entropy-filter"):
        filtered = entropy_filter(
            estimated, cfg.curriculum.mask_ratio, labeled_set=g.train_mask
        )
    with _stage("aux-graph"):
        # zero smoothing steps never read the auxiliary graph
        aux = _build_aux(cfg, g, h) if cfg.curriculum.n_t else None
    with _stage("label-smoothing"):
        snapshots = smooth_labels(aux, filtered, cfg.curriculum.n_t)
    with _stage("curriculum"):
        result = run_curriculum(g, h, snapshots, cfg.train, cfg.curriculum.pacing_epochs)
    return _arm_rows(cfg, digest, seed, g, result), supervised_rows, snapshots


def run_experiment(
    cfg: ExperimentConfig, write_files: bool = True, export_snapshots: bool = False
):
    """All seeds in order, each as ``run_seed`` runs it; optionally writes
    results, diagnostics, and the config echo under cfg.output_dir.
    ``export_snapshots`` writes the first seed's smoothing snapshots, which a
    config without a curriculum never builds, to cfg.output_dir/snapshots.
    A dataset is read and hashed once for all seeds."""
    out = Path(cfg.output_dir)
    if write_files:
        out.mkdir(parents=True, exist_ok=True)
    inputs = load_inputs(cfg)
    all_rows = []
    for seed in cfg.seeds:
        diagnostics_path = out / f"diagnostics_seed{seed}.csv" if write_files else None
        rows, _, snapshots = run_seed(
            cfg, seed, diagnostics_path=diagnostics_path, inputs=inputs
        )
        all_rows.extend(rows)
        if export_snapshots and seed == cfg.seeds[0] and snapshots is not None:
            write_snapshots(snapshots, out / "snapshots")
    if write_files:
        (out / "results.csv").write_text(rows_to_csv(all_rows), encoding="utf-8")
        (out / "config_echo.txt").write_text(render_config(cfg), encoding="utf-8")
    return all_rows
