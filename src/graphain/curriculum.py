"""Label-smoothing curriculum: pseudo-label estimation, auxiliary graph
construction, entropy filtering, iterative smoothing, and the easy-to-hard
task schedule with a final fine-tune on the ground-truth labels.

Smoothing deliberately over-smooths the label signal; the task sequence then
walks back from the smoothest snapshot to the raw pseudo-labels.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .classifier import (
    LinearClassifier,
    TrainConfig,
    accuracy,
    predict,
    softmax_cross_entropy,
    train_linear,
)
from .errors import (
    EmptyScheduleError,
    NonFiniteFeatureError,
    NotADistributionError,
    RowNotStochasticError,
)
from .graph import Graph
from .labels import SoftLabelMatrix, one_hot, one_hot_matrix

AUX_MODES = ("input_graph", "feature_knn", "embedding_knn")

_DEAD_ROW = 1e-12  # row mass below this counts as zero
_KNN_BLOCK = 1 << 20  # distance entries per row block of the kNN selection


@dataclass(frozen=True)
class AuxGraph:
    """Weighted symmetric auxiliary graph used only for label smoothing."""

    n: int
    edges: np.ndarray    # (m, 2) int64, i < j
    weights: np.ndarray  # (m,) >= 0; zero-weight edges carry no mass


@dataclass(frozen=True)
class CurriculumTask:
    labels: SoftLabelMatrix
    epochs: int


@dataclass(frozen=True)
class CurriculumSchedule:
    """Smoothing tasks ordered easiest first, then the original labeled task."""

    tasks: tuple
    final_set: np.ndarray   # labeled node indices for the fine-tune stage
    final_labels: np.ndarray
    n_t: int


@dataclass(frozen=True)
class TaskMetrics:
    index: int
    name: str
    train_loss: float
    train_accuracy: float
    val_accuracy: float
    val_loss: float
    wall_ms: float


@dataclass(frozen=True)
class CurriculumResult:
    classifier: LinearClassifier
    metrics: tuple


def estimate_labels_teacher(
    teacher_probs: np.ndarray, labels, labeled_set
) -> SoftLabelMatrix:
    """Teacher probabilities everywhere, clamped to one-hot truth on the
    labeled nodes."""
    probs = np.asarray(teacher_probs, dtype=np.float64)
    if probs.ndim != 2:
        raise RowNotStochasticError("teacher output must be an n x C matrix")
    bad = np.flatnonzero(~np.isfinite(probs).all(axis=1))
    if bad.size:
        raise RowNotStochasticError(f"teacher row {bad[0]} is not finite")
    sums = probs.sum(axis=1)
    if probs.size and (float(probs.min()) < -1e-12 or float(np.abs(sums - 1.0).max()) > 1e-6):
        raise RowNotStochasticError("teacher rows are not probability distributions")
    y = probs / sums[:, None]
    labeled = np.asarray(labeled_set, dtype=np.int64).ravel()
    if labeled.size:
        y[labeled] = one_hot(labels, probs.shape[1])
    return SoftLabelMatrix(y=y, masked=np.zeros(probs.shape[0], dtype=bool))


def aux_from_graph(g: Graph) -> AuxGraph:
    """The input graph as auxiliary graph, with unit edge weights."""
    return AuxGraph(n=g.n, edges=g.edges.copy(), weights=np.ones(g.num_edges))


def build_knn_aux_graph(vectors: np.ndarray, k: int, gamma_prime: float) -> AuxGraph:
    """Symmetrized k-nearest-neighbor graph with rectified inner-product weights.

    Neighbors are selected by squared Euclidean distance (ties to the lower
    index); each kept edge (i, j) weighs max(0, h_i . h_j) ** gamma_prime, so
    an edge between orthogonal or opposed vectors survives structurally with
    zero weight.

    Cost: one dense n x n Gram matrix (O(n^2 d) time, n^2 floats held),
    then O(n^2) selection in row blocks of about ``_KNN_BLOCK`` entries,
    with no per-row sort: each row's k-th smallest distance by
    ``np.partition``, every closer node, and as many nodes at exactly that
    distance as fit, lowest index first.  ``oracles.knn_edges_dense``, which
    sorts each row, is the reference it matches exactly.  Raises
    NonFiniteFeatureError when a squared distance is not finite, where no
    nearest-neighbor order exists.
    """
    if gamma_prime <= 0.0:
        raise ValueError("gamma_prime must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    if k >= n:
        warnings.warn(f"k={k} >= n={n}; clamping to {n - 1}", stacklevel=2)
        k = n - 1
    if k == 0 or n < 2:
        return AuxGraph(n=n, edges=np.empty((0, 2), dtype=np.int64), weights=np.empty(0))

    gram = vectors @ vectors.T
    sq_norms = np.diag(gram).copy()
    rows_per_block = max(1, _KNN_BLOCK // n)
    codes = []
    for start in range(0, n, rows_per_block):
        stop = min(start + rows_per_block, n)
        dist = sq_norms[start:stop, None] + sq_norms[None, :] - 2.0 * gram[start:stop]
        if not np.isfinite(dist).all():
            raise NonFiniteFeatureError(
                "kNN auxiliary graph: a squared distance is not finite"
            )
        np.fill_diagonal(dist[:, start:], np.inf)  # a node is not its own neighbor
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
        take = dist <= kth
        # Rows with more than k candidates tie at the k-th distance.
        tied = np.flatnonzero(np.count_nonzero(take, axis=1) > k)
        if tied.size:
            at_kth = dist[tied] == kth[tied]
            room = k - (take[tied] & ~at_kth).sum(axis=1, keepdims=True)
            take[tied] &= ~at_kth | (np.cumsum(at_kth, axis=1) <= room)
        i, j = np.nonzero(take)
        i += start
        codes.append(np.minimum(i, j) * n + np.maximum(i, j))
    pairs = np.unique(np.concatenate(codes))
    edges = np.stack(np.divmod(pairs, n), axis=1)
    weights = np.power(
        np.maximum(gram[edges[:, 0], edges[:, 1]], 0.0), gamma_prime
    )
    return AuxGraph(n=n, edges=edges, weights=weights)


def aux_transition_matrix(aux: AuxGraph) -> sp.csr_matrix:
    """Row-stochastic transition matrix; nodes with no positive-weight
    neighbor fall back to a self-loop row."""
    pos = aux.weights > 0.0
    i = aux.edges[pos, 0]
    j = aux.edges[pos, 1]
    w = aux.weights[pos]
    deg = np.zeros(aux.n)
    np.add.at(deg, i, w)
    np.add.at(deg, j, w)
    orphan = np.flatnonzero(deg == 0.0)
    rows = np.concatenate([i, j, orphan])
    cols = np.concatenate([j, i, orphan])
    deg_safe = np.where(deg > 0.0, deg, 1.0)
    vals = np.concatenate([w, w, np.ones(orphan.size)]) / deg_safe[rows]
    return sp.coo_matrix((vals, (rows, cols)), shape=(aux.n, aux.n)).tocsr()


def iterative_label_propagation(
    aux: AuxGraph, y_l: np.ndarray, labeled_set, iters: int
) -> SoftLabelMatrix:
    """Propagate-then-clamp iteration; rows are renormalized once at the end.

    Rows that never receive mass stay zero and come back flagged masked.
    """
    labeled = np.asarray(labeled_set, dtype=np.int64).ravel()
    if labeled.size == 0:
        raise ValueError("label propagation needs at least one labeled node")
    y_l = np.asarray(y_l, dtype=np.float64)
    p = aux_transition_matrix(aux)
    f = np.zeros((aux.n, y_l.shape[1]))
    f[labeled] = y_l
    for _ in range(iters):
        f = p.dot(f)
        f[labeled] = y_l
    sums = f.sum(axis=1)
    masked = sums <= _DEAD_ROW
    f[masked] = 0.0
    live = ~masked
    f[live] /= sums[live, None]
    return SoftLabelMatrix(y=f, masked=masked)


def normalized_entropy(p) -> float:
    """Entropy of a distribution scaled into [0, 1] by log of the class count."""
    p = np.asarray(p, dtype=np.float64).ravel()
    if p.size < 2:
        raise NotADistributionError("need at least two classes")
    if float(p.min()) < -1e-12 or abs(float(p.sum()) - 1.0) > 1e-6:
        raise NotADistributionError("input is not a probability distribution")
    pos = p[p > 0.0]
    h = float(-(pos * np.log(pos)).sum()) / math.log(p.size)
    return min(max(h, 0.0), 1.0)


def _row_entropies(y: np.ndarray) -> np.ndarray:
    safe = np.where(y > 0.0, y, 1.0)
    return -(y * np.log(safe)).sum(axis=1) / math.log(y.shape[1])


def entropy_filter(
    labels: SoftLabelMatrix, mask_ratio: float, labeled_set=None
) -> SoftLabelMatrix:
    """Zero out the least confident unlabeled rows.

    Masks the ceil(mask_ratio * count) candidates with the highest normalized
    entropy, ties to the lower node index.  Ground-truth labeled rows are
    never masked.  Surviving rows are renormalized to sum exactly one.
    """
    if not 0.0 <= mask_ratio <= 1.0:
        raise ValueError("mask_ratio must be in [0, 1]")
    protected = np.zeros(labels.n, dtype=bool)
    if labeled_set is not None:
        protected[np.asarray(labeled_set, dtype=np.int64)] = True
    candidates = np.flatnonzero(~labels.masked & ~protected)
    count = math.ceil(mask_ratio * candidates.size)
    y = labels.y.copy()
    masked = labels.masked.copy()
    if count > 0:
        ent = _row_entropies(y[candidates])
        order = np.argsort(-ent, kind="stable")
        masked[candidates[order[:count]]] = True
        y[masked] = 0.0
    live = ~masked
    sums = y[live].sum(axis=1)
    y[live] /= sums[:, None]
    return SoftLabelMatrix(y=y, masked=masked)


def smooth_labels(aux: AuxGraph, y0: SoftLabelMatrix, n_t: int) -> list:
    """Iteratively diffuse soft labels over the auxiliary graph.

    Returns all n_t + 1 snapshots.  Masked rows stay pinned at zero; the
    remaining rows are renormalized after every diffusion step so each
    snapshot keeps exact unit row sums.
    """
    if n_t < 0:
        raise ValueError("n_t must be >= 0")
    snaps = [y0]
    if n_t == 0:
        return snaps
    p = aux_transition_matrix(aux)
    y = y0.y.copy()
    masked = y0.masked.copy()
    for _ in range(n_t):
        y = p.dot(y)
        y[masked] = 0.0
        sums = y.sum(axis=1)
        masked = masked | (sums <= _DEAD_ROW)
        y[masked] = 0.0
        live = ~masked
        y[live] /= sums[live, None]
        snaps.append(SoftLabelMatrix(y=y.copy(), masked=masked.copy()))
    return snaps


def build_curriculum(
    snapshots, pacing_epochs: int, original
) -> CurriculumSchedule:
    """Order tasks smoothest first; task i trains on snapshot n_t - i.

    ``original`` is the (labeled index set, integer labels) pair for the
    final fine-tune stage.
    """
    snapshots = list(snapshots)
    if not snapshots:
        raise EmptyScheduleError("no smoothing snapshots")
    if pacing_epochs < 0:
        raise ValueError("pacing_epochs must be >= 0")
    n_t = len(snapshots) - 1
    tasks = tuple(
        CurriculumTask(labels=snapshots[n_t - i], epochs=pacing_epochs)
        for i in range(n_t + 1)
    )
    labeled_set, labels = original
    return CurriculumSchedule(
        tasks=tasks,
        final_set=np.asarray(labeled_set, dtype=np.int64),
        final_labels=np.asarray(labels, dtype=np.int64),
        n_t=n_t,
    )


def supervised_schedule(labeled_set, labels) -> CurriculumSchedule:
    """Degenerate schedule with only the fine-tune stage (the ablated run)."""
    return CurriculumSchedule(
        tasks=(),
        final_set=np.asarray(labeled_set, dtype=np.int64),
        final_labels=np.asarray(labels, dtype=np.int64),
        n_t=-1,
    )


def run_curriculum(
    g: Graph,
    h: np.ndarray,
    schedule: CurriculumSchedule,
    train_cfg: TrainConfig,
    reset_on_finetune: bool = False,
) -> CurriculumResult:
    """Train one classifier on the embedding ``h`` through the schedule with
    warm starts.

    The propagation embedding is label-independent, so one is shared by
    every task.  Each smoothing task runs its pacing budget on the unmasked
    rows of its snapshot; the fine-tune stage runs the full train budget on
    the ground-truth labels.
    """
    w = None
    epoch_offset = 0
    metrics = []

    val_set = g.val_mask[g.labels[g.val_mask] >= 0] if g.val_mask.size else g.val_mask

    def _evaluate(index, name, clf, task_labels, include, elapsed_ms):
        train_loss = softmax_cross_entropy(h, task_labels, clf.w, include)
        pred, _ = predict(h, clf)
        train_acc = accuracy(pred, g.labels, include)
        if val_set.size:
            val_acc = accuracy(pred, g.labels, val_set)
            val_truth = one_hot_matrix(g.labels[val_set], val_set, g.n, g.num_classes)
            val_loss = softmax_cross_entropy(h, val_truth, clf.w, val_set)
        else:
            val_acc = float("nan")
            val_loss = float("nan")
        metrics.append(
            TaskMetrics(
                index=index,
                name=name,
                train_loss=train_loss,
                train_accuracy=train_acc,
                val_accuracy=val_acc,
                val_loss=val_loss,
                wall_ms=elapsed_ms,
            )
        )

    for i, task in enumerate(schedule.tasks):
        include = task.labels.unmasked_indices()
        start = time.perf_counter()
        clf = train_linear(
            h,
            task.labels,
            include,
            replace(train_cfg, epochs=task.epochs),
            warm_start=w,
            epoch_offset=epoch_offset,
        )
        elapsed = (time.perf_counter() - start) * 1e3
        w = clf.w
        epoch_offset += task.epochs
        _evaluate(i, f"smooth-{schedule.n_t - i}", clf, task.labels, include, elapsed)

    if reset_on_finetune:
        epoch_offset = 0
    final_labels = one_hot_matrix(
        schedule.final_labels, schedule.final_set, g.n, g.num_classes
    )
    start = time.perf_counter()
    clf = train_linear(
        h,
        final_labels,
        schedule.final_set,
        train_cfg,
        warm_start=w,
        epoch_offset=epoch_offset,
    )
    elapsed = (time.perf_counter() - start) * 1e3
    _evaluate(len(schedule.tasks), "finetune", clf, final_labels, schedule.final_set, elapsed)
    return CurriculumResult(classifier=clf, metrics=tuple(metrics))


def export_snapshots(snapshots, out_dir) -> list:
    """Write each smoothing snapshot as CSV rows (node, class_0 .. class_C-1)."""
    from pathlib import Path

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, snap in enumerate(snapshots):
        path = out_dir / f"snapshot_{i:03d}.csv"
        header = "node," + ",".join(f"class_{c}" for c in range(snap.num_classes))
        lines = [header]
        for node in range(snap.n):
            row = ",".join(format(v, ".17g") for v in snap.y[node])
            lines.append(f"{node},{row}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
