"""Label-smoothing curriculum: pseudo-label estimation, auxiliary graph
construction, entropy filtering, iterative smoothing, and the easy-to-hard
training walk with a final fine-tune on the ground-truth labels.

Smoothing deliberately over-smooths the label signal; ``run_curriculum`` then
walks back from the smoothest snapshot to the raw pseudo-labels, scoring each
trained head from one softmax over every node (``split_scores``).
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .classifier import (
    TrainConfig,
    accuracy,
    cross_entropy,
    softmax_with_log,
    train_linear,
)
from .errors import EmptyIncludeError, NonFiniteFeatureError, RowNotStochasticError
from .graph import Graph
from .io import float_rows
from .labels import SoftLabelMatrix, one_hot, one_hot_matrix

AUX_MODES = ("input_graph", "feature_knn", "embedding_knn")

_DEAD_ROW = 1e-12  # row mass below this counts as zero
_KNN_BLOCK = 1 << 18  # Gram entries per row block of the kNN; four buffers, 25 B/entry


@dataclass(frozen=True)
class AuxGraph:
    """Weighted symmetric auxiliary graph used only for label smoothing."""

    n: int
    edges: np.ndarray    # (m, 2) int64, i < j
    weights: np.ndarray  # (m,) >= 0; zero-weight edges carry no mass


@dataclass(frozen=True)
class TaskMetrics:
    index: int
    train_loss: float
    train_accuracy: float
    val_accuracy: float
    val_loss: float
    wall_ms: float


@dataclass(frozen=True)
class CurriculumResult:
    w: np.ndarray  # (d, C) head weights
    metrics: tuple
    probs: np.ndarray  # (n, C) softmax rows of h @ w
    logp: np.ndarray   # (n, C) their logs


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

    Cost: O(n^2 d) time and O(block·n + n·k) memory; no n x n array is held.
    The Gram ``vectors @ vectors.T`` is formed one row block of about
    ``_KNN_BLOCK`` entries at a time, in two passes: the first takes the
    squared norms from the blocks' diagonals, the second turns each block
    into distances and selects from them with no per-row sort: each row's
    k-th smallest distance by ``np.partition``, every closer node, and as
    many nodes at exactly that distance as fit, lowest index first.  A kept
    edge's weight is read from the Gram entry its block already holds, that
    of its lower row when that row kept it.  The Gram block, the distances,
    their partitioned copy and the kept mask live in four buffers allocated
    once per call, so at n = 3000, d = 8 the ``tracemalloc`` peak is 8 MB.
    When one block holds every row, the product is the one ``vectors @
    vectors.T`` that ``oracles.knn_edges_dense`` forms, and the edges and
    weights match that reference bit for bit.  With several blocks BLAS may
    round a Gram entry differently, as its kernel depends on the operand
    shapes, so a weight can move in its last bits and a near-tie in distance
    can order differently.  Raises NonFiniteFeatureError naming the first
    row whose squared norm, or else the first pair whose squared distance,
    is not finite, where no nearest-neighbor order exists.
    """
    if not math.isfinite(gamma_prime):
        raise ValueError(f"gamma_prime must be finite, got {gamma_prime}")
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

    rows_per_block = min(n, max(1, _KNN_BLOCK // n))
    starts = range(0, n, rows_per_block)
    gram_buf = np.empty((rows_per_block, n))
    dist_buf = np.empty((rows_per_block, n))
    part_buf = np.empty((rows_per_block, n))
    take_buf = np.empty((rows_per_block, n), dtype=bool)

    def gram_block(start):
        stop = min(start + rows_per_block, n)
        return np.matmul(vectors[start:stop], vectors.T, out=gram_buf[: stop - start])

    sq_norms = np.empty(n)
    for start in starts:
        gram = gram_block(start)
        sq_norms[start : start + gram.shape[0]] = gram[:, start:].diagonal()
    bad = np.flatnonzero(~np.isfinite(sq_norms))
    if bad.size:
        raise NonFiniteFeatureError(
            f"kNN auxiliary graph: the squared norm of row {bad[0]} is not finite"
        )
    codes, values = [], []
    for start in starts:
        gram = gram_block(start)
        rows = gram.shape[0]
        dist, part, take = dist_buf[:rows], part_buf[:rows], take_buf[:rows]
        # sq_i + sq_j - 2 g_ij, rounded as the oracle's expression rounds it.
        np.add(sq_norms[start : start + rows, None], sq_norms[None, :], out=dist)
        np.subtract(dist, np.multiply(gram, 2.0, out=part), out=dist)
        if not np.isfinite(dist, out=take).all():
            i, j = np.divmod(int(np.argmin(take)), n)
            raise NonFiniteFeatureError(
                f"kNN auxiliary graph: the squared distance between rows "
                f"{start + i} and {j} is not finite"
            )
        np.fill_diagonal(dist[:, start:], np.inf)  # a node is not its own neighbor
        np.copyto(part, dist)
        part.partition(k - 1, axis=1)
        kth = part[:, k - 1 : k]
        np.less_equal(dist, kth, out=take)
        # Rows with more than k candidates tie at the k-th distance.
        tied = np.flatnonzero(np.count_nonzero(take, axis=1) > k)
        if tied.size:
            at_kth = dist[tied] == kth[tied]
            room = k - (take[tied] & ~at_kth).sum(axis=1, keepdims=True)
            take[tied] &= ~at_kth | (np.cumsum(at_kth, axis=1) <= room)
        kept = np.flatnonzero(take)
        values.append(gram.ravel()[kept])
        i, j = np.divmod(kept, n)
        i += start
        codes.append(np.minimum(i, j) * n + np.maximum(i, j))
    # Codes run in row order, so a pair's first code is its lower row's if kept there.
    pairs, first = np.unique(np.concatenate(codes), return_index=True)
    edges = np.stack(np.divmod(pairs, n), axis=1)
    weights = np.power(np.maximum(np.concatenate(values)[first], 0.0), gamma_prime)
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


def split_scores(probs: np.ndarray, logp: np.ndarray, g: Graph, mask) -> tuple:
    """(accuracy, loss) over the labeled nodes of ``mask`` of the head whose
    softmax and log-softmax rows on every node are ``probs`` and ``logp``;
    both NaN when ``mask`` has no labeled node."""
    labeled = mask[g.labels[mask] >= 0]
    if not labeled.size:
        return float("nan"), float("nan")
    truth = g.labels[labeled]
    pred = probs[labeled].argmax(axis=1)
    return accuracy(pred, truth), cross_entropy(logp[labeled], one_hot(truth, g.num_classes))


def run_curriculum(
    g: Graph,
    h: np.ndarray,
    snapshots,
    train_cfg: TrainConfig,
    pacing_epochs: int,
) -> CurriculumResult:
    """Train one linear head on the embedding ``h``: a chain of
    ``train_linear`` calls, each task warm-started from the last.

    Task i runs ``pacing_epochs`` on the unmasked rows of snapshot n_t - i,
    so the walk goes from the smoothest snapshot back to the raw
    pseudo-labels; the last task fine-tunes on the ground truth of the train
    mask for ``train_cfg.epochs``.  With no snapshots only the fine-tune
    runs: the supervised baseline.  Every task steps at ``train_cfg.lr``.
    The embedding is label-independent, so every task shares it.

    A task's train loss is against the targets it trained on, over its
    included rows; its train accuracy is against the ground truth, over the
    labeled nodes among those rows (NaN when there are none), as
    ``split_scores`` scores val and test.
    """
    pacing = replace(train_cfg, epochs=pacing_epochs)
    tasks = [(snap, snap.unmasked_indices(), pacing) for snap in reversed(snapshots)]
    truth = one_hot_matrix(g.labels[g.train_mask], g.train_mask, g.n, g.num_classes)
    tasks.append((truth, g.train_mask, train_cfg))

    w = None
    metrics = []
    for index, (labels, include, cfg) in enumerate(tasks):
        start = time.perf_counter()
        w = train_linear(h, labels, include, cfg, warm_start=w)
        elapsed = (time.perf_counter() - start) * 1e3
        if not include.size:
            raise EmptyIncludeError("empty node subset")
        probs, logp = softmax_with_log(h @ w)
        labeled = include[g.labels[include] >= 0]
        val_accuracy, val_loss = split_scores(probs, logp, g, g.val_mask)
        metrics.append(
            TaskMetrics(
                index=index,
                train_loss=cross_entropy(logp[include], labels.y[include]),
                train_accuracy=accuracy(probs[labeled].argmax(axis=1), g.labels[labeled]),
                val_accuracy=val_accuracy,
                val_loss=val_loss,
                wall_ms=elapsed,
            )
        )
    return CurriculumResult(w=w, metrics=tuple(metrics), probs=probs, logp=logp)


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
        lines.extend(f"{node},{row}" for node, row in enumerate(float_rows(snap.y)))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
