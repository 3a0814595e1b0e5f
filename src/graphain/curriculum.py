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
    class_logits,
    cross_entropy,
    softmax_with_log,
    train_linear,
)
from .errors import NonFiniteFeatureError, RowNotStochasticError
from .graph import Graph
from .io import float_rows
from .labels import SoftLabelMatrix, one_hot, one_hot_matrix

AUX_MODES = ("input_graph", "feature_knn", "embedding_knn")

_DEAD_ROW = 1e-12  # row mass below this counts as zero
_KNN_BLOCK = 1 << 18  # distance entries per leaf block of the kNN; buffers of 9 B/entry


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


def _run(idx: np.ndarray):
    """A sorted index array as a slice when its indices are consecutive, so
    that indexing with it takes a view instead of a gathered copy."""
    return slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] + 1 == idx.size else idx


def _leaf_product(left: np.ndarray, right: np.ndarray, rows, cols, buf: np.ndarray) -> np.ndarray:
    """``left[rows] @ right[cols].T`` into the front of the flat ``buf``."""
    out = buf[: rows.size * cols.size].reshape(rows.size, cols.size)
    return np.matmul(left[_run(rows)], right[_run(cols)].T, out=out)


def _group_order(group: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The indices that sort by (group, value) for nonnegative integer
    groups; equal values fall in no set order.  Two sorts, far faster than
    ``np.lexsort``: one ranks the values, one sorts an integer key."""
    rank = np.empty(values.size, dtype=np.int64)
    rank[np.argsort(values)] = np.arange(values.size)
    return np.argsort(group * values.size + rank)


def _spatial_leaves(vectors: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """The leaf of each row: leaf i holds edge[i + 1] - edge[i] rows.  Each
    tree node spanning several leaves splits its rows on their widest
    coordinate at the leaf boundary nearest its median, so the leaves are
    full and the tree balanced.  A level of the tree is one sort of all rows
    by (node, coordinate)."""
    n = vectors.shape[0]
    count = edge.size - 1
    perm = np.arange(n)
    spans = [(0, count)]  # leaf ranges of the nodes at this level
    while len(spans) < count:
        starts = edge[[first for first, _ in spans]]
        pts = vectors[perm]
        width = np.maximum.reduceat(pts, starts) - np.minimum.reduceat(pts, starts)
        sizes = np.diff(edge[[first for first, _ in spans] + [count]])
        axis = np.repeat(np.argmax(width, axis=1), sizes)
        node = np.repeat(np.arange(len(spans)), sizes)
        perm = perm[_group_order(node, pts[np.arange(n), axis])]
        spans = [
            half
            for first, last in spans
            for half in ([(first, (first + last) // 2), ((first + last) // 2, last)]
                         if last - first > 1 else [(first, last)])
        ]
    leaf_of = np.empty(n, dtype=np.int64)
    leaf_of[perm] = np.repeat(np.arange(count), np.diff(edge))
    return leaf_of


def _first_non_finite_pair(vectors: np.ndarray, sq_norms: np.ndarray):
    """(i, j) of the first pair in row-major order whose squared distance is
    not finite, or None, given finite squared norms.

    Only the columns of squared norm at least 2^1020 are formed, a block of
    them at a time.  sq_i + sq_j - 2 g_ij is below 2^1022 in magnitude when
    both norms are below 2^1020, and below (2^511.5 + 2^510)^2 < 2^1024 when
    sq_i < 2^1023 and sq_j < 2^1020, while sq_i >= 2^1023 makes the pair
    (i, i) fail.  So the first failing pair, which has i <= j as the
    expression is symmetric, either has such a column j or is such an
    (i, i)."""
    n = vectors.shape[0]
    large = np.flatnonzero(sq_norms >= 2.0**1020)
    step = max(1, _KNN_BLOCK // n)
    first = n * n
    for start in range(0, large.size, step):
        cols = large[start : start + step]
        with np.errstate(over="ignore", invalid="ignore"):
            dist = sq_norms[:, None] + sq_norms[cols] - 2.0 * (vectors @ vectors[cols].T)
        i, j = np.nonzero(~np.isfinite(dist))
        first = int((i * n + cols[j]).min(initial=first))
    return None if first == n * n else divmod(first, n)


def _box_gaps(coords: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Squared distance from each column of the (d, m) ``coords`` to the box
    [lo, hi]: the point of the box nearest a row is the row clipped to it."""
    gap = np.clip(coords, lo[:, None], hi[:, None])
    gap -= coords
    gap *= gap
    return np.einsum("ij->j", gap)


def _search_leaves(pts, sq_norms, edge, k, slack):
    """Candidate pairs of the leaf-ordered rows ``pts``: (codes p * n + q,
    their block distances, each row's bound).  Every pair (p, q) whose
    distance could be among row p's k smallest is a candidate.

    Distances come from one product of the rows [x, |x|^2, 1] by the rows
    [-2 y, 1, |y|^2].  The search runs first over each leaf's own block, whose
    k-th distance in a row bounds the row's k-th nearest, then over the other
    leaves, one leaf's columns at a time, against the rows that may reach
    that leaf: those of the leaves whose box is within the largest of their
    rows' first bounds of its box, and, among them, those whose own bound
    reaches the box from their own point.  A row's nearest distance in each
    leaf it searches then replaces the largest of the k it holds, so its
    bound shrinks as the search goes on.  The block of distances, the
    candidate mask and the partitioned copy of a leaf's own distances live in
    buffers of a leaf's rows by n, n and a leaf's rows, allocated once per
    call."""
    n = pts.shape[0]
    count = edge.size - 1
    ones = np.ones((n, 1))
    left = np.hstack([pts, sq_norms[:, None], ones])
    right = np.hstack([-2.0 * pts, ones, sq_norms[:, None]])
    sizes = np.diff(edge)
    rows_max = int(sizes.max())
    dist_buf = np.empty(rows_max * n)
    take_buf = np.empty(rows_max * n, dtype=bool)
    part_buf = np.empty(rows_max * rows_max)
    top = np.empty((n, k))  # per row, the k smallest distances found so far
    codes, dists = [], []

    def collect(dist, rows, cols, bound):
        take = take_buf[: dist.size].reshape(dist.shape)
        cand = np.flatnonzero(np.less_equal(dist, bound, out=take))
        i, j = np.divmod(cand, cols.size)
        codes.append(rows[i] * n + cols[j])
        dists.append(dist.ravel()[cand])
        return i, dists[-1]

    for leaf in range(count):
        rows = np.arange(edge[leaf], edge[leaf + 1])
        dist = _leaf_product(left, right, rows, rows, dist_buf)
        np.fill_diagonal(dist, np.inf)  # a node is not its own neighbor
        part = part_buf[: dist.size].reshape(dist.shape)
        np.copyto(part, dist)
        part.partition(k - 1, axis=1)
        top[_run(rows)] = part[:, :k]
        collect(dist, rows, rows, part[:, k - 1, None] + slack)
    bound = top.max(axis=1) + slack
    if count == 1:  # no other leaf to search
        return codes, dists, bound

    lo, hi = np.minimum.reduceat(pts, edge[:-1]), np.maximum.reduceat(pts, edge[:-1])
    coords = pts.T.copy()  # one coordinate of every row a contiguous row
    leaf_bound = np.maximum.reduceat(bound, edge[:-1])
    for leaf in range(count):
        gap = np.maximum(lo - hi[leaf], lo[leaf] - hi)
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        near = np.flatnonzero(gap.sum(axis=1) <= leaf_bound)
        # the rows of those leaves, with this leaf's own, dropped next
        span = sizes[near]
        pos = np.arange(span.sum()) + np.repeat(edge[near] - (np.cumsum(span) - span), span)
        reach = _box_gaps(coords[:, _run(pos)], lo[leaf], hi[leaf]) <= bound[_run(pos)]
        reach[np.searchsorted(pos, edge[leaf]) : np.searchsorted(pos, edge[leaf + 1])] = False
        rows = pos[reach]
        if not rows.size:
            continue
        cols = np.arange(edge[leaf], edge[leaf + 1])
        dist = _leaf_product(left, right, rows, cols, dist_buf)
        i, found = collect(dist, rows, cols, bound[_run(rows), None])
        if not i.size:
            continue
        first = np.flatnonzero(np.diff(i, prepend=-1))
        hit = rows[i[first]]
        held = top[hit]
        slot = (np.arange(hit.size), held.argmax(axis=1))
        held[slot] = np.minimum(held[slot], np.minimum.reduceat(found, first))
        top[hit] = held
        bound[hit] = held.max(axis=1) + slack
    return codes, dists, bound


def build_knn_aux_graph(vectors: np.ndarray, k: int, gamma_prime: float) -> AuxGraph:
    """Symmetrized k-nearest-neighbor graph with rectified inner-product weights.

    Each row keeps the k other rows nearest in squared Euclidean distance,
    ties to the lower index; each kept edge (i, j) weighs
    max(0, g_ij) ** gamma_prime, so an edge between orthogonal or opposed
    vectors survives structurally with zero weight.  Distances and weights
    come from per-pair values: g_ij is ``np.vecdot`` of rows i and j, the
    squared norms are ``np.vecdot`` of each row with itself, and the
    distance is sq_i + sq_j - 2 g_ij.  These are the values of
    ``oracles.knn_edges_dense``, so the output depends on the vectors, k and
    gamma_prime alone: not on the leaf layout, ``_KNN_BLOCK`` or the BLAS
    thread count.

    The search that finds each row's candidates is exact, over the leaves of
    a k-d tree (Bentley 1975): the rows are split recursively at the median
    of their widest coordinate into full leaves of at most about
    ``_KNN_BLOCK // n`` rows, and at least k + 1.  It compares distances
    formed in leaf blocks by BLAS, pruning rows against leaf boxes as
    dual-tree search does (Gray and Moore 2001), and widens every bound by
    the rounding slack of those distances and of the box gaps, so no
    neighbor and no tie is lost (``_search_leaves``).  Only the candidates
    within the final bounds get per-pair values, about k a row.

    The cost depends on the data.  On clustered or low-rank embeddings, such
    as the propagated ones, a row searches its own leaf and a few near ones,
    and far fewer than n^2 pairs are formed; on isotropic data a row still
    skips the leaves whose box its bound does not reach, and the cost is
    O(n^2 d) time at worst.  Memory is O(block + n (d + k)) plus the
    candidates.  Raises NonFiniteFeatureError naming the first row whose
    squared norm, or else the first pair whose squared distance, is not
    finite, where no nearest-neighbor order exists.
    """
    if not math.isfinite(gamma_prime):
        raise ValueError(f"gamma_prime must be finite, got {gamma_prime}")
    if gamma_prime <= 0.0:
        raise ValueError("gamma_prime must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)  # rows of unit stride
    n, d = vectors.shape
    if k >= n:
        warnings.warn(f"k={k} >= n={n}; clamping to {n - 1}", stacklevel=2)
        k = n - 1
    if k == 0 or n < 2:
        return AuxGraph(n=n, edges=np.empty((0, 2), dtype=np.int64), weights=np.empty(0))

    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        sq_norms = np.vecdot(vectors, vectors)
    bad = np.flatnonzero(~np.isfinite(sq_norms))
    if bad.size:
        raise NonFiniteFeatureError(
            f"kNN auxiliary graph: the squared norm of row {bad[0]} is not finite"
        )
    pair = _first_non_finite_pair(vectors, sq_norms)
    if pair is not None:
        raise NonFiniteFeatureError(
            f"kNN auxiliary graph: the squared distance between rows "
            f"{pair[0]} and {pair[1]} is not finite"
        )

    count = max(1, min(-(-n // max(1, _KNN_BLOCK // n)), n // (k + 1)))
    edge = np.arange(count + 1) * n // count
    by_leaf = np.argsort(_spatial_leaves(vectors, edge), kind="stable")
    # A block distance is within (6 d + 8) 2^-53 max sq_norm of the exact
    # one, a per-pair distance within (4 d + 8) 2^-53 max sq_norm, and a box
    # gap within (d + 2) 2^-53 of the exact gap relatively.  A row's k-th
    # per-pair distance is then at most its k-th block distance found plus
    # one error of each kind, and a neighbor's block distance at most that
    # plus one more of each: the slack covers these four and the box's.  The
    # search runs on the rows halved, so that the partial sums of its
    # products stay below 2^1023 whenever the distances passed the check
    # above.
    slack = 16 * (d + 2) * (
        np.finfo(np.float64).eps * float(sq_norms.max())
        + np.finfo(np.float64).smallest_subnormal
    )
    codes, dists, bound = _search_leaves(
        vectors[by_leaf] * 0.5, sq_norms[by_leaf] * 0.25, edge, k, slack * 0.25
    )
    codes = np.concatenate(codes)
    row, col = np.divmod(codes[np.concatenate(dists) <= bound[codes // n]], n)
    # Per-pair values for the candidates in order of (leaf position, column
    # index), so that ties at the k-th go to the lower index; the gathered
    # rows are bounded to about _KNN_BLOCK values a step.
    row, col = np.divmod(np.sort(row * n + by_leaf[col]), n)
    node = by_leaf[row]
    gram = np.empty(row.size)
    step = max(1, _KNN_BLOCK // (2 * d))
    for start in range(0, row.size, step):
        part = slice(start, start + step)
        np.vecdot(vectors[node[part]], vectors[col[part]], out=gram[part])
    dist = sq_norms[node] + sq_norms[col] - 2.0 * gram
    starts = np.flatnonzero(np.diff(row, prepend=-1))  # every row has k or more
    kth = dist[_group_order(row, dist)[starts + k - 1]][row]
    # Keep every closer candidate, and as many at the k-th distance as fit,
    # lowest index first.
    closer, at_kth = dist < kth, dist == kth
    room = k - np.add.reduceat(closer, starts, dtype=np.int64)
    ties = np.cumsum(at_kth)
    ties -= (ties[starts] - at_kth[starts])[row]
    kept = closer | (at_kth & (ties <= room[row]))
    i, j = node[kept], col[kept]
    keys = np.minimum(i, j) * n + np.maximum(i, j)
    order = np.argsort(keys)  # a pair both its rows kept has one g either way
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    edges = np.stack(np.divmod(keys[first], n), axis=1)
    weights = np.power(np.maximum(gram[kept][order[first]], 0.0), gamma_prime)
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
    y, masked = y0.y, y0.masked
    for _ in range(n_t):  # each step makes a fresh y and mask for its snapshot
        y = p.dot(y)
        y[masked] = 0.0
        sums = y.sum(axis=1)
        masked = masked | (sums <= _DEAD_ROW)
        y[masked] = 0.0
        np.divide(y, sums[:, None], out=y, where=~masked[:, None])
        snaps.append(SoftLabelMatrix(y=y, masked=masked))
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

    A task's train loss is against the targets it trained on, over the
    unmasked rows of its label matrix; its train accuracy is against the
    ground truth, over the labeled nodes among those rows (NaN when there are
    none), as ``split_scores`` scores val and test.
    """
    pacing = replace(train_cfg, epochs=pacing_epochs)
    tasks = [(snap, pacing) for snap in reversed(snapshots)]
    truth = one_hot_matrix(g.labels[g.train_mask], g.train_mask, g.n, g.num_classes)
    tasks.append((truth, train_cfg))

    w = None
    metrics = []
    for index, (labels, cfg) in enumerate(tasks):
        start = time.perf_counter()
        w = train_linear(h, labels, cfg, warm_start=w)
        elapsed = (time.perf_counter() - start) * 1e3
        probs, logp = (a.T.copy() for a in softmax_with_log(class_logits(h, w)))
        rows = labels.unmasked_indices()
        labeled = rows[g.labels[rows] >= 0]
        val_accuracy, val_loss = split_scores(probs, logp, g, g.val_mask)
        metrics.append(
            TaskMetrics(
                index=index,
                train_loss=cross_entropy(logp[rows], labels.y[rows]),
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
