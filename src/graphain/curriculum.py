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

from .classifier import (
    TrainConfig,
    accuracy,
    class_logits,
    cross_entropy,
    softmax_with_log,
    train_linear,
)
from .errors import EmptyIncludeError, NonFiniteFeatureError, RowNotStochasticError
from .graph import CscMatrix, Graph, csc_from_coo, csc_matmul
from .io import float_rows, write_table
from .labels import SoftLabelMatrix, one_hot, one_hot_matrix

AUX_MODES = ("input_graph", "feature_knn", "embedding_knn")

_DEAD_ROW = 1e-12  # row mass below this counts as zero
_KNN_BLOCK = 1 << 18  # kNN leaves of about _KNN_BLOCK // n rows, at least _KNN_BLOCK >> 12
# Entries per product, partition and box test of the kNN search: 512 kB of
# float64.  Chunks four times larger made the kNN of a `wide` embedding 15-20%
# slower in alternated calls on a 2-vCPU host.
_KNN_CHUNK = 1 << 16


@dataclass(frozen=True)
class AuxGraph:
    """Weighted symmetric auxiliary graph used only for label smoothing."""

    n: int
    edges: np.ndarray    # (m, 2) int64, i < j, unique
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
    probs: np.ndarray  # (n, C) softmax rows of h @ w, a view of the class-major array
    logp: np.ndarray   # (n, C) their logs, likewise


def estimate_labels_teacher(
    teacher_probs: np.ndarray, labels, labeled_set
) -> SoftLabelMatrix:
    """Teacher probabilities everywhere, clamped to one-hot truth on the
    labeled nodes."""
    # C-ordered, as a run's teacher gives the (n, C) view of its class-major
    # softmax: numpy sums a column-major row in class order, and from eight
    # classes on a C-ordered one pairwise, whose bytes the labels keep
    probs = np.ascontiguousarray(teacher_probs, dtype=np.float64)
    if probs.ndim != 2:
        raise RowNotStochasticError("teacher output must be an n x C matrix")
    finite = np.isfinite(probs)
    if not finite.all():
        bad = np.flatnonzero(~finite.all(axis=1))
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


def _leaf_product(left: np.ndarray, right: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The stacked products ``left[i] @ right[i]`` of the (blocks, rows,
    width) ``left`` and the (blocks, width, columns) ``right``, one block of
    distances each, into the front of the flat ``buf``."""
    out = buf[: left.shape[0] * left.shape[1] * right.shape[2]]
    out = out.reshape(left.shape[0], left.shape[1], right.shape[2])
    return np.matmul(left, right, out=out)


def _group_order(group: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The indices that sort by (group, value) for nonnegative integer
    groups; equal values fall in no set order.  Two sorts, far faster than
    ``np.lexsort``: one ranks the values, one sorts an integer key."""
    rank = np.empty(values.size, dtype=np.int64)
    rank[np.argsort(values)] = np.arange(values.size)
    return np.argsort(group * values.size + rank)


def _spatial_leaves(vectors: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """The leaf of each row: leaf i holds edge[i + 1] - edge[i] rows.  The
    leaves are those of a balanced tree: a node of several leaves has two
    children, split at its middle leaf, and a leaf is its own one child.
    Each node splits its rows on their widest coordinate at the leaf boundary
    between its children, so the leaves are full.  A level of the tree, the
    first leaf of each of its nodes, is one sort of all rows by (node,
    coordinate)."""
    n = vectors.shape[0]
    count = edge.size - 1
    perm = np.arange(n)
    firsts = np.zeros(1, dtype=np.int64)
    while firsts.size < count:
        starts = edge[firsts]
        pts = vectors[perm]
        width = np.maximum.reduceat(pts, starts) - np.minimum.reduceat(pts, starts)
        sizes = np.diff(edge[np.append(firsts, count)])
        axis = np.repeat(np.argmax(width, axis=1), sizes)
        node = np.repeat(np.arange(firsts.size), sizes)
        perm = perm[_group_order(node, pts[np.arange(n), axis])]
        firsts = np.union1d(firsts, (firsts + np.append(firsts[1:], count)) // 2)
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


def _leaf_pairs(lo: np.ndarray, hi: np.ndarray, leaf_bound: np.ndarray):
    """(rows, searched): every pair of distinct leaves such that the box of
    leaf ``searched`` is within ``leaf_bound`` of leaf ``rows``' box, sorted
    by (searched, rows).  One flat pass over all count^2 pairs, O(count^2 d):
    a chunk of searched leaves at a time forms a (chunk, count) block of
    squared box gaps, at most ``max(_KNN_CHUNK, count)`` entries, summed one
    coordinate at a time in two buffers made once per call."""
    count = lo.shape[0]
    step = max(1, _KNN_CHUNK // count)  # searched leaves whose gaps form at once
    lo_t, hi_t = lo.T.copy(), hi.T.copy()  # each coordinate's bounds contiguous
    gap_buf, part_buf = np.empty((2, min(step, count), count))
    rows, searched = [], []
    for start in range(0, count, step):
        chunk = slice(start, start + step)
        gap, part = gap_buf[: count - start], part_buf[: count - start]
        gap.fill(0.0)
        for lo_j, hi_j in zip(lo_t, hi_t):
            np.subtract(lo_j, hi_j[chunk, None], out=part)
            np.maximum(part, lo_j[chunk, None] - hi_j, out=part)
            np.maximum(part, 0.0, out=part)
            part *= part
            gap += part
        b, a = np.nonzero(gap <= leaf_bound)
        b += start
        rows.append(a[a != b])
        searched.append(b[a != b])
    return np.concatenate(rows), np.concatenate(searched)


def _search_leaves(pts, sq_norms, edge, k, slack):
    """Candidate pairs of the leaf-ordered rows ``pts``: (codes p * n + q,
    their block distances, each row's bound).  Every pair (p, q) whose
    distance could be among row p's k smallest is a candidate.

    Distances come from products of the rows [-2 x, |x|^2, 1] by the
    columns [y, 1, |y|^2]; scaling by -2 is exact, so each term of a product
    is x_i y_i times -2 either way.  The leaves are padded to the largest one
    (sizes differ by at most one), and an empty slot's row and column take
    no part.  Each leaf's columns are one C-contiguous (d + 2, width) block
    of a (count, d + 2, width) array, whose first d rows are also its
    coordinates, so every product takes BLAS's no-transpose kernel.
    The search runs over every leaf at once, in array passes:

    - Own blocks: every leaf's rows against its own, a stack of leaves a
      product, and one partition give each row its k nearest in its leaf,
      whose k-th bounds its k-th nearest.
    - Leaf pairs: ``_leaf_pairs`` finds, for each leaf, the leaves whose box
      is within the largest of its rows' bounds of its box, in one flat pass
      over all pairs of leaves, O(count^2 d).
    - Rows: a row searches such a leaf only when the gap from its own point
      to the leaf's box is within its own bound.  The pairs run in chunks
      sorted by the searched leaf.  In a chunk, the rows that search a leaf
      form one product against its columns, in pieces of at most a chunk
      of entries.  After each chunk a row's nearest new distance replaces
      the largest of the k it holds, all of distinct columns, so its bound
      shrinks for the chunks after it.

    Every product, partition and row box test spans at most a chunk,
    ``max(_KNN_CHUNK, width * max(width, d))`` entries for leaves of at most
    ``width`` rows, in buffers allocated once per call, and every block of
    leaf gaps at most ``max(_KNN_CHUNK, count)``.  The own blocks take one
    product per chunk of leaves, and the rows one per (chunk, searched
    leaf), so their products grow with the leaf pairs that pass the leaf
    box test: 44 on the ``wide`` embedding (n = 3000), about 2000 at
    n = 100,002."""
    n, d = pts.shape
    count = edge.size - 1
    sizes = np.diff(edge)
    width = int(sizes.max())
    left = np.hstack([-2.0 * pts, sq_norms[:, None], np.ones((n, 1))])
    slot = np.arange(width)
    empty = slot >= sizes[:, None]  # the empty last slot of each shorter leaf
    members = np.minimum(edge[:-1, None] + slot, edge[1:, None] - 1)
    row_slot = np.flatnonzero(~empty)  # each row's flat (leaf, slot) index
    block = np.empty((count, d + 2, width))  # each leaf's columns [y, 1, |y|^2]
    block[:, :d] = pts[members].transpose(0, 2, 1)
    block[:, d] = 1.0
    block[:, d + 1] = sq_norms[members]
    size = max(_KNN_CHUNK, width * max(width, d))
    dist_buf, part_buf = np.empty(size), np.empty(size)
    take_buf = np.empty(size, dtype=bool)

    def within(dist, lim):
        """Flat indices of the entries of ``dist`` at most ``lim``."""
        take = take_buf[: dist.size].reshape(dist.shape)
        return np.flatnonzero(np.less_equal(dist, lim, out=take))

    top = np.empty((count, width, k))
    codes, dists = [], []
    step = size // (width * width)
    for start in range(0, count, step):
        leaves = slice(start, start + step)
        own = _leaf_product(left[members[leaves]], block[leaves], dist_buf)
        own[:, slot, slot] = np.inf  # a node is not its own neighbor
        own[empty[leaves]] = np.inf
        own.transpose(0, 2, 1)[empty[leaves]] = np.inf
        part = part_buf[: own.size].reshape(own.shape)
        np.copyto(part, own)
        part.partition(k - 1, axis=2)
        top[leaves] = part[:, :, :k]
        lim = part[:, :, k - 1, None] + slack
        lim[empty[leaves]] = -np.inf  # the padding finds nothing
        cand = within(own, lim)
        i, j = np.divmod(cand, width)
        first = edge[start + i // width]
        codes.append((first + i % width) * n + first + j)
        dists.append(own.ravel()[cand])
    top = top.reshape(-1, k)[row_slot]  # each row's k smallest distances found
    top_max = top[:, k - 1].copy()
    if count == 1:  # no other leaf to search
        return codes, dists, top_max + slack

    lo, hi = np.minimum.reduceat(pts, edge[:-1]), np.maximum.reduceat(pts, edge[:-1])
    rows_leaf, searched = _leaf_pairs(lo, hi, np.maximum.reduceat(top_max + slack, edge[:-1]))
    slot_bound = np.full(count * width, -np.inf)  # an empty slot searches nothing
    slot_bound[row_slot] = top_max + slack
    nearest = np.full(n, np.inf)
    last = np.empty(n, dtype=np.int64)
    step = max(1, size // (d * width))
    for start in range(0, searched.size, step):
        a, b = rows_leaf[start : start + step], searched[start : start + step]
        x = block[a, :d]  # each row's leaf's (d, width) coordinates
        # the point of leaf b's box nearest each row of leaf a, less the row
        gap = np.maximum(x, lo[b][:, :, None], out=part_buf[: x.size].reshape(x.shape))
        np.minimum(gap, hi[b][:, :, None], out=gap)
        gap -= x
        gap *= gap
        near = np.flatnonzero(gap.sum(axis=1) <= slot_bound.reshape(count, width)[a])
        if not near.size:
            continue
        rows, leaf = edge[a[near // width]] + near % width, b[near // width]
        firsts = np.flatnonzero(np.diff(leaf, prepend=-1))
        found = len(codes)
        for first, end in zip(firsts.tolist(), np.append(firsts[1:], rows.size).tolist()):
            col0, cols = edge[leaf[first]], block[None, leaf[first], :, : sizes[leaf[first]]]
            for piece in range(first, end, size // width):
                some = rows[piece : min(piece + size // width, end)]
                dist = _leaf_product(left[None, some], cols, dist_buf)[0]
                cand = within(dist, slot_bound[row_slot[some], None])
                i, j = np.divmod(cand, dist.shape[1])
                codes.append(some[i] * n + col0 + j)
                dists.append(dist.ravel()[cand])
        # A row's nearest new distance replaces the largest of the k it holds.
        got = np.concatenate(codes[found:]) // n
        np.minimum.at(nearest, got, np.concatenate(dists[found:]))
        last[got] = np.arange(got.size)  # one of each row's places wins
        hit = got[(last[got] == np.arange(got.size)) & (nearest[got] < top_max[got])]
        held = top[hit]
        held[np.arange(hit.size), held.argmax(axis=1)] = nearest[hit]
        top[hit] = held
        top_max[hit] = held.max(axis=1)
        slot_bound[row_slot[hit]] = top_max[hit] + slack
        nearest[got] = np.inf
    return codes, dists, top_max + slack


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
    of their widest coordinate into full leaves of about ``_KNN_BLOCK // n``
    rows, but at least k + 1 and at least ``_KNN_BLOCK >> 12`` (64).  Below
    that a leaf's own block gives its rows loose first bounds and the leaf
    pairs to search grow many: at n = 30,000, leaves of 8 rows made the
    search about 4 times slower than leaves of 64.  The search runs over
    every leaf at once (``_search_leaves``): it forms distances by BLAS,
    every leaf's own block first in stacked products, then tests the boxes of
    all pairs of leaves in one flat pass, O(count^2 d) for count leaves, and
    each row against the boxes of the leaves its leaf may reach.  Every bound
    is widened by the rounding slack of those distances and of the box gaps,
    so no neighbor and no tie is lost.  Only the candidates within the final
    bounds get per-pair values, about k a row.

    The cost depends on the data.  On clustered or low-rank embeddings, such
    as the propagated ones, a row searches its own leaf and a few near ones,
    and far fewer than n^2 pairs are formed; on isotropic data a row still
    skips the leaves whose box its bound does not reach, and the cost is
    O(n^2 d) time at worst.  Memory is O(chunk + n (d + k)) plus the
    candidates.  Raises NonFiniteFeatureError naming the first row whose
    squared norm, or else the first pair whose squared distance, is not
    finite, where no nearest-neighbor order exists, and the first edge whose
    weight overflows.
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

    count = max(1, min(-(-n // max(1, _KNN_BLOCK // n)), n // max(k + 1, _KNN_BLOCK >> 12)))
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
    gram = gram[kept][order[first]]
    with np.errstate(over="ignore"):  # checked next
        weights = np.power(np.maximum(gram, 0.0), gamma_prime)
    bad = np.flatnonzero(~np.isfinite(weights))
    if bad.size:
        i, j = edges[bad[0]]
        raise NonFiniteFeatureError(
            f"kNN auxiliary graph: the weight of edge ({i}, {j}), max(0, g) ** "
            f"{gamma_prime} with g = {gram[bad[0]]:.6g}, is not finite"
        )
    return AuxGraph(n=n, edges=edges, weights=weights)


def aux_transition_matrix(aux: AuxGraph) -> CscMatrix:
    """Row-stochastic transition matrix, stored by columns by the one sort
    of ``graph.csc_from_coo``; nodes with no positive-weight neighbor fall
    back to a self-loop row.  Raises NonFiniteFeatureError naming the first
    node whose weighted degree overflows."""
    pos = aux.weights > 0.0
    i = aux.edges[pos, 0]
    j = aux.edges[pos, 1]
    ends = np.concatenate([i, j])
    w = np.concatenate([aux.weights[pos]] * 2)  # each edge weighs on both its ends
    deg = np.bincount(ends, weights=w, minlength=aux.n)
    bad = np.flatnonzero(~np.isfinite(deg))
    if bad.size:  # a row of w / inf would drop every label it reaches
        raise NonFiniteFeatureError(
            f"auxiliary graph: the weighted degree of node {bad[0]}, the sum of "
            "its edge weights, is not finite"
        )
    orphan = np.flatnonzero(deg == 0.0)
    rows = np.concatenate([ends, orphan])
    cols = np.concatenate([j, i, orphan])
    deg_safe = np.where(deg > 0.0, deg, 1.0)
    vals = np.concatenate([w, np.ones(orphan.size)]) / deg_safe[rows]
    return csc_from_coo(rows, cols, vals, aux.n)


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
    if masked.any():
        live = ~masked
        y[live] /= y[live].sum(axis=1)[:, None]
    else:  # no masked row: every row in place, with the same sums
        y /= y.sum(axis=1)[:, None]
    return SoftLabelMatrix(y=y, masked=masked)


def smooth_labels(aux: AuxGraph | None, y0: SoftLabelMatrix, n_t: int) -> list:
    """Iteratively diffuse soft labels over the auxiliary graph.

    Returns all n_t + 1 snapshots; at n_t = 0 ``aux`` is not read.  Each
    step is one product with the transition matrix (``graph.csc_matmul``,
    the bytes of scipy's CSR kernel).  Masked rows stay pinned at zero; the
    remaining rows are renormalized after every diffusion step so each
    snapshot keeps exact unit row sums.  A row's divisor is numpy's row sum,
    whose bytes reach every snapshot (adding the class columns in order
    matches it only below eight classes).  A masked row stays masked
    whatever its sum, so the sums are taken before any row is zeroed, and a
    step with no masked row divides every row in place.
    """
    if n_t < 0:
        raise ValueError("n_t must be >= 0")
    snaps = [y0]
    if n_t == 0:
        return snaps
    p = aux_transition_matrix(aux)
    y, masked = y0.y, y0.masked
    for _ in range(n_t):  # each step makes a fresh y and mask for its snapshot
        y = csc_matmul(p, y)
        sums = y.sum(axis=1)
        masked = masked | (sums <= _DEAD_ROW)
        if masked.any():
            y[masked] = 0.0
            np.divide(y, sums[:, None], out=y, where=~masked[:, None])
        else:
            y /= sums[:, None]
        snaps.append(SoftLabelMatrix(y=y, masked=masked))
    return snaps


def _class_argmax(probs: np.ndarray) -> np.ndarray:
    """``np.argmax(probs, axis=0)`` of the class-major (C, n) ``probs``: each
    node's first largest class, or its first NaN.  Numpy's argmax over the
    rows of the (n, C) transpose runs one row at a time; here C - 1
    comparisons of whole class rows find the first largest, and a NaN,
    which ``np.maximum`` carries into the running maximum, hands the
    columns to ``np.argmax``."""
    pred = np.zeros(probs.shape[1], dtype=np.intp)
    best = probs[0].copy()
    for j in range(1, probs.shape[0]):
        pred[probs[j] > best] = j
        np.maximum(best, probs[j], out=best)
    if np.isnan(best).any():
        return np.argmax(probs, axis=0)
    return pred


def _loss(logp: np.ndarray, y: np.ndarray, rows=None) -> float:
    """``cross_entropy`` over the nodes ``rows`` (every node when None) of
    the class-major (C, n) ``logp``, whose (rows, C) C-ordered input is one
    transposing copy of the gathered class rows."""
    if rows is not None:
        logp = np.take(logp, rows, axis=1)
    return cross_entropy(logp.T.copy(), y)


def _labeled(g: Graph, mask) -> tuple:
    """(nodes, labels, one-hot label rows) of the labeled nodes of ``mask``."""
    labeled = mask[g.labels[mask] >= 0]
    truth = g.labels[labeled]
    return labeled, truth, one_hot(truth, g.num_classes)


def _scores(logp: np.ndarray, pred: np.ndarray, split: tuple) -> tuple:
    """(accuracy, loss) over the labeled nodes of a ``_labeled`` split, from
    every node's predicted class ``pred`` and class-major ``logp``."""
    labeled, truth, onehot = split
    if not labeled.size:
        return float("nan"), float("nan")
    return accuracy(pred[labeled], truth), _loss(logp, onehot, labeled)


def split_scores(probs: np.ndarray, logp: np.ndarray, g: Graph, mask) -> tuple:
    """(accuracy, loss) over the labeled nodes of ``mask`` of the head whose
    softmax and log-softmax rows on every node are the (n, C) ``probs`` and
    ``logp``; both NaN when ``mask`` has no labeled node.  Both are read
    through their (C, n) transposes, which are C-ordered for the views a
    ``CurriculumResult`` holds."""
    return _scores(logp.T, _class_argmax(probs.T), _labeled(g, mask))


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
    none), as ``split_scores`` scores val and test.  A pacing task whose
    snapshot has every row masked raises EmptyIncludeError naming the task
    and the snapshot.
    """
    pacing = replace(train_cfg, epochs=pacing_epochs)
    tasks = [(snap, pacing) for snap in reversed(snapshots)]
    truth = one_hot_matrix(g.labels[g.train_mask], g.train_mask, g.n, g.num_classes)
    tasks.append((truth, train_cfg))

    w = None
    metrics = []
    h_t = np.ascontiguousarray(h.T)  # the logits' operand
    has_label = g.labels >= 0
    val = _labeled(g, g.val_mask)
    for index, (labels, cfg) in enumerate(tasks):
        if index < len(snapshots) and labels.masked.all():
            raise EmptyIncludeError(
                f"empty node subset: task {index} trains on snapshot "
                f"{len(snapshots) - 1 - index}, whose rows are all masked; "
                "lower curriculum.mask_ratio"
            )
        start = time.perf_counter()
        w = train_linear(h, labels, cfg, warm_start=w)
        elapsed = (time.perf_counter() - start) * 1e3
        # every score reads the class-major softmax: one prediction per node
        # and loss inputs gathered by class row
        probs, logp = softmax_with_log(class_logits(h_t, w))
        pred = _class_argmax(probs)
        if labels.masked.any():
            rows = labels.unmasked_indices()
            train_loss = _loss(logp, labels.y[rows], rows)
        else:
            train_loss = _loss(logp, labels.y)
        labeled = np.flatnonzero(has_label & ~labels.masked)
        val_accuracy, val_loss = _scores(logp, pred, val)
        metrics.append(
            TaskMetrics(
                index=index,
                train_loss=train_loss,
                train_accuracy=accuracy(pred[labeled], g.labels[labeled]),
                val_accuracy=val_accuracy,
                val_loss=val_loss,
                wall_ms=elapsed,
            )
        )
    return CurriculumResult(w=w, metrics=tuple(metrics), probs=probs.T, logp=logp.T)


def export_snapshots(snapshots, out_dir) -> list:
    """Write each smoothing snapshot as CSV rows (node, class_0 .. class_C-1)."""
    from pathlib import Path

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, snap in enumerate(snapshots):
        path = out_dir / f"snapshot_{i:03d}.csv"
        header = "node," + ",".join(f"class_{c}" for c in range(snap.num_classes))

        def lines(lo, hi):
            rows = float_rows(snap.y[lo:hi])
            return [f"{node},{row}" for node, row in enumerate(rows, start=lo)]

        write_table(path, lines, snap.n, snap.num_classes + 1, header)
        paths.append(path)
    return paths
