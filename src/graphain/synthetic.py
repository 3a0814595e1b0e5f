"""Synthetic data: Gaussian cluster graphs, feature noising, splits, and the
seeded random connected graphs the verification suites run on.

The cluster graph's Bernoulli edge draw runs in blocks of
block = min(n, max(1, _DRAW_BLOCK // n)) rows, so its working memory is
O(block * n) (about 2^20 entries, n^2 for a small graph, or one row once n
exceeds 2^20) plus the edge list, not O(n^2).  Each block is drawn into one
float buffer and compared, only in the columns right of its first row, into
one bool buffer; both are allocated once per call.  A 3 x 1000 graph peaks
at 11 MB under ``tracemalloc``.  It still makes all n^2 uniform draws, so
time stays quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph import Graph, build_graph

_DRAW_BLOCK = 1 << 20  # uniform draws per row block of the cluster graph's edges


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian cluster graph: spread-out centers, unit-covariance points,
    Bernoulli edges denser inside clusters than across them."""

    clusters: int
    nodes_per_cluster: int
    intra_p: float
    inter_p: float
    center_spread: float = 6.0
    centers_dim: int = 3
    feature_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.clusters < 2 or self.nodes_per_cluster < 1:
            raise ValueError("need at least two clusters with one node each")
        if not 0.0 <= self.inter_p < self.intra_p <= 1.0:
            raise ValueError("need 0 <= inter_p < intra_p <= 1")
        if self.centers_dim < 1 or self.center_spread < 0 or self.feature_sigma < 0:
            raise ValueError("bad synthetic geometry parameters")


def gen_gaussian_cluster_graph(spec: SyntheticSpec) -> Graph:
    """Deterministic per seed; labels are the cluster ids, masks stay empty.

    Node pair (i, j), i < j, is an edge when the (i, j) entry of an n x n
    uniform draw falls under its probability.  The draw is taken in row
    blocks, in row-major order, so the PCG64 stream is consumed exactly as
    by one n x n draw and the edges come out in the same order:
    O(block * n) working memory, O(n^2) draws.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.clusters * spec.nodes_per_cluster
    centers = spec.center_spread * rng.standard_normal(
        (spec.clusters, spec.centers_dim)
    )
    labels = np.repeat(np.arange(spec.clusters, dtype=np.int64), spec.nodes_per_cluster)
    features = centers[labels] + spec.feature_sigma * rng.standard_normal(
        (n, spec.centers_dim)
    )
    # Row c: the edge probability from a node of cluster c to every node.
    thresholds = np.where(
        np.arange(spec.clusters)[:, None] == labels, spec.intra_p, spec.inter_p
    )
    rows_per_block = min(n, max(1, _DRAW_BLOCK // n))
    draw_buf = np.empty((rows_per_block, n))
    keep_buf = np.empty(rows_per_block * n, dtype=bool)
    # Within a block, row r may keep column start + 1 + c only when c >= r.
    above = ~np.tri(rows_per_block, rows_per_block - 1, k=-1, dtype=bool)
    heads, tails = [], []
    for start in range(0, n, rows_per_block):
        stop = min(n, start + rows_per_block)
        rows, width = stop - start, n - start - 1
        draw = rng.random(out=draw_buf[:rows])
        keep = keep_buf[: rows * width].reshape(rows, width)
        # Labels are sorted, so each cluster owns one run of the block's rows.
        for c in range(labels[start], labels[stop - 1] + 1):
            lo = max(start, c * spec.nodes_per_cluster) - start
            hi = min(stop, (c + 1) * spec.nodes_per_cluster) - start
            np.less(draw[lo:hi, start + 1 :], thresholds[c, start + 1 :], out=keep[lo:hi])
        keep[:, : rows - 1] &= above[:rows, : rows - 1]
        r, j = np.divmod(np.flatnonzero(keep), width)  # row-major, j > i
        heads.append(r + start)
        tails.append(j + start + 1)
    edges = np.column_stack([np.concatenate(heads), np.concatenate(tails)])
    return build_graph(edges, n, features, y=labels)


def add_feature_noise(g: Graph, seed: int) -> Graph:
    """Replace every feature row with fresh standard-normal noise."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(g.features.shape)
    noise.setflags(write=False)
    return replace(g, features=noise)


def split_masks(labels: np.ndarray, train_frac: float, val_frac: float, seed: int):
    """Stratified per-class train/val/test index split, deterministic per seed."""
    if train_frac < 0 or val_frac < 0 or train_frac + val_frac > 1.0:
        raise ValueError("fractions must be nonnegative and sum to at most 1")
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    train, val, test = [], [], []
    for cls in np.unique(labels[labels >= 0]):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        n_tr = int(round(train_frac * idx.size))
        n_val = int(round(val_frac * idx.size))
        train.extend(idx[:n_tr])
        val.extend(idx[n_tr : n_tr + n_val])
        test.extend(idx[n_tr + n_val :])
    return (
        np.sort(np.array(train, dtype=np.int64)),
        np.sort(np.array(val, dtype=np.int64)),
        np.sort(np.array(test, dtype=np.int64)),
    )


def with_masks(g: Graph, train_frac: float, val_frac: float, seed: int) -> Graph:
    train, val, test = split_masks(g.labels, train_frac, val_frac, seed)
    return build_graph(
        g.edges, g.n, g.features, y=g.labels, masks=(train, val, test)
    )


def random_connected_graph(
    n: int, extra_p: float, seed: int, feature_dim: int = 0
) -> Graph:
    """Random spanning tree plus independent extra edges; always connected."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    edges = [
        (int(order[i]), int(order[int(rng.integers(0, i))])) for i in range(1, n)
    ]
    if extra_p > 0 and n > 1:
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(iu.size) < extra_p
        edges.extend(zip(iu[keep].tolist(), ju[keep].tolist()))
    features = (
        rng.standard_normal((n, feature_dim))
        if feature_dim
        else np.zeros((n, 1))
    )
    return build_graph(edges, n, features)


def circulant_graph(n: int, offsets, feature_dim: int = 0, seed: int = 0) -> Graph:
    """Regular circulant graph: node i links to i +/- each offset (mod n)."""
    edges = []
    for i in range(n):
        for off in offsets:
            edges.append((i, (i + off) % n))
    rng = np.random.default_rng(seed)
    features = (
        rng.standard_normal((n, feature_dim))
        if feature_dim
        else np.zeros((n, 1))
    )
    return build_graph(edges, n, features)
