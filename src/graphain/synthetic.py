"""Synthetic data: Gaussian cluster graphs, feature noising, splits, and the
seeded random connected graphs the verification suites run on.

The cluster graph's edges are drawn per cluster pair, in O(n + m) time and
memory for m edges (Batagelj & Brandes 2005, "Efficient generation of large
random networks"): an edge count from the binomial over the pair's node
pairs, then that many of them chosen uniformly without replacement.  At the
benchmark's ``wide`` degree (intra 10, inter 1) a 3 x 33,333 graph takes
under a second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, build_graph


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian cluster graph: spread-out centers, unit-covariance points,
    Bernoulli edges with probability intra_p inside a cluster and inter_p
    across two.  Either may be the larger: inter_p > intra_p draws a
    heterophilous graph, whose edges mostly join different clusters."""

    clusters: int
    nodes_per_cluster: int
    intra_p: float
    inter_p: float
    center_spread: float = 6.0
    centers_dim: int = 3
    feature_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.clusters < 2:
            raise ValueError(f"need at least two clusters, got clusters = {self.clusters}")
        if self.nodes_per_cluster < 1:
            raise ValueError(f"nodes_per_cluster must be >= 1, got {self.nodes_per_cluster}")
        for name in ("intra_p", "inter_p"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        for name in ("center_spread", "feature_sigma"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.centers_dim < 1:
            raise ValueError(f"centers_dim must be >= 1, got {self.centers_dim}")


def gen_gaussian_cluster_graph(spec: SyntheticSpec) -> Graph:
    """Deterministic per seed; labels are the cluster ids, masks stay empty.

    Each node pair i < j is an edge, independently, with probability
    intra_p inside a cluster and inter_p across two.  For each cluster pair
    a <= b, in order, the edge count is drawn from Binomial(pairs, p), and
    that many distinct pairs are chosen uniformly, which gives the same
    distribution; the edges come out sorted.  Centers and features are drawn
    first, from the same generator.
    """
    rng = np.random.default_rng(spec.seed)
    s = spec.nodes_per_cluster
    n = spec.clusters * s
    centers = spec.center_spread * rng.standard_normal(
        (spec.clusters, spec.centers_dim)
    )
    labels = np.repeat(np.arange(spec.clusters, dtype=np.int64), s)
    features = centers[labels] + spec.feature_sigma * rng.standard_normal(
        (n, spec.centers_dim)
    )
    # Inside a cluster, index k = j (j - 1) / 2 + i names the pair i < j.
    tri = np.arange(s, dtype=np.int64) * np.arange(-1, s - 1) // 2
    codes = []
    for a in range(spec.clusters):
        for b in range(a, spec.clusters):
            if a == b:
                pairs, p = s * (s - 1) // 2, spec.intra_p
            else:
                pairs, p = s * s, spec.inter_p
            k = rng.choice(pairs, rng.binomial(pairs, p), replace=False, shuffle=False)
            if a == b:
                j = np.searchsorted(tri, k, side="right") - 1
                i = k - tri[j]
            else:
                i, j = np.divmod(k, s)
            # lo * n + hi sorts as the (lo, hi) rows do
            codes.append((a * s + i) * n + (b * s + j))
    edges = np.column_stack(np.divmod(np.sort(np.concatenate(codes)), n))
    return build_graph(edges, n, features, y=labels)


def add_feature_noise(g: Graph, seed: int) -> Graph:
    """A copy of g whose every feature row is fresh standard-normal noise."""
    noise = np.random.default_rng(seed).standard_normal(g.features.shape)
    masks = (g.train_mask, g.val_mask, g.test_mask)
    return build_graph(g.edges, g.n, noise, y=g.labels, masks=masks)


def split_masks(labels: np.ndarray, train_frac: float, val_frac: float, seed: int):
    """Stratified per-class train/val/test index split, deterministic per seed."""
    for name, frac in (("train_frac", train_frac), ("val_frac", val_frac)):
        if not np.isfinite(frac):
            raise ValueError(f"{name} must be finite, got {frac}")
    if train_frac < 0 or val_frac < 0 or train_frac + val_frac > 1.0:
        raise ValueError("fractions must be nonnegative and sum to at most 1")
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    chunks = [(np.empty(0, dtype=np.int64),) * 3]  # then each class's train, val, test
    for cls in np.unique(labels[labels >= 0]):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        n_tr = int(round(train_frac * idx.size))
        n_val = int(round(val_frac * idx.size))
        chunks.append(np.split(idx, [n_tr, n_tr + n_val]))
    return tuple(np.sort(np.concatenate(part)) for part in zip(*chunks))


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
