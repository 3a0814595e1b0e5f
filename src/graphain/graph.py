"""Graph container and the normalized aggregation operators.

A Graph stores a deduplicated undirected edge list with no self-loops; the
self-loop of the augmented adjacency is injected when the operator is built,
so graphs round-trip cleanly through file I/O.  Centering subtracts column
means; ``apply_centering(apply_operator(op, m))`` applies the doubly centered
aggregator to a column-centered m without the dense n x n centering matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .errors import (
    DimensionMismatchError,
    FeatureRowMismatchError,
    IndexOutOfRangeError,
    NonFiniteFeatureError,
)

OPERATOR_MODES = ("symmetric", "random_walk")


@dataclass(frozen=True)
class Graph:
    """Undirected graph with node features and optional partial labels."""

    n: int
    edges: np.ndarray       # (m, 2) int64, i < j, unique, no self-loops
    features: np.ndarray    # (n, f) float64
    labels: np.ndarray      # (n,) int64, -1 marks an unlabeled node
    train_mask: np.ndarray  # sorted node indices; the three masks are disjoint
    val_mask: np.ndarray
    test_mask: np.ndarray

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    @property
    def num_classes(self) -> int:
        if self.labels.size == 0:
            return 0
        top = int(self.labels.max())
        return top + 1 if top >= 0 else 0


@dataclass(frozen=True)
class NormalizedOperator:
    """Sparse normalized adjacency of A + I, symmetric or random-walk form."""

    matrix: sp.csr_matrix
    degrees: np.ndarray  # degrees of A + I, all >= 1


def _index_array(values, n: int, what: str) -> np.ndarray:
    """Sorted unique copy of the node indices in values."""
    arr = np.asarray(values, dtype=np.int64).ravel()
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise IndexOutOfRangeError(f"{what} index outside [0, {n})")
    if (arr[1:] > arr[:-1]).all():
        return arr.copy()  # already sorted and unique, as split and saved masks are
    return np.unique(arr)


def build_graph(edge_list, n: int, x, y=None, masks=None) -> Graph:
    """Validate and canonicalize raw inputs into a Graph.

    Duplicate and reversed edges are deduplicated; input self-loops are
    dropped (the operator adds its own).  ``masks`` is an optional
    (train, val, test) triple of node index collections.
    """
    if n < 1:
        raise IndexOutOfRangeError("graph needs at least one node")
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if x.ndim != 2:
        raise FeatureRowMismatchError("features must be a 2-D matrix")
    if x.shape[0] != n:
        raise FeatureRowMismatchError(
            f"features have {x.shape[0]} rows for {n} nodes"
        )
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        row, col = bad[0]
        raise NonFiniteFeatureError(
            f"features[{row}, {col}] is {x[row, col]}; features must be finite"
        )

    edges = np.asarray(edge_list, dtype=np.int64).reshape(-1, 2)
    if edges.size:
        if edges.min() < 0 or edges.max() >= n:
            raise IndexOutOfRangeError(f"edge endpoint outside [0, {n})")
        # lo * n + hi sorts as the (lo, hi) rows do; it fits int64 while n < 3e9.
        codes = edges[:, 0] * n + edges[:, 1]
        if (edges[:, 0] < edges[:, 1]).all() and (codes[1:] > codes[:-1]).all():
            edges = edges.copy()  # already canonical, as saved and generated edges are
        else:
            edges = edges[edges[:, 0] != edges[:, 1]]
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            edges = np.column_stack(np.divmod(np.unique(lo * n + hi), n))
    else:
        edges = edges.reshape(0, 2)

    if y is None:
        labels = np.full(n, -1, dtype=np.int64)
    else:
        labels = np.asarray(y, dtype=np.int64).ravel()
        if labels.shape[0] != n:
            raise IndexOutOfRangeError("labels must have one entry per node")
        if labels.min() < -1:
            raise IndexOutOfRangeError("labels must be >= -1")
        # n nodes hold at most n classes, so a larger id only adds empty ones
        top = int(labels.max())
        if top >= n:
            raise IndexOutOfRangeError(f"label {top} is not below the node count {n}")

    if masks is None:
        train = val = test = np.empty(0, dtype=np.int64)
    else:
        train, val, test = (
            _index_array(m, n, name)
            for m, name in zip(masks, ("train", "val", "test"))
        )
        # each mask is unique, so the masks overlap iff they mark fewer nodes than they hold
        marked = np.zeros(n, dtype=bool)
        for mask in (train, val, test):
            marked[mask] = True
        if np.count_nonzero(marked) != train.size + val.size + test.size:
            raise IndexOutOfRangeError("train/val/test masks must be disjoint")

    for arr in (edges, x, labels, train, val, test):
        arr.setflags(write=False)
    return Graph(
        n=n,
        edges=edges,
        features=x,
        labels=labels,
        train_mask=train,
        val_mask=val,
        test_mask=test,
    )


def normalized_adjacency(g: Graph, mode: str = "symmetric") -> NormalizedOperator:
    """Build D^{-1/2} (A+I) D^{-1/2} or D^{-1} (A+I) as a CSR matrix.

    The self-loop guarantees every degree is >= 1, so there is no division
    by zero even for isolated nodes.
    """
    if mode not in OPERATOR_MODES:
        raise ValueError(f"unknown operator mode {mode!r}")
    n = g.n
    i = g.edges[:, 0]
    j = g.edges[:, 1]
    rows = np.concatenate([i, j, np.arange(n, dtype=np.int64)])
    cols = np.concatenate([j, i, np.arange(n, dtype=np.int64)])
    degrees = np.ones(n, dtype=np.float64)
    np.add.at(degrees, i, 1.0)
    np.add.at(degrees, j, 1.0)
    if mode == "symmetric":
        inv_sqrt_deg = 1.0 / np.sqrt(degrees)
        vals = inv_sqrt_deg[rows] * inv_sqrt_deg[cols]
    else:
        vals = 1.0 / degrees[rows]
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    degrees.setflags(write=False)
    return NormalizedOperator(matrix=matrix, degrees=degrees)


def apply_operator(
    op: NormalizedOperator, m: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Sparse-times-dense product with the normalized adjacency, written into
    the C-contiguous (n, k) float64 ``out`` when it is given (and returned).

    The product is scipy's CSR kernel ``csr_matvecs``, the one that
    ``op.matrix.dot(m)`` ends in, called without scipy's dispatch around it:
    on a zeroed output and the rows of m in C order, as ``dot`` calls it, so
    the result is ``op.matrix.dot(m)`` bit for bit.  Row-major accumulation
    over each CSR row keeps it bit-reproducible.  ``out`` must not overlap m.
    """
    m = np.asarray(m, dtype=np.float64)
    n = op.matrix.shape[0]
    if m.ndim != 2 or m.shape[0] != n:
        raise DimensionMismatchError(
            f"operator is {n} x {n}, matrix has shape {m.shape}"
        )
    if out is None:
        out = np.zeros(m.shape)
    else:
        out.fill(0.0)
    a = op.matrix
    _sparsetools.csr_matvecs(
        n, n, m.shape[1], a.indptr, a.indices, a.data, m.ravel(), out.ravel()
    )
    return out


def apply_centering(m: np.ndarray) -> np.ndarray:
    """Subtract column means; output column sums are zero."""
    m = np.asarray(m, dtype=np.float64)
    return m - m.mean(axis=0, keepdims=True)
