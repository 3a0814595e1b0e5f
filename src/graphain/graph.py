"""Graph container, the normalized aggregation operators and their products.

A Graph stores a deduplicated undirected edge list with no self-loops; the
self-loop of the augmented adjacency is injected when the operator is built,
so graphs round-trip cleanly through file I/O.  ``build_graph`` is the one
place a Graph is made, and it copies every array it keeps and makes the
copy read-only, so no caller can change a Graph through an array it holds;
derived Graphs (``synthetic.with_masks``, ``synthetic.add_feature_noise``)
go through it too.  rsoft and pairnorm centre through the operator: theirs
is Â - 1 c^T / n, c the column sums of Â, whose product is that of the plain
operator with its column means subtracted, to rounding, in one pass.  The
separate column-mean subtract is the oracles' (``oracles.apply_centering``).
An operator reads the edges alone, so ``experiment`` keeps a loaded
dataset's for every seed, keyed by the Graph, which hashes by identity.

Sparse matrices are ``CscMatrix`` records of numpy arrays, stored by
columns, and scipy serves only its compiled CSC kernel (``csc_matvecs``),
loaded from its extension file.  The CSC kernel walks the columns in
ascending order, so each output row takes its entries in ascending column
order, as the CSR kernel (``csr_matvecs``) adds them, with the same
``y += a x``: the two give the same bytes, which ``graphain verify --suite
host`` checks, and the CSC kernel is faster the longer the rows, as each
step writes a different output row (``scripts/bench.py --case layers``,
``kernels``).  Importing ``scipy.sparse`` to reach it would cost about 18 MB
of RSS and most of a run's set-up time, as its package ``__init__`` loads
scipy's array-API layer with ``numpy.f2py``, ``numpy.testing`` and
``numpy.ma``; the extension alone costs about 1.5 MB.  If a scipy release
moves or renames ``scipy/sparse/_sparsetools``, importing this module raises
ImportError naming the path it looked for.

A small operator with many entries for its size is also kept as a read-only
dense (n, n) array, centred or not, and ``apply_operator`` multiplies by it
with one BLAS GEMM (``np.matmul``), which beat the CSR kernel from about one
entry in 16 filled (``scripts/bench.py --case layers``, ``crossover``); it
beats the CSC kernel from about one in 8 at n = 256 to 384, but the rule
stays, as a graph that switched paths would move its bytes.  The sparse
kernel starts a centred product's rows at -c^T m / n.  The rule
reads only n and the entry count: ``dense_pays`` holds when n is at most
``_DENSE_MAX_N`` and n^2 at most ``_DENSE_FILL`` times the entries.  The
cap keeps each product byte-identical at 1 and 2 BLAS threads: with
OpenBLAS 0.3.31's SkylakeX kernel the bytes of (n x n) @ (n x d) agreed at
every n <= 384 and d <= 96 swept, and differed from n = 385 (d >= 8) and,
at some n, from d = 105, so products wider than ``_DENSE_MAX_WIDTH``
columns take the sparse kernel as well.  A BLAS that blocks its inner
dimension more finely may round differently at 1 and 2 threads below
these bounds, which ``graphain verify --suite host`` checks.  The dense and
sparse products agree to rounding, not bit for bit.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    FeatureRowMismatchError,
    IndexOutOfRangeError,
    NonFiniteFeatureError,
)

OPERATOR_MODES = ("symmetric", "random_walk")
# Operators of at most _DENSE_MAX_N nodes and at least one entry in
# _DENSE_FILL are also kept dense; products wider than _DENSE_MAX_WIDTH
# columns take the sparse kernel.
_DENSE_MAX_N, _DENSE_FILL, _DENSE_MAX_WIDTH = 384, 16, 64


def _load_sparsetools():
    """scipy's ``_sparsetools`` extension, without importing its packages.

    ``find_spec`` locates scipy without importing it.  The extension loads
    under its own name, so CPython's extension cache hands the same module
    contents to a later ``import scipy.sparse``; loading puts it in
    ``sys.modules``, and it is taken out again so that no submodule sits
    there without its package.
    """
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:  # scipy.sparse was imported first
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("graphain needs scipy's compiled sparse kernels; scipy is not installed")
    directory = Path(scipy_spec.submodule_search_locations[0]) / "sparse"
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    finder = importlib.machinery.FileFinder(
        str(directory), (importlib.machinery.ExtensionFileLoader, suffixes)
    )
    spec = finder.find_spec(name)
    if spec is None:
        path = directory / f"_sparsetools{suffixes[0]}"
        raise ImportError(f"scipy's sparse kernels are not at {path}", name=name, path=str(path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


_sparsetools = _load_sparsetools()


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph with node features and optional partial labels;
    it equals only itself."""

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
class CscMatrix:
    """A sparse matrix in compressed sparse columns: the arrays of
    ``scipy.sparse.csc_matrix((data, indices, indptr), shape)``, with the
    rows of each column sorted and no duplicate entries."""

    shape: tuple
    indptr: np.ndarray   # (cols + 1,) int32, or int64 past 2^31 - 1 entries
    indices: np.ndarray  # (nnz,) row of each entry, indptr's dtype
    data: np.ndarray     # (nnz,) float64

    @property
    def nnz(self) -> int:
        return int(self.indices.size)


def csc_from_coo(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int) -> CscMatrix:
    """The n x n CSC form of duplicate-free (row, col, value) triples.

    One sort on ``col * n + row`` orders the entries and ``indptr`` is the
    cumulative column count, so the arrays equal those of
    ``scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()``,
    int32 indices included while n and the entry count fit in them.  The
    keys are unique, so the default sort gives the one sorted order, at half
    the cost of a stable one.
    """
    order = np.argsort(cols * n + rows)
    dtype = np.int32 if max(n, rows.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=dtype)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    matrix = CscMatrix(
        shape=(n, n), indptr=indptr, indices=rows[order].astype(dtype), data=vals[order]
    )
    for arr in (matrix.indptr, matrix.indices, matrix.data):
        arr.setflags(write=False)
    return matrix


@dataclass(frozen=True)
class NormalizedOperator:
    """Sparse normalized adjacency Â of A + I, symmetric or random-walk form;
    a centred operator, Â - 1 c^T / n, also holds ``shift`` = -c / n.
    ``dense`` is the operator as a read-only array when ``dense_pays``."""

    matrix: CscMatrix
    dense: np.ndarray | None = None  # (n, n) float64, or None
    shift: np.ndarray | None = None  # (n,) float64, or None


def dense_pays(n: int, nnz: int) -> bool:
    """Whether an n x n operator with nnz entries is also kept dense."""
    return n <= _DENSE_MAX_N and n * n <= _DENSE_FILL * nnz


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
    (train, val, test) triple of node index collections.  Every array of
    the Graph is a read-only copy made here: the caller's arrays, read-only
    views and other Graphs' arrays included, are copied, never frozen or
    shared.
    """
    if n < 1:
        raise IndexOutOfRangeError("graph needs at least one node")
    x = np.array(x, dtype=np.float64, order="C")
    if x.ndim != 2:
        raise FeatureRowMismatchError("features must be a 2-D matrix")
    if x.shape[0] != n:
        raise FeatureRowMismatchError(
            f"features have {x.shape[0]} rows for {n} nodes"
        )
    if x.shape[1] == 0:
        raise FeatureRowMismatchError("features need at least one column")
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
        edges = np.empty((0, 2), dtype=np.int64)

    if y is None:
        labels = np.full(n, -1, dtype=np.int64)
    else:
        labels = np.asarray(y, dtype=np.int64).flatten()
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
        n=n, edges=edges, features=x, labels=labels, train_mask=train, val_mask=val, test_mask=test
    )


def normalized_adjacency(
    g: Graph, mode: str = "symmetric", centered: bool = False
) -> NormalizedOperator:
    """Build Â = D^{-1/2} (A+I) D^{-1/2} or D^{-1} (A+I) as a CSC matrix, and
    the operator, Â or when ``centered`` Â - 1 c^T / n, as a dense array too
    when ``dense_pays``.  c sums each column over the rows in order.

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
    degrees = np.bincount(rows)  # each edge end and self-loop counts 1
    if mode == "symmetric":
        inv_sqrt_deg = 1.0 / np.sqrt(degrees)
        vals = inv_sqrt_deg[rows] * inv_sqrt_deg[cols]
    else:
        vals = 1.0 / degrees[rows]
    matrix = csc_from_coo(rows, cols, vals, n)
    dense = shift = None
    if centered:
        column = np.repeat(np.arange(n), np.diff(matrix.indptr))
        shift = np.bincount(column, weights=matrix.data, minlength=n) / -n
        shift.setflags(write=False)
    if dense_pays(n, matrix.nnz):
        dense = np.zeros((n, n))
        dense[rows, cols] = vals
        if centered:
            dense += shift
        dense.setflags(write=False)
    return NormalizedOperator(matrix=matrix, dense=dense, shift=shift)


def _check_shape(shape: tuple, m: np.ndarray) -> None:
    if m.ndim != 2 or m.shape[0] != shape[1]:
        raise DimensionMismatchError(
            f"operator is {shape[0]} x {shape[1]}, matrix has shape {m.shape}"
        )


def csc_matmul(
    a: CscMatrix, m: np.ndarray, out: np.ndarray | None = None, start=0.0
) -> np.ndarray:
    """The one sparse-times-dense product: ``start + a @ m``, written into the
    C-contiguous (rows, k) float64 ``out`` when it is given (and returned).

    It calls scipy's CSC kernel ``csc_matvecs`` as ``csc_matrix @ m`` does,
    on the rows of m in C order and an output filled with ``start``, zero (so
    scipy's bits) or a (k,) row.  Each output row takes its entries in
    ascending column order, as scipy's CSR kernel adds them, which keeps it
    bit-reproducible.  ``out`` must not overlap m.
    """
    m = np.asarray(m, dtype=np.float64)
    _check_shape(a.shape, m)
    rows, cols = a.shape
    if out is None:
        out = np.empty((rows, m.shape[1]))
    out[...] = start
    _sparsetools.csc_matvecs(
        rows, cols, m.shape[1], a.indptr, a.indices, a.data, m.ravel(), out.ravel()
    )
    return out


def apply_operator(
    op: NormalizedOperator, m: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The product with the operator, under ``csc_matmul``'s contract:
    ``np.matmul(op.dense, m, out=out)`` when the operator is kept dense and
    m has at most ``_DENSE_MAX_WIDTH`` columns, else ``csc_matmul`` on Â,
    scipy's sparse kernels bit for bit, started at the row ``op.shift @ m``
    when the operator is centred."""
    m = np.asarray(m, dtype=np.float64)
    _check_shape(op.matrix.shape, m)
    if op.dense is not None and m.shape[1] <= _DENSE_MAX_WIDTH:
        return np.matmul(op.dense, m, out=out)
    # einsum, not a BLAS GEMV, whose bytes change with the thread count
    start = 0.0 if op.shift is None else np.einsum("i,ij->j", op.shift, m)
    return csc_matmul(op.matrix, m, out, start)
