"""Dense brute-force oracles for desk-scale verification.

Everything here materializes n x n matrices or takes an SVD and uses LAPACK
through numpy, deliberately sharing no kernels with the production path,
whose modules lend it only the ``Graph`` and ``CsrMatrix`` records and
``EPS_RANK``.  The reference routes no run calls live here too: the
column-mean subtract and the SVD projection U V^T.  A hard size cap keeps
the O(n^3) work confined to verification.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateGapError,
    InvalidCoefficientsError,
    NotErgodicError,
    RankDeficientError,
    SingularSystemError,
    TooLargeError,
)
from .graph import CsrMatrix, Graph
from .linalg import EPS_RANK

DENSE_CAP = 2000


def _check_cap(n: int):
    if n > DENSE_CAP:
        raise TooLargeError(f"dense oracle capped at n <= {DENSE_CAP}, got {n}")


def apply_centering(m: np.ndarray) -> np.ndarray:
    """Subtract column means; output column sums are zero."""
    m = np.asarray(m, dtype=np.float64)
    return m - m.mean(axis=0, keepdims=True)


def orthonormal_projection(m: np.ndarray) -> np.ndarray:
    """Nearest matrix with orthonormal columns, computed as U V^T from the SVD.

    It is mathematically equal to hard whitening m (m^T m)^{-1/2}, the
    production filter at a = b = 1, d0 = d, but shares no code with it.
    Raises RankDeficientError when the smallest singular value is at most
    ``EPS_RANK`` times the largest.
    """
    m = np.asarray(m, dtype=np.float64)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s[0] <= 0.0 or s[-1] <= EPS_RANK * s[0]:
        raise RankDeficientError(
            f"singular value range [{s[-1]:.3e}, {s[0]:.3e}] is rank deficient"
        )
    return u @ vt


def dense_ahat(g: Graph) -> np.ndarray:
    """Dense symmetric normalized adjacency of A + I, built independently."""
    _check_cap(g.n)
    a = np.zeros((g.n, g.n))
    if g.num_edges:
        a[g.edges[:, 0], g.edges[:, 1]] = 1.0
        a[g.edges[:, 1], g.edges[:, 0]] = 1.0
    a[np.diag_indices(g.n)] += 1.0
    deg = a.sum(axis=1)
    scale = 1.0 / np.sqrt(deg)
    return a * np.outer(scale, scale)


def dense_csr(a: CsrMatrix) -> np.ndarray:
    """Dense form of a CSR matrix: each stored entry written in place."""
    _check_cap(max(a.shape))
    dense = np.zeros(a.shape)
    dense[np.repeat(np.arange(a.shape[0]), np.diff(a.indptr)), a.indices] = a.data
    return dense


def dense_abar(g: Graph) -> np.ndarray:
    """Dense doubly centered aggregator T Ahat T."""
    _check_cap(g.n)
    n = g.n
    t = np.eye(n) - np.full((n, n), 1.0 / n)
    return t @ dense_ahat(g) @ t


def dense_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, nonincreasing, and eigenvectors (columns), with a
    deterministic sign convention per column."""
    m = np.asarray(m, dtype=np.float64)
    _check_cap(m.shape[0])
    lam, u = np.linalg.eigh(m)
    lam = lam[::-1].copy()
    u = u[:, ::-1].copy()
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))  # first maximum on ties
        if u[i, j] < 0.0:
            u[:, j] = -u[:, j]
    recon = float(np.linalg.norm((u * lam) @ u.T - m))
    if recon > 1e-8 * max(float(np.linalg.norm(m)), 1e-30):
        raise TooLargeError(f"spectrum reconstruction error {recon:.3e}")
    return lam, u


def top_d_eigvectors(m: np.ndarray, d: int) -> np.ndarray:
    """Eigenvectors of the d algebraically largest eigenvalues."""
    values, u = dense_spectrum(m)
    n = values.shape[0]
    if not 1 <= d <= n:
        raise DegenerateGapError(f"d must be in [1, {n}]")
    if d < n and values[d - 1] - values[d] <= 1e-10:
        raise DegenerateGapError(
            f"eigenvalues {d} and {d + 1} coincide within 1e-10; "
            "the subspace is ill-defined"
        )
    return u[:, :d].copy()


def knn_edges_dense(vectors: np.ndarray, k: int, gamma_prime: float):
    """(edges, weights) of the symmetrized kNN graph by a stable sort per row.

    The reference for ``curriculum.build_knn_aux_graph``: each node keeps the
    first k other nodes in stable ascending-distance order, so ties go to the
    lower index; k is clamped to n - 1.  Edges are sorted (i, j) pairs with
    i < j, weighted max(0, g_ij) ** gamma_prime.

    Every pair is formed, whatever the data, from per-pair values: g_ij is
    ``np.vecdot`` of rows i and j, the squared norms are ``np.vecdot`` of
    each row with itself, and the distance is sq_i + sq_j - 2 g_ij.  The
    production kNN searches leaf blocks for its candidates but decides each
    pair from these same values, so both return the same bits on every input.
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    _check_cap(n)
    k = min(k, n - 1)
    sq_norms = np.vecdot(vectors, vectors)
    pairs = set()
    for i in range(n):
        dist = sq_norms[i] + sq_norms - 2.0 * np.vecdot(vectors[i], vectors)
        order = np.argsort(dist, kind="stable")
        picked = 0
        for j in order:
            j = int(j)
            if j == i:
                continue
            pairs.add((min(i, j), max(i, j)))
            picked += 1
            if picked == k:
                break
    edges = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    gram = np.vecdot(vectors[edges[:, 0]], vectors[edges[:, 1]])
    return edges, np.power(np.maximum(gram, 0.0), gamma_prime)


def pga_oracle_hard(x: np.ndarray, g: Graph, steps: int) -> np.ndarray:
    """Projected gradient ascent with unit step on the trace objective.

    Each step multiplies by the dense doubly centered aggregator, then
    projects onto orthonormal columns via the SVD route.
    """
    _check_cap(g.n)
    abar = dense_abar(g)
    h = orthonormal_projection(np.asarray(x, dtype=np.float64))
    for _ in range(steps):
        h = orthonormal_projection(abar @ h)
    return h


def pga_oracle_residual(
    x: np.ndarray, g: Graph, alpha: float, beta: float, gamma: float, steps: int
) -> np.ndarray:
    """Projected gradient ascent on the feature-anchored trace objective.

    The update is written gradient-first (H + eta * grad with eta = alpha)
    rather than as the mixed aggregation formula, so agreement with the
    production residual step checks the algebra, not the implementation.
    """
    if min(alpha, beta, gamma) < 0.0 or alpha <= 0.0:
        raise InvalidCoefficientsError("need alpha > 0 and beta, gamma >= 0")
    if abs(alpha + beta + gamma - 1.0) > 1e-12:
        raise InvalidCoefficientsError("alpha + beta + gamma must equal 1")
    _check_cap(g.n)
    abar = dense_abar(g)
    x = np.asarray(x, dtype=np.float64)
    anchor = gamma / alpha
    h = orthonormal_projection(x)
    for _ in range(steps):
        grad = abar @ h - h - anchor * (h - x)
        h = orthonormal_projection(h + alpha * grad)
    return h


def oversmoothing_limit_check(g: Graph, h: np.ndarray) -> np.ndarray:
    """Per-column |cosine| of a deep plain-propagation embedding h to the
    limit direction, the dominant eigenvector of the dense normalized
    adjacency (proportional to sqrt(degrees)).

    Requires an ergodic graph: connected (second eigenvalue strictly below 1)
    and aperiodic (smallest eigenvalue strictly above -1).
    """
    _check_cap(g.n)
    values, u = dense_spectrum(dense_ahat(g))
    if g.n > 1 and values[1] > 1.0 - 1e-8:
        raise NotErgodicError("graph is disconnected; the limit does not apply")
    if values[-1] < -1.0 + 1e-8:
        raise NotErgodicError("graph is bipartite-like; the limit does not apply")
    h = np.asarray(h, dtype=np.float64)
    v = u[:, 0]
    cosines = np.zeros(h.shape[1])
    for j in range(h.shape[1]):
        cnorm = float(np.linalg.norm(h[:, j]))
        if cnorm > 0.0:
            cosines[j] = abs(float(v @ h[:, j])) / cnorm
    return cosines


def label_prop_closed_form(
    p: np.ndarray, y_l: np.ndarray, labeled_set, unlabeled_set
) -> np.ndarray:
    """Exact limit of clamped label propagation by a dense linear solve.

    ``p`` is the dense row-stochastic transition matrix of the auxiliary
    graph (``dense_csr(aux_transition_matrix(aux))``), ``y_l`` holds the
    clamped rows aligned with ``labeled_set``.  Raises SingularSystemError
    when some unlabeled node cannot be reached from any labeled node through
    positive transition entries.
    """
    p = np.asarray(p, dtype=np.float64)
    labeled = np.asarray(labeled_set, dtype=np.int64)
    unlabeled = np.asarray(unlabeled_set, dtype=np.int64)
    _check_cap(unlabeled.size)
    y_l = np.asarray(y_l, dtype=np.float64)
    if unlabeled.size == 0:
        return np.zeros((0, y_l.shape[1]))

    pattern = (p > 0.0) | (p.T > 0.0)
    np.fill_diagonal(pattern, False)
    reached = np.zeros(p.shape[0], dtype=bool)
    reached[labeled] = True
    frontier = list(labeled)
    while frontier:
        nxt = pattern[frontier].any(axis=0) & ~reached
        frontier = list(np.flatnonzero(nxt))
        reached |= nxt
    if not reached[unlabeled].all():
        missing = int(unlabeled[~reached[unlabeled]][0])
        raise SingularSystemError(
            f"node {missing} is unreachable from every labeled node"
        )

    p_uu = p[np.ix_(unlabeled, unlabeled)]
    p_ul = p[np.ix_(unlabeled, labeled)]
    try:
        return np.linalg.solve(np.eye(unlabeled.size) - p_uu, p_ul @ y_l)
    except np.linalg.LinAlgError as err:
        raise SingularSystemError(str(err)) from err
