"""Operable verification suites.

Each suite runs a brute-force oracle against the production path on seeded
desk-scale instances and reports per-check maxima against pinned tolerances.
The test suite asserts on these reports and the `verify` CLI command prints
them, so conformance is both testable and operable.

Instances come from a deterministic seed walk with a conditioning precheck
(minimum singular value of the centred product along the trajectory);
near-degenerate spectra make elementwise trajectory comparison meaningless,
so such draws are skipped the same way every run.  The reference routes
(SVD projection, column-mean subtract) are the oracles'.  The ``host``
suite checks the host's BLAS instead.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .curriculum import (
    _DEAD_ROW,
    AuxGraph,
    aux_from_graph,
    aux_transition_matrix,
    smooth_labels,
)
from .diagnostics import pairwise_stats
from .errors import RankDeficientError
from .graph import apply_operator, build_graph, csr_matmul, normalized_adjacency
from .labels import SoftLabelMatrix, one_hot
from .linalg import SpectralFilterParams, principal_subspace_distance, soft_spectral_filter
from .oracles import (
    apply_centering,
    dense_abar,
    dense_csr,
    label_prop_closed_form,
    orthonormal_projection,
    oversmoothing_limit_check,
    pga_oracle_hard,
    pga_oracle_residual,
    top_d_eigvectors,
)
from .propagation import PropagationConfig, residual_combine, run_fuzzy_r_softgraphain
from .synthetic import circulant_graph, random_connected_graph


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            out.append(
                f"{status} {self.suite}/{c.name}: max {c.value:.3e} "
                f"(tol {c.tolerance:.1e})"
            )
        return out


def hard_whiten(b: np.ndarray) -> np.ndarray:
    """b (b^T b)^{-1/2}: the production filter at a = b = 1 on all d channels."""
    return soft_spectral_filter(b, SpectralFilterParams(a=1.0, b=1.0, d0=b.shape[1]))


def _centered_orthonormal(rng, n: int, d: int) -> np.ndarray:
    return orthonormal_projection(apply_centering(rng.standard_normal((n, d))))


def _min_sigma_along_trajectory(g, x0, steps: int) -> float:
    """Smallest singular value of the centred product seen over a hard run."""
    op = normalized_adjacency(g, "symmetric", centered=True)
    h = x0
    smin = np.inf
    for _ in range(steps):
        b = apply_operator(op, h)
        s = np.linalg.svd(b, compute_uv=False)
        smin = min(smin, float(s[-1]))
        if smin <= 1e-12:
            return 0.0
        h = hard_whiten(b)
    return smin


_SIGMA_MIN = 0.05


def well_conditioned_instances(
    count: int, layers: int, base_seed: int, orthonormal_start: bool = False
):
    """Deterministic (graph, start matrix) pairs with n in [10, 50] and
    d in [2, 8] whose hard trajectories keep every singular value of the
    centred product at or above ``_SIGMA_MIN``."""
    instances = []
    seed = base_seed
    while len(instances) < count:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 51))
        d = int(rng.integers(2, min(8, max(3, n // 4)) + 1))
        g = random_connected_graph(n, extra_p=0.25, seed=seed + 10_000)
        x0 = rng.standard_normal((n, d))
        if orthonormal_start:
            try:
                x0 = orthonormal_projection(apply_centering(x0))
            except RankDeficientError:
                seed += 1
                continue
        if _min_sigma_along_trajectory(g, x0, layers) >= _SIGMA_MIN:
            instances.append((g, x0))
        seed += 1
    return instances


def theorem1_suite(num_instances: int = 20, layers: int = 20) -> VerifyReport:
    """Structural facts of the hard whitening layer on seeded graphs.

    Per layer of the production filter at a = b = 1 on the centred product:
    zero column sums, orthonormal columns, invariance under centering,
    agreement of the centred product with the dense doubly centered
    product, and the constant pairwise-distance sum 2 n d.
    """
    col_sum = gram = center = bt = pairwise = 0.0
    for g, x0 in well_conditioned_instances(num_instances, layers, base_seed=100):
        op = normalized_adjacency(g, "symmetric", centered=True)
        abar = dense_abar(g)
        n, d = x0.shape
        h = x0
        for _ in range(layers):
            h = hard_whiten(apply_operator(op, h))
            col_sum = max(col_sum, float(np.abs(h.sum(axis=0)).max()))
            gram = max(gram, float(np.abs(h.T @ h - np.eye(d)).max()))
            center = max(center, float(np.abs(apply_centering(h) - h).max()))
            b_prod = apply_operator(op, h)
            bt = max(bt, float(np.abs(b_prod - abar @ h).max()))
            total, _ = pairwise_stats(h)
            pairwise = max(pairwise, abs(total - 2.0 * n * d) / (2.0 * n * d))
    checks = (
        VerifyCheck("column-sums-zero", col_sum, 1e-9),
        VerifyCheck("columns-orthonormal", gram, 1e-8),
        VerifyCheck("centering-invariant", center, 1e-10),
        VerifyCheck("aggregate-matches-dense", bt, 1e-9),
        VerifyCheck("pairwise-sum-2nd", pairwise, 1e-6),
    )
    return VerifyReport("theorem1", checks)


def theorem2_suite(num_instances: int = 20, steps: int = 10) -> VerifyReport:
    """Hard whitening trajectory against the SVD-projection ascent oracle,
    plus the deep-run convergence to the top eigenvector subspace.

    Starts are centered with orthonormal columns, where the plain trajectory
    and the projected-ascent recursion coincide exactly.
    """
    traj_dev = 0.0
    for g, x0 in well_conditioned_instances(
        num_instances, steps, base_seed=300, orthonormal_start=True
    ):
        op = normalized_adjacency(g, "symmetric", centered=True)
        h = x0
        for k in range(1, steps + 1):
            h = hard_whiten(apply_operator(op, h))
            oracle = pga_oracle_hard(x0, g, k)
            traj_dev = max(traj_dev, float(np.abs(h - oracle).max()))

    sub_dev = eigenvector_limit_distance()
    checks = (
        VerifyCheck("trajectory-matches-oracle", traj_dev, 1e-8),
        VerifyCheck("limit-spans-top-eigvectors", sub_dev, 1e-6),
    )
    return VerifyReport("theorem2", checks)


def planted_partition_graph(seed: int = 7):
    """Two 30-node blocks, dense inside and sparse across."""
    rng = np.random.default_rng(seed)
    n = 60
    block = (np.arange(n) >= 30).astype(np.int64)
    iu, ju = np.triu_indices(n, k=1)
    same = block[iu] == block[ju]
    p = np.where(same, 0.5, 0.05)
    keep = rng.random(iu.size) < p
    edges = np.column_stack([iu[keep], ju[keep]])
    return build_graph(edges, n, np.zeros((n, 1)), y=block)


def eigenvector_limit_distance(steps: int = 500) -> float:
    """Subspace distance of a deep hard run to the dominant eigenvector of
    the doubly centered aggregator on a planted partition."""
    g = planted_partition_graph()
    abar = dense_abar(g)
    lam = np.linalg.eigvalsh(abar)[::-1]
    # preconditions of the limit claim: a clear leading gap and no
    # larger-magnitude negative eigenvalue
    assert lam[0] / max(lam[1], 1e-12) > 1.2, "planted partition lost its gap"
    assert lam[0] > abs(lam[-1]), "negative tail dominates"
    d = 1
    target = top_d_eigvectors(abar, d)
    rng = np.random.default_rng(11)
    op = normalized_adjacency(g, "symmetric", centered=True)
    h = _centered_orthonormal(rng, g.n, d)
    dist = 1.0
    for _ in range(steps):
        h = hard_whiten(apply_operator(op, h))
        dist = principal_subspace_distance(h, target)
        if dist < 1e-7:
            break
    return dist


def theorem3_suite(num_instances: int = 20) -> VerifyReport:
    """One residual step against the gradient-form ascent oracle.

    The oracle anchors to a centered matrix X and starts from its orthonormal
    projection H; the production step mixes the centred product of H with
    H itself (residual) and X (initial connection), then hard-projects.
    """
    triples = ((0.5, 0.3, 0.2), (0.8, 0.1, 0.1), (1.0, 0.0, 0.0))
    dev = 0.0
    kept = 0
    seed = 500
    while kept < num_instances:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 51))
        d = int(rng.integers(2, min(8, max(3, n // 4)) + 1))
        g = random_connected_graph(n, extra_p=0.25, seed=seed + 20_000)
        anchor = apply_centering(rng.standard_normal((n, d)))
        seed += 1
        try:
            h0 = orthonormal_projection(anchor)
        except RankDeficientError:
            continue
        op = normalized_adjacency(g, "symmetric", centered=True)
        steps = []
        conditioned = True
        for alpha, beta, gamma in triples:
            cfg = PropagationConfig(
                alpha=alpha,
                beta=beta,
                gamma=gamma,
                filter=SpectralFilterParams(a=1.0, b=1.0, d0=d),
                layers=1,
            )
            b = residual_combine(h0, cfg.beta * h0, cfg.gamma * anchor, cfg, op)
            smin = float(np.linalg.svd(b, compute_uv=False)[-1])
            if smin < 0.05:
                conditioned = False
                break
            steps.append(((alpha, beta, gamma), b))
        if not conditioned:
            continue
        kept += 1
        for (alpha, beta, gamma), b in steps:
            produced = hard_whiten(b)
            oracle = pga_oracle_residual(anchor, g, alpha, beta, gamma, steps=1)
            dev = max(dev, float(np.abs(produced - oracle).max()))
    return VerifyReport(
        "theorem3", (VerifyCheck("residual-step-matches-oracle", dev, 1e-8),)
    )


def oversmooth_suite(layers: int = 10_000) -> VerifyReport:
    """Deep plain propagation (the runner's sgc variant) on a regular
    circulant graph: every column aligns with the degree vector and pairwise
    diversity collapses."""
    g = circulant_graph(20, offsets=(1, 2), feature_dim=4, seed=3)
    cfg = PropagationConfig(
        alpha=1.0,
        beta=0.0,
        gamma=0.0,
        filter=SpectralFilterParams(a=1.0, b=1.0, d0=1),
        layers=layers,
    )
    deep = run_fuzzy_r_softgraphain(g, cfg, variant="sgc")
    cos_dev = float((1.0 - oversmoothing_limit_check(g, deep)).max())

    total0, _ = pairwise_stats(g.features)
    total_deep, _ = pairwise_stats(deep)
    ratio = total_deep / total0
    checks = (
        VerifyCheck("columns-align-with-degree-vector", cos_dev, 1e-6),
        VerifyCheck("pairwise-collapse-ratio", ratio, 1e-8),
    )
    return VerifyReport("oversmooth", checks)


def _iterative_label_propagation(
    aux: AuxGraph, y_l: np.ndarray, labeled_set, iters: int
) -> SoftLabelMatrix:
    """Propagate-then-clamp iteration; rows are renormalized once at the end.

    Rows that never receive mass stay zero and come back flagged masked.  The
    pipeline never runs this: it is the iterated side of ``labelprop_suite``'s
    closed-form check.
    """
    labeled = np.asarray(labeled_set, dtype=np.int64).ravel()
    if labeled.size == 0:
        raise ValueError("label propagation needs at least one labeled node")
    y_l = np.asarray(y_l, dtype=np.float64)
    p = aux_transition_matrix(aux)
    f = np.zeros((aux.n, y_l.shape[1]))
    f[labeled] = y_l
    for _ in range(iters):
        f = csr_matmul(p, f)
        f[labeled] = y_l
    sums = f.sum(axis=1)
    masked = sums <= _DEAD_ROW
    f[masked] = 0.0
    live = ~masked
    f[live] /= sums[live, None]
    return SoftLabelMatrix(y=f, masked=masked)


def labelprop_suite(num_instances: int = 10, iters: int = 500) -> VerifyReport:
    """Clamped iteration against the dense closed form, plus rank-1 collapse
    of unclamped smoothing on connected positive-weight graphs."""
    lp_dev = 0.0
    for k in range(num_instances):
        rng = np.random.default_rng(900 + k)
        g = random_connected_graph(30, extra_p=0.15, seed=900 + k)
        labels = rng.integers(0, 3, size=g.n)
        labeled = np.sort(rng.choice(g.n, size=6, replace=False))
        unlabeled = np.setdiff1d(np.arange(g.n), labeled)
        y_l = one_hot(labels[labeled], 3)
        aux = aux_from_graph(g)
        iterated = _iterative_label_propagation(aux, y_l, labeled, iters)
        closed = label_prop_closed_form(
            dense_csr(aux_transition_matrix(aux)), y_l, labeled, unlabeled
        )
        lp_dev = max(lp_dev, float(np.abs(iterated.y[unlabeled] - closed).max()))

    rank1_gap = 0.0
    row_sum_dev = 0.0
    for k, n in enumerate((20, 50, 100)):
        rng = np.random.default_rng(950 + k)
        g = random_connected_graph(n, extra_p=0.3, seed=950 + k)
        aux = AuxGraph(
            n=n, edges=g.edges, weights=rng.uniform(0.5, 1.5, size=g.num_edges)
        )
        y0_raw = rng.dirichlet(np.ones(4), size=n)
        y0 = SoftLabelMatrix(
            y=y0_raw / y0_raw.sum(axis=1, keepdims=True),
            masked=np.zeros(n, dtype=bool),
        )
        snaps = smooth_labels(aux, y0, 10 * n)
        for snap in snaps:
            row_sum_dev = max(
                row_sum_dev, float(np.abs(snap.y.sum(axis=1) - 1.0).max())
            )
        final = snaps[-1].y
        gap = float(np.abs(final[:, None, :] - final[None, :, :]).sum(axis=2).max())
        rank1_gap = max(rank1_gap, gap)

    checks = (
        VerifyCheck("closed-form-matches-iteration", lp_dev, 1e-8),
        VerifyCheck("smoothing-rank1-gap", rank1_gap, 1e-6),
        VerifyCheck("smoothing-row-stochastic", row_sum_dev, 1e-9),
    )
    return VerifyReport("labelprop", checks)


# One fresh interpreter's dense centred product at the widest dense shape,
# its bytes written to stdout.
_HOST_CHILD = """\
import sys
import numpy as np
from graphain.graph import _DENSE_MAX_N, _DENSE_MAX_WIDTH, apply_operator, normalized_adjacency
from graphain.synthetic import random_connected_graph
op = normalized_adjacency(random_connected_graph(_DENSE_MAX_N, 0.1, seed=0), centered=True)
assert op.dense is not None
m = np.random.default_rng(0).standard_normal((_DENSE_MAX_N, _DENSE_MAX_WIDTH))
sys.stdout.buffer.write(apply_operator(op, m).tobytes())
"""


def host_suite() -> VerifyReport:
    """The dense centred product at ``_DENSE_MAX_N`` x ``_DENSE_MAX_WIDTH``,
    in two fresh interpreters at ``OPENBLAS_NUM_THREADS`` 1 and 2: the
    entries whose bytes differ, of which none may."""
    src = str(Path(__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    one, two = (
        np.frombuffer(subprocess.run(
            [sys.executable, "-c", _HOST_CHILD], stdout=subprocess.PIPE, check=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
        ).stdout, dtype=np.int64)
        for threads in ("1", "2")
    )
    differing = float(np.count_nonzero(one != two))
    return VerifyReport("host", (VerifyCheck("dense-product-thread-bytes", differing, 0.0),))


SUITES = {
    "host": host_suite,
    "theorem1": theorem1_suite,
    "theorem2": theorem2_suite,
    "theorem3": theorem3_suite,
    "oversmooth": oversmooth_suite,
    "labelprop": labelprop_suite,
}
