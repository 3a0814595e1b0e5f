import numpy as np
import pytest

from diagnostics_csv import records_from_csv
from graphain.diagnostics import (
    DiagnosticsRecord,
    LayerRecorder,
    pairwise_stats,
    records_to_csv,
)
from graphain.graph import (
    apply_centering,
    apply_operator,
    build_graph,
    normalized_adjacency,
)
from graphain.errors import DegenerateGapError
from graphain.linalg import (
    SpectralFilterParams,
    orthonormal_projection,
    principal_subspace_distance,
)
from graphain.oracles import dense_abar, top_d_eigvectors
from graphain.propagation import PropagationConfig, run_fuzzy_r_softgraphain
from graphain.synthetic import random_connected_graph, with_masks
from graphain.verify import hard_whiten


def spectral_alignment(h, g, d):
    """Subspace distance between h and the top-d eigenvectors of the doubly
    centered aggregator."""
    return principal_subspace_distance(h, top_d_eigvectors(dense_abar(g), d))


def _sweep(g, cfg, variant="rsoft"):
    recorder = LayerRecorder(g)
    run_fuzzy_r_softgraphain(g, cfg, variant=variant, observe=recorder)
    return recorder.records


def _brute_force_pairwise(h):
    n = h.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            diff = h[i] - h[j]
            total += float(diff @ diff)
    return total


class TestPairwiseStats:
    def test_identical_rows(self):
        total, mean = pairwise_stats(np.tile([1.0, 2.0], (6, 1)))
        assert total == pytest.approx(0.0, abs=1e-12)
        assert mean == pytest.approx(0.0, abs=1e-12)

    def test_two_scalar_rows(self):
        total, mean = pairwise_stats(np.array([[0.0], [2.0]]))
        assert total == pytest.approx(8.0)
        assert mean == pytest.approx(4.0)

    def test_identity_matches_brute_force(self):
        for seed in range(20):
            h = np.random.default_rng(seed).standard_normal((10, 3))
            total, _ = pairwise_stats(h)
            brute = _brute_force_pairwise(h)
            assert abs(total - brute) <= 1e-9 * max(brute, 1.0)

    def test_whitened_output_hits_2nd(self):
        g = random_connected_graph(15, 0.3, seed=2, feature_dim=3)
        op = normalized_adjacency(g)
        h = hard_whiten(apply_centering(apply_operator(op, g.features)))
        total, mean = pairwise_stats(h)
        assert abs(total - 2 * 15 * 3) / (2 * 15 * 3) <= 1e-6
        assert mean == pytest.approx(2 * 3, rel=1e-6)


class TestSpectralAlignment:
    def test_eigvectors_have_zero_distance(self):
        g = random_connected_graph(20, 0.3, seed=5)
        u = top_d_eigvectors(dense_abar(g), 2)
        assert spectral_alignment(u, g, 2) <= 1e-9

    def test_decreasing_along_whitening_trajectory(self):
        g = random_connected_graph(50, 0.25, seed=8)
        rng = np.random.default_rng(0)
        h = orthonormal_projection(apply_centering(rng.standard_normal((50, 1))))
        op = normalized_adjacency(g)
        first = spectral_alignment(h, g, 1)
        assert 0.0 < first <= 1.0
        for _ in range(40):
            h = hard_whiten(apply_centering(apply_operator(op, h)))
        assert spectral_alignment(h, g, 1) < first

    def test_full_space_is_zero(self):
        g = random_connected_graph(8, 0.4, seed=3)
        q = orthonormal_projection(np.random.default_rng(1).standard_normal((8, 8)))
        assert spectral_alignment(q, g, 8) <= 1e-9


class TestLayerSweep:
    def _graph(self):
        g = random_connected_graph(16, 0.3, seed=6, feature_dim=3)
        labels = (np.arange(16) % 2).astype(np.int64)
        g = build_graph(g.edges, g.n, g.features, y=labels)
        return with_masks(g, 0.3, 0.2, seed=0)

    def test_single_layer_single_record(self):
        cfg = PropagationConfig(
            alpha=1.0, beta=0.0, gamma=0.0,
            filter=SpectralFilterParams(a=0.5, b=1.0, d0=3), layers=1,
        )
        records = _sweep(self._graph(), cfg)
        assert len(records) == 1
        assert records[0].layer == 1

    def test_sgc_pairwise_decays(self):
        cfg = PropagationConfig(
            alpha=1.0, beta=0.0, gamma=0.0,
            filter=SpectralFilterParams(a=0.0, b=0.0, d0=3), layers=60,
        )
        records = _sweep(self._graph(), cfg, variant="sgc")
        first = records[0].mean_pairwise_sq_dist
        last = records[-1].mean_pairwise_sq_dist
        assert last < 0.05 * first

    def test_hard_run_keeps_constant_diversity(self):
        g = self._graph()
        cfg = PropagationConfig(
            alpha=1.0, beta=0.0, gamma=0.0,
            filter=SpectralFilterParams(a=1.0, b=1.0, d0=3), layers=12,
        )
        records = _sweep(g, cfg)
        for r in records:
            assert r.mean_pairwise_sq_dist == pytest.approx(2 * 3, rel=1e-6)
            assert r.subspace_dist is not None

    def test_pairnorm_variant_norm_is_constant(self):
        g = self._graph()
        cfg = PropagationConfig(
            alpha=1.0, beta=0.0, gamma=0.0,
            filter=SpectralFilterParams(a=0.0, b=0.0, d0=3), layers=5,
        )
        records = _sweep(g, cfg, variant="pairnorm")
        for r in records:
            assert r.frob_sq == pytest.approx(g.n, rel=1e-9)


class TestRecordCsv:
    def test_round_trip(self, tmp_path):
        records = [
            DiagnosticsRecord(1, 1.5, 2.25, 1e-9, 3e-12, 0.125),
            DiagnosticsRecord(2, 0.5, 4.0, 2e-8, 1e-11, None),
        ]
        path = tmp_path / "diag.csv"
        records_to_csv(records, path)
        assert records_from_csv(path) == records


class TestReferenceOnDemand:
    """The dense reference spectrum is built at the first orthonormal layer,
    at most once per recorder."""

    def _hard(self, layers, d0):
        return PropagationConfig(
            alpha=1.0, beta=0.0, gamma=0.0,
            filter=SpectralFilterParams(a=1.0, b=1.0, d0=d0), layers=layers,
        )

    def test_built_once_for_a_hard_sweep(self, reference_builds):
        g = random_connected_graph(16, 0.3, seed=6, feature_dim=3)
        records = _sweep(g, self._hard(12, 3))
        assert reference_builds == [3]
        assert all(r.subspace_dist is not None for r in records)

    def test_not_built_without_an_orthonormal_layer(self, reference_builds):
        g = random_connected_graph(16, 0.3, seed=6, feature_dim=3)
        cfg = PropagationConfig(
            alpha=1.0, beta=0.0, gamma=0.0,
            filter=SpectralFilterParams(a=0.0, b=0.0, d0=3), layers=12,
        )
        records = _sweep(g, cfg, variant="sgc")
        assert reference_builds == []
        assert all(r.subspace_dist is None for r in records)

    def test_degenerate_gap_tried_once(self, reference_builds):
        # On a cycle the top eigenvalue of the doubly centred aggregator is
        # double, so the d = 1 reference is ill-defined.
        n = 12
        edges = [(i, (i + 1) % n) for i in range(n)]
        x = np.random.default_rng(3).standard_normal((n, 1))
        g = build_graph(edges, n, x)
        with pytest.raises(DegenerateGapError):
            top_d_eigvectors(dense_abar(g), 1)
        records = _sweep(g, self._hard(10, 1))
        assert reference_builds == [1]
        assert len(records) == 10
        assert all(r.column_gram_dev <= 1e-6 for r in records)
        assert all(r.subspace_dist is None for r in records)
