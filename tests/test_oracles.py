import numpy as np
import pytest

from graphain.curriculum import aux_from_graph, aux_transition_matrix
from graphain.errors import (
    DegenerateGapError,
    InvalidCoefficientsError,
    NotErgodicError,
    SingularSystemError,
    TooLargeError,
)
from graphain.graph import apply_centering, build_graph, normalized_adjacency
from graphain.labels import one_hot
from graphain.linalg import orthonormal_projection, principal_subspace_distance
from graphain.oracles import (
    dense_abar,
    dense_ahat,
    dense_spectrum,
    knn_edges_dense,
    label_prop_closed_form,
    oversmoothing_limit_check,
    pga_oracle_hard,
    pga_oracle_residual,
    top_d_eigvectors,
)
from graphain.propagation import graphain_step
from graphain.synthetic import random_connected_graph
from graphain.verify import planted_partition_graph


class TestDenseAbar:
    def test_two_clique_annihilated(self):
        g = build_graph([(0, 1)], 2, np.zeros((2, 1)))
        assert np.abs(dense_abar(g)).max() < 1e-15

    def test_single_node(self):
        g = build_graph([], 1, np.zeros((1, 1)))
        assert np.abs(dense_abar(g)).max() < 1e-15

    def test_kills_constants_both_sides(self):
        g = random_connected_graph(10, 0.3, seed=2)
        abar = dense_abar(g)
        ones = np.ones(10)
        assert np.abs(abar @ ones).max() <= 1e-12
        assert np.abs(ones @ abar).max() <= 1e-12
        assert np.abs(abar - abar.T).max() <= 1e-12

    def test_spectrum_bounds_and_dominant_eigvector(self):
        g = random_connected_graph(15, 0.25, seed=5)
        spec = dense_spectrum(dense_ahat(g), source="A_hat")
        assert spec.values[0] == pytest.approx(1.0, abs=1e-10)
        assert spec.values.min() >= -1.0 - 1e-10
        op = normalized_adjacency(g)
        v = np.sqrt(op.degrees)
        v = v / np.linalg.norm(v)
        # dominant eigenvector is proportional to sqrt(degrees)
        assert abs(abs(v @ spec.u[:, 0]) - 1.0) <= 1e-10

    def test_size_cap(self):
        g = build_graph([], 2001, np.zeros((2001, 1)))
        with pytest.raises(TooLargeError):
            dense_abar(g)


class TestTopEigvectors:
    def test_diagonal(self):
        u = top_d_eigvectors(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.abs(u - np.eye(3)[:, :2]).max() <= 1e-12

    def test_identity_degenerate(self):
        with pytest.raises(DegenerateGapError):
            top_d_eigvectors(np.eye(4), 2)

    def test_block_partition_sign_pattern(self):
        g = planted_partition_graph(seed=7)
        u = top_d_eigvectors(dense_abar(g), 1)[:, 0]
        signs = np.sign(u)
        block0 = signs[:30]
        block1 = signs[30:]
        agree0 = max((block0 > 0).mean(), (block0 < 0).mean())
        agree1 = max((block1 > 0).mean(), (block1 < 0).mean())
        assert agree0 >= 0.95 and agree1 >= 0.95

    def test_deterministic_sign_convention(self):
        m = np.diag([5.0, 4.0, 3.0])
        u1 = top_d_eigvectors(m, 3)
        u2 = top_d_eigvectors(m, 3)
        assert np.array_equal(u1, u2)
        assert (u1[np.abs(u1).argmax(axis=0), np.arange(3)] > 0).all()


class TestPgaHard:
    def test_zero_steps_is_projection(self, rng):
        g = random_connected_graph(12, 0.3, seed=1)
        x = rng.standard_normal((12, 3))
        assert np.array_equal(pga_oracle_hard(x, g, 0), orthonormal_projection(x))

    def test_matches_production_steps(self):
        g = random_connected_graph(13, 0.3, seed=4)
        x0 = orthonormal_projection(
            apply_centering(np.random.default_rng(8).standard_normal((13, 2)))
        )
        op = normalized_adjacency(g)
        h = x0
        for k in range(1, 8):
            h = graphain_step(h, op)
            assert np.abs(h - pga_oracle_hard(x0, g, k)).max() <= 1e-8

    def test_converges_to_top_subspace(self):
        g = planted_partition_graph(seed=7)
        x0 = orthonormal_projection(
            apply_centering(np.random.default_rng(2).standard_normal((60, 1)))
        )
        out = pga_oracle_hard(x0, g, 400)
        target = top_d_eigvectors(dense_abar(g), 1)
        assert principal_subspace_distance(out, target) <= 1e-6


class TestPgaResidual:
    def test_reduces_to_hard(self, rng):
        g = random_connected_graph(11, 0.3, seed=6)
        x = apply_centering(rng.standard_normal((11, 2)))
        a = pga_oracle_residual(x, g, 1.0, 0.0, 0.0, steps=4)
        b = pga_oracle_hard(x, g, 4)
        assert np.abs(a - b).max() <= 1e-10

    def test_invalid_coefficients(self, rng):
        g = random_connected_graph(8, 0.3, seed=6)
        x = rng.standard_normal((8, 2))
        with pytest.raises(InvalidCoefficientsError):
            pga_oracle_residual(x, g, 0.0, 0.5, 0.5, steps=1)
        with pytest.raises(InvalidCoefficientsError):
            pga_oracle_residual(x, g, 0.5, 0.4, 0.2, steps=1)

    def test_feature_anchoring_dominates(self, rng):
        # heavy anchor weight keeps the iterate near the projected features
        g = random_connected_graph(25, 0.3, seed=9)
        x = apply_centering(rng.standard_normal((25, 3)))
        start = orthonormal_projection(x)
        total = 0.05 + 0.05 + 100.0
        out = pga_oracle_residual(
            x, g, 0.05 / total, 0.05 / total, 100.0 / total, steps=200
        )
        assert principal_subspace_distance(out, start) < 0.1


class TestOversmoothingLimit:
    def test_triangle_two_steps(self):
        iu, ju = np.triu_indices(3, k=1)
        x = np.random.default_rng(0).standard_normal((3, 2))
        g = build_graph(np.column_stack([iu, ju]), 3, x)
        cos = oversmoothing_limit_check(g, x, 2)
        assert (1.0 - cos).max() <= 1e-12

    def test_disconnected_rejected(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        g = build_graph(edges, 6, np.zeros((6, 1)))
        with pytest.raises(NotErgodicError):
            oversmoothing_limit_check(g, np.ones((6, 1)), 10)

    def test_irregular_20_node_graph_aligns_deeply(self):
        # degree-vector alignment holds for irregular graphs too; only the
        # pairwise collapse needs regularity
        g = random_connected_graph(20, 0.2, seed=17, feature_dim=3)
        cos = oversmoothing_limit_check(g, g.features, 10_000)
        assert cos.min() >= 1.0 - 1e-6


class TestLabelPropClosedForm:
    def test_single_absorbing_label(self):
        g = build_graph([(0, 1)], 2, np.zeros((2, 1)))
        p = aux_transition_matrix(aux_from_graph(g)).toarray()
        y_u = label_prop_closed_form(p, one_hot([0], 2), [0], [1])
        assert y_u == pytest.approx(np.array([[1.0, 0.0]]))

    def test_two_equal_neighbors_average(self):
        g = build_graph([(0, 2), (1, 2)], 3, np.zeros((3, 1)))
        p = aux_transition_matrix(aux_from_graph(g)).toarray()
        y_u = label_prop_closed_form(p, one_hot([0, 1], 2), [0, 1], [2])
        assert y_u == pytest.approx(np.array([[0.5, 0.5]]))

    def test_unreachable_component(self):
        edges = [(0, 1), (2, 3)]
        g = build_graph(edges, 4, np.zeros((4, 1)))
        p = aux_transition_matrix(aux_from_graph(g)).toarray()
        with pytest.raises(SingularSystemError):
            label_prop_closed_form(p, one_hot([0], 2), [0], [1, 2, 3])

    def test_rows_stay_distributions(self):
        g = random_connected_graph(20, 0.25, seed=3)
        p = aux_transition_matrix(aux_from_graph(g)).toarray()
        labeled = np.array([0, 5, 9])
        unlabeled = np.setdiff1d(np.arange(20), labeled)
        y_l = one_hot([0, 1, 2], 3)
        y_u = label_prop_closed_form(p, y_l, labeled, unlabeled)
        assert np.abs(y_u.sum(axis=1) - 1.0).max() <= 1e-10
        assert y_u.min() >= -1e-12

    def test_adding_label_never_creates_singularity(self):
        # monotonicity: once solvable, extra labels keep it solvable
        g = random_connected_graph(15, 0.2, seed=11)
        p = aux_transition_matrix(aux_from_graph(g)).toarray()
        labeled = [3]
        for extra in (7, 11, 1):
            labeled = sorted(labeled + [extra])
            unlabeled = np.setdiff1d(np.arange(15), labeled)
            y_l = one_hot([i % 2 for i in range(len(labeled))], 2)
            y_u = label_prop_closed_form(p, y_l, labeled, unlabeled)
            assert np.isfinite(y_u).all()


class TestKnnEdgesDense:
    def test_ties_go_to_the_lower_index(self):
        # Nodes 1, 2 and 3 are all at squared distance 1 from node 0, which
        # keeps node 1; node 2 keeps node 0 over the farther nodes 1 and 3.
        vecs = np.array([[0.0], [1.0], [-1.0], [1.0]])
        edges, weights = knn_edges_dense(vecs, 1, 1.0)
        assert edges.tolist() == [[0, 1], [0, 2], [1, 3]]
        assert weights.tolist() == [0.0, 0.0, 1.0]

    def test_size_cap(self):
        with pytest.raises(TooLargeError):
            knn_edges_dense(np.zeros((2001, 1)), 1, 1.0)
