import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphain.errors import (
    DimensionMismatchError,
    FeatureRowMismatchError,
    IndexOutOfRangeError,
    NonFiniteFeatureError,
)
from graphain.graph import (
    apply_centering,
    apply_operator,
    build_graph,
    normalized_adjacency,
)
from graphain.oracles import dense_abar, dense_ahat
from graphain.synthetic import random_connected_graph
from scipy_csr import scipy_csr


def _canonical_edges_by_rows(edge_list):
    """Reference canonical edges by rows: drop self-loops, order each pair,
    then ``np.unique`` over the (lo, hi) rows."""
    edges = np.asarray(list(edge_list), dtype=np.int64).reshape(-1, 2)
    if not edges.size:
        return edges.reshape(0, 2)
    edges = edges[edges[:, 0] != edges[:, 1]]
    return np.unique(np.column_stack([edges.min(axis=1), edges.max(axis=1)]), axis=0)


def _complete_graph(n, feature_dim=1):
    iu, ju = np.triu_indices(n, k=1)
    return build_graph(np.column_stack([iu, ju]), n, np.zeros((n, feature_dim)))


class TestBuildGraph:
    def test_symmetric_duplicate_dedup(self):
        g = build_graph([(0, 1), (1, 0)], 2, np.zeros((2, 1)))
        assert g.num_edges == 1
        assert g.edges.tolist() == [[0, 1]]

    def test_empty_graph(self):
        g = build_graph([], 3, np.zeros((3, 2)))
        assert g.num_edges == 0
        assert g.n == 3

    def test_out_of_range_edge(self):
        with pytest.raises(IndexOutOfRangeError):
            build_graph([(0, 5)], 3, np.zeros((3, 1)))

    def test_feature_row_mismatch(self):
        with pytest.raises(FeatureRowMismatchError):
            build_graph([], 3, np.zeros((2, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        x = np.zeros((3, 2))
        x[2, 0] = bad
        x[1, 1] = bad
        with pytest.raises(NonFiniteFeatureError, match=r"features\[1, 1\]"):
            build_graph([(0, 1)], 3, x)

    def test_self_loops_dropped(self):
        g = build_graph([(0, 0), (0, 1)], 2, np.zeros((2, 1)))
        assert g.num_edges == 1

    def test_masks_must_be_disjoint(self):
        with pytest.raises(IndexOutOfRangeError):
            build_graph([], 3, np.zeros((3, 1)), masks=([0], [0], [2]))

    @given(st.integers(1, 60), st.integers(0, 2**32 - 1))
    def test_sorted_masks_give_the_bytes_of_a_messy_copy(self, n, seed):
        # Sorted unique masks skip the np.unique pass; the output must not show it.
        rng = np.random.default_rng(seed)
        split = rng.integers(0, 4, n)  # 3 = in no mask
        masks = [np.flatnonzero(split == k) for k in range(3)]
        g = build_graph([], n, np.zeros((n, 1)), masks=masks)
        for got, mask in zip((g.train_mask, g.val_mask, g.test_mask), masks):
            assert got.dtype == np.int64 and not got.flags.writeable
            assert mask.flags.writeable  # the caller's array is not frozen
            assert got.tobytes() == mask.tobytes()
        messy = [
            np.concatenate([m, m[: m.size // 2]])[rng.permutation(m.size + m.size // 2)]
            for m in masks
        ]
        for copy in (messy, [m.tolist() for m in messy]):
            again = build_graph([], n, np.zeros((n, 1)), masks=copy)
            assert again.train_mask.tobytes() == g.train_mask.tobytes()
            assert again.val_mask.tobytes() == g.val_mask.tobytes()
            assert again.test_mask.tobytes() == g.test_mask.tobytes()

    @given(
        st.integers(2, 60), st.integers(0, 2**32 - 1), st.sampled_from([(0, 1), (0, 2), (1, 2)])
    )
    def test_overlapping_masks_raise_shuffled_or_duplicated(self, n, seed, pair):
        rng = np.random.default_rng(seed)
        split = rng.integers(0, 3, n)
        masks = [np.flatnonzero(split == k) for k in range(3)]
        shared = int(rng.integers(0, n))
        for k in pair:
            masks[k] = np.append(masks[k], [shared, shared])[::-1]
        with pytest.raises(IndexOutOfRangeError, match="^train/val/test masks must be disjoint$"):
            build_graph([], n, np.zeros((n, 1)), masks=masks)

    def test_label_past_node_count_rejected(self):
        # n nodes hold at most n classes; a larger id would only add empty ones
        with pytest.raises(IndexOutOfRangeError, match="^label 3 is not below the node count 3$"):
            build_graph([], 3, np.zeros((3, 1)), y=[0, 3, -1])

    def test_num_classes(self):
        g = build_graph([], 3, np.zeros((3, 1)), y=[2, -1, 0])
        assert g.num_classes == 3

    @pytest.mark.parametrize(
        "edge_list, n",
        [
            ([], 1),
            ([(0, 0)], 1),
            ([], 4),
            ([(2, 2), (1, 1)], 3),
            ([(3, 1), (1, 3), (0, 2), (2, 0), (3, 1), (1, 1), (0, 3)], 4),
            (np.array([[4, 0], [0, 4], [2, 3], [3, 2], [2, 3], [1, 4], [0, 1]]), 5),
            (np.zeros((0, 2), dtype=np.int64), 2),
        ],
        ids=["n1-empty", "n1-self-loop", "empty", "only-self-loops", "list", "array",
             "empty-array"],
    )
    def test_edges_match_row_unique(self, edge_list, n):
        g = build_graph(edge_list, n, np.zeros((n, 1)))
        assert g.edges.dtype == np.int64
        assert np.array_equal(g.edges, _canonical_edges_by_rows(edge_list))

    @given(st.integers(1, 40), st.integers(0, 200), st.integers(0, 2**32 - 1))
    def test_shuffled_duplicated_reversed_edges_match_row_unique(self, n, m, seed):
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, n, size=(m, 2))
        edges = np.concatenate([edges, edges[:, ::-1], edges[: m // 3]])
        edges = edges[rng.permutation(edges.shape[0])]
        g = build_graph(edges, n, np.zeros((n, 1)))
        assert np.array_equal(g.edges, _canonical_edges_by_rows(edges))
        assert np.array_equal(
            build_graph(edges.tolist(), n, np.zeros((n, 1))).edges, g.edges
        )

    @given(st.integers(1, 40), st.integers(0, 200), st.integers(0, 2**32 - 1))
    def test_canonical_edges_give_the_bytes_of_a_messy_copy(self, n, m, seed):
        # Canonical input skips the np.unique pass; the output must not show it.
        rng = np.random.default_rng(seed)
        canonical = _canonical_edges_by_rows(rng.integers(0, n, size=(m, 2)))
        fast = build_graph(canonical, n, np.zeros((n, 1))).edges
        assert fast.dtype == np.int64 and fast.flags.c_contiguous
        assert canonical.flags.writeable  # the caller's array is not frozen
        for messy in (
            np.concatenate([canonical, canonical[: m // 3]]),  # every row i < j
            np.concatenate([canonical, canonical[:, ::-1], [[0, 0]]]),
        ):
            messy = messy[rng.permutation(messy.shape[0])]
            assert fast.tobytes() == build_graph(messy, n, np.zeros((n, 1))).edges.tobytes()


class TestNormalizedAdjacency:
    def test_single_node_identity(self):
        g = build_graph([], 1, np.zeros((1, 1)))
        op = normalized_adjacency(g)
        assert np.abs(scipy_csr(op.matrix).toarray() - np.array([[1.0]])).max() == 0.0

    def test_two_clique_entries(self):
        g = _complete_graph(2)
        op = normalized_adjacency(g)
        assert scipy_csr(op.matrix).toarray() == pytest.approx(np.full((2, 2), 0.5))
        assert op.degrees.tolist() == [2.0, 2.0]

    def test_triangle_entries_and_row_sums(self):
        g = _complete_graph(3)
        sym = normalized_adjacency(g, "symmetric")
        assert scipy_csr(sym.matrix).toarray() == pytest.approx(np.full((3, 3), 1 / 3))
        rw = normalized_adjacency(g, "random_walk")
        row_sums = scipy_csr(rw.matrix).toarray().sum(axis=1)
        assert np.abs(row_sums - 1.0).max() <= 1e-12

    def test_entry_count_and_positivity(self):
        g = random_connected_graph(17, 0.2, seed=3)
        op = normalized_adjacency(g)
        assert op.matrix.nnz == 2 * g.num_edges + g.n
        assert op.matrix.data.min() > 0.0

    def test_symmetric_mode_is_self_adjoint(self, rng):
        g = random_connected_graph(23, 0.2, seed=9)
        op = normalized_adjacency(g)
        u = rng.standard_normal(g.n)
        v = rng.standard_normal(g.n)
        lhs = float((scipy_csr(op.matrix) @ u) @ v)
        rhs = float(u @ (scipy_csr(op.matrix) @ v))
        assert abs(lhs - rhs) <= 1e-10

    def test_row_stochastic_random_walk(self):
        g = random_connected_graph(23, 0.2, seed=9)
        rw = normalized_adjacency(g, "random_walk")
        ones = np.ones(g.n)
        assert np.abs(scipy_csr(rw.matrix) @ ones - ones).max() <= 1e-12


class TestApplyOperator:
    def test_identity_case(self):
        g = build_graph([], 1, np.zeros((1, 1)))
        op = normalized_adjacency(g)
        out = apply_operator(op, np.array([[3.0]]))
        assert np.abs(out - np.array([[3.0]])).max() == 0.0

    def test_triangle_uniform_rows(self):
        op = normalized_adjacency(_complete_graph(3))
        e1 = np.array([[1.0], [0.0], [0.0]])
        assert apply_operator(op, e1) == pytest.approx(np.full((3, 1), 1 / 3))

    def test_matches_dense_oracle_on_path(self, rng):
        g = build_graph([(0, 1), (1, 2), (2, 3)], 4, np.zeros((4, 1)))
        op = normalized_adjacency(g)
        m = rng.standard_normal((4, 5))
        dense = dense_ahat(g)
        assert np.abs(apply_operator(op, m) - dense @ m).max() <= 1e-12

    def test_dimension_mismatch(self):
        op = normalized_adjacency(_complete_graph(3))
        with pytest.raises(DimensionMismatchError):
            apply_operator(op, np.zeros((4, 2)))


class TestCentering:
    def test_constant_rows_become_zero(self):
        m = np.tile([2.0, -1.0], (5, 1))
        assert np.abs(apply_centering(m)).max() == 0.0

    def test_single_column(self):
        out = apply_centering(np.array([[1.0], [3.0]]))
        assert out == pytest.approx(np.array([[-1.0], [1.0]]))

    @given(st.integers(2, 12), st.integers(1, 5), st.integers(0, 10_000))
    def test_idempotent(self, n, d, seed):
        m = np.random.default_rng(seed).standard_normal((n, d))
        once = apply_centering(m)
        assert np.abs(apply_centering(once) - once).max() <= 1e-12 * max(
            1.0, np.abs(m).max()
        )

    @given(st.integers(2, 12), st.integers(1, 5), st.integers(0, 10_000))
    def test_column_sums_vanish(self, n, d, seed):
        m = np.random.default_rng(seed).standard_normal((n, d))
        out = apply_centering(m)
        assert np.abs(out.sum(axis=0)).max() <= 1e-12 * n * max(1.0, np.abs(m).max())


class TestDoublyCentered:
    def test_matches_dense_abar(self, rng):
        # the runner's centered aggregate is the doubly centered operator
        # on a column-centered layer
        g = random_connected_graph(11, 0.3, seed=21)
        op = normalized_adjacency(g)
        m = apply_centering(rng.standard_normal((g.n, 3)))
        runner = apply_centering(apply_operator(op, m))
        assert np.abs(runner - dense_abar(g) @ m).max() <= 1e-12
