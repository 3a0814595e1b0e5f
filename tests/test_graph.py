from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphain.errors import (
    DimensionMismatchError,
    FeatureRowMismatchError,
    IndexOutOfRangeError,
    NonFiniteFeatureError,
)
from graphain import graph
from graphain.graph import (
    OPERATOR_MODES,
    apply_operator,
    build_graph,
    csr_matmul,
    dense_pays,
    normalized_adjacency,
)
from graphain.oracles import apply_centering, dense_abar, dense_ahat
from graphain.io import load_dataset, save_dataset
from graphain.synthetic import (
    SyntheticSpec,
    add_feature_noise,
    gen_gaussian_cluster_graph,
    random_connected_graph,
    with_masks,
)
from scipy_csr import scipy_csr


def _canonical_edges_by_rows(edge_list):
    """Reference canonical edges by rows: drop self-loops, order each pair,
    then ``np.unique`` over the (lo, hi) rows."""
    edges = np.asarray(list(edge_list), dtype=np.int64).reshape(-1, 2)
    if not edges.size:
        return edges.reshape(0, 2)
    edges = edges[edges[:, 0] != edges[:, 1]]
    return np.unique(np.column_stack([edges.min(axis=1), edges.max(axis=1)]), axis=0)


FEATURES = [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]]
LABELS = [0, 1, 2, 0]


def _read_only(arr):
    view = arr.view()
    view.setflags(write=False)
    return view


def _input_form(form):
    """(features, labels, their writable bases) in one input form, which
    build_graph reads as FEATURES and LABELS; 2-D labels are read in C order."""
    x, y = np.array(FEATURES), np.array(LABELS)
    if form == "lists":
        return FEATURES, LABELS, []
    if form == "C-ordered":
        return x, y, []
    if form == "F-ordered":
        return np.asfortranarray(x), np.asfortranarray(y.reshape(2, 2)), []
    if form == "strided":
        bx, by = np.repeat(np.repeat(x, 2, axis=0), 3, axis=1), np.repeat(y, 2)
        return bx[::2, ::3], by[::2], [bx, by]
    if form == "read-only views of writable bases":
        return _read_only(x), _read_only(y), [x, y]
    if form == "read-only strided views":
        bx, by = np.repeat(x, 2, axis=1), np.repeat(y, 3)
        return _read_only(bx[:, 1::2]), _read_only(by[2::3]), [bx, by]
    assert form == "float32 features, int32 labels"
    return x.astype(np.float32), y.astype(np.int32), []


INPUT_FORMS = ["lists", "C-ordered", "F-ordered", "strided", "read-only views of writable bases",
               "read-only strided views", "float32 features, int32 labels"]


def _graph_arrays(g):
    return [getattr(g, f.name) for f in fields(g) if isinstance(getattr(g, f.name), np.ndarray)]


def _assert_owns(g, given):
    """Every array of g is read-only and owns its memory, which no array in
    ``given`` or any of their bases shares."""
    kept = _graph_arrays(g)
    assert len(kept) == 6
    assert all(arr.flags.owndata and not arr.flags.writeable for arr in kept)
    for arr in given:
        while isinstance(arr, np.ndarray):
            assert not any(np.shares_memory(arr, own) for own in kept)
            arr = arr.base


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

    def test_zero_width_features_rejected(self):
        # caught here, not as blank lines in a saved features.csv or as a
        # degenerate spectrum at the first layer of a run
        with pytest.raises(FeatureRowMismatchError, match="^features need at least one column$"):
            build_graph([(0, 1)], 3, np.zeros((3, 0)))

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

    def test_graph_owns_its_features_and_labels(self):
        x = np.arange(6, dtype=np.float64).reshape(3, 2)
        y = np.array([0, 1, 0])
        g = build_graph([(0, 1)], 3, x, y=y)
        for given_arr, kept in ((x, g.features), (y, g.labels)):
            assert given_arr.flags.writeable  # the caller's array is not frozen
            assert not kept.flags.writeable
            assert not np.shares_memory(given_arr, kept)
        x[0, 0] = 99.0
        y[0] = 2
        assert g.features[0, 0] == 0.0
        assert g.labels[0] == 0 and g.num_classes == 2
        # a read-only array, such as another Graph's, is copied too
        _assert_owns(build_graph(g.edges, g.n, g.features, y=g.labels), _graph_arrays(g))

    @pytest.mark.parametrize("form", INPUT_FORMS)
    def test_graph_copies_every_input_form(self, form):
        # a read-only view is copied too: its base may be writable, and
        # editing the base would change a shared Graph's labels and class count
        x, y, bases = _input_form(form)
        edges = np.array([[0, 1], [1, 2], [2, 3]])
        masks = [np.array([0]), np.array([1]), np.array([2, 3])]
        g = build_graph(edges, 4, x, y=y, masks=masks)
        assert g.features.tolist() == FEATURES and g.labels.tolist() == LABELS
        given = [x, y, edges, *masks, *bases]
        _assert_owns(g, given)
        for arr in given:
            if isinstance(arr, np.ndarray) and arr.flags.writeable:
                arr[...] = 3
        assert g.features.tolist() == FEATURES and g.labels.tolist() == LABELS
        assert g.num_classes == 3
        assert g.edges.tolist() == [[0, 1], [1, 2], [2, 3]]
        assert [m.tolist() for m in (g.train_mask, g.val_mask, g.test_mask)] == [[0], [1], [2, 3]]

    @pytest.mark.parametrize(
        "producer", ["with_masks", "add_feature_noise", "gen_gaussian_cluster_graph", "load_dataset"]
    )
    def test_every_producer_owns_its_arrays(self, producer, tmp_path):
        # a derived Graph copies its parent's arrays as build_graph copies a caller's
        spec = SyntheticSpec(clusters=3, nodes_per_cluster=10, intra_p=0.5, inter_p=0.05, seed=2)
        parent = with_masks(gen_gaussian_cluster_graph(spec), 0.4, 0.3, seed=3)
        if producer == "with_masks":
            g = with_masks(parent, 0.4, 0.3, seed=4)
        elif producer == "add_feature_noise":
            g = add_feature_noise(parent, seed=5)
        elif producer == "gen_gaussian_cluster_graph":
            g = gen_gaussian_cluster_graph(spec)
        else:
            save_dataset(parent, tmp_path / "data")
            g = load_dataset(tmp_path / "data")
            assert g.features.tobytes() == parent.features.tobytes()
        assert g.labels.tolist() == parent.labels.tolist()
        _assert_owns(g, _graph_arrays(parent))

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
        degrees = np.bincount(g.edges.ravel(), minlength=g.n) + 1.0  # of A + I
        assert degrees.tolist() == [2.0, 2.0]
        assert scipy_csr(op.matrix).toarray() == pytest.approx(1 / np.outer(degrees, degrees) ** 0.5)

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
        # a dense operator (n = 3) and one past the dense cap, on the CSR kernel
        for n in (3, graph._DENSE_MAX_N + 1):
            op = normalized_adjacency(_complete_graph(n))
            with pytest.raises(DimensionMismatchError, match=f"operator is {n} x {n}"):
                apply_operator(op, np.zeros((n + 1, 2)))
            with pytest.raises(DimensionMismatchError):
                apply_operator(op, np.zeros(n))


def _fill_graph(n, fill, seed):
    """About ``fill`` of the node pairs joined, at random."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    pick = rng.random(iu.size) < fill
    return build_graph(np.column_stack([iu[pick], ju[pick]]), n, np.zeros((n, 1))), rng


class TestDenseOperator:
    @settings(max_examples=150)
    @given(
        st.one_of(st.integers(1, 384), st.sampled_from([1, 2, 3, 383, 384])),
        st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]),
        st.integers(1, 12),
        st.sampled_from(OPERATOR_MODES),
        st.sampled_from([1e-300, 1.0, 1e300]),
        st.integers(0, 2**32 - 1),
    )
    def test_dense_product_agrees_with_the_csr_kernel(self, n, fill, d, mode, scale, seed):
        # Each product is within n u (|A| |m|) of the exact one, u = 2^-53,
        # whatever order it adds in; the GEMM may also fuse a multiply and an
        # add, so the two may differ by twice that.  Scales from 1e-300 to
        # 1e300 keep every partial sum finite and normal: entries of A are at
        # least 1/n and rows of |A| sum to at most sqrt(n).
        g, rng = _fill_graph(n, fill, seed)
        op = normalized_adjacency(g, mode)
        assert (op.dense is not None) == dense_pays(n, op.matrix.nnz)
        if op.dense is None:
            return
        m = rng.standard_normal((n, d)) * scale
        got, want = apply_operator(op, m), csr_matmul(op.matrix, m)
        bound = n * 2.0**-52 * csr_matmul(op.matrix, np.abs(m))
        assert (np.abs(got - want) <= bound).all()
        assert np.array_equal(op.dense, scipy_csr(op.matrix).toarray())
        assert not op.dense.flags.writeable

    @pytest.mark.parametrize(
        "spec, dense",
        [
            # the benchmark's workloads: deep, wide and files
            (dict(clusters=3, nodes_per_cluster=100, intra_p=0.3, inter_p=0.02), True),
            (dict(clusters=3, nodes_per_cluster=1000, intra_p=0.01, inter_p=0.0005), False),
            (dict(clusters=3, nodes_per_cluster=500, intra_p=0.05, inter_p=0.005,
                  centers_dim=32), False),
        ],
        ids=["deep", "wide", "files"],
    )
    def test_benchmark_shapes_pick_their_product(self, spec, dense):
        for seed in range(3):
            g = gen_gaussian_cluster_graph(SyntheticSpec(**spec, seed=seed))
            for mode in OPERATOR_MODES:
                assert (normalized_adjacency(g, mode).dense is not None) == dense

    def test_no_graph_above_the_cap_is_dense(self):
        # complete graphs fill every entry, the densest an operator gets
        assert normalized_adjacency(_complete_graph(graph._DENSE_MAX_N)).dense is not None
        for n in (graph._DENSE_MAX_N + 1, 2 * graph._DENSE_MAX_N):
            assert normalized_adjacency(_complete_graph(n)).dense is None
            assert not dense_pays(n, n * n)
        # below the cap, one entry in 16 is the least fill that goes dense
        n = graph._DENSE_MAX_N
        assert dense_pays(n, n * n // graph._DENSE_FILL)
        assert not dense_pays(n, n * n // graph._DENSE_FILL - 1)

    def test_wide_products_take_the_csr_kernel(self, rng):
        # past _DENSE_MAX_WIDTH columns apply_operator gives the CSR bits
        op = normalized_adjacency(_complete_graph(8))
        assert op.dense is not None
        for d in (graph._DENSE_MAX_WIDTH, graph._DENSE_MAX_WIDTH + 1):
            m = rng.standard_normal((8, d))
            want = csr_matmul(op.matrix, m) if d > graph._DENSE_MAX_WIDTH else op.dense @ m
            assert apply_operator(op, m).tobytes() == want.tobytes()


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


# n on both sides of _DENSE_MAX_N = 384 and of 1024 rows
CENTRED_ROWS = st.one_of(
    st.integers(2, 1100), st.sampled_from([383, 384, 385, 1023, 1024, 1025])
)


class TestCentredOperator:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        CENTRED_ROWS,
        st.sampled_from([1, 2, 8, 65]),
        st.sampled_from(OPERATOR_MODES),
        st.booleans(),
    )
    def test_product_is_the_centred_plain_product(self, seed, n, d, mode, well_filled):
        # The centred operator's product (the dense GEMM on Â - 1 c^T / n, or
        # the CSR kernel started at -c^T h / n; past 64 columns a dense
        # operator takes the CSR kernel too) against apply_centering of the
        # plain product.  Both are T Â h to within (n + 2) u per term, u =
        # 2^-53, counting the rounding of c, of the shift and of the mean;
        # with a factor 4 for the GEMM's fused multiply-adds and for the two
        # sides, entry (i, k) may differ by
        #   4 (n + 2) u ((|Â| |h|)_ik + (c / n)^T |h|_k + mean_i (|Â| |h|)_ik),
        # and a column sums to at most the sum of its bounds plus n u |col|_1.
        g, rng = _fill_graph(n, 0.25 if well_filled else min(1.0, 4.0 / n), seed)
        h = rng.standard_normal((n, d)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
        plain = normalized_adjacency(g, mode)
        op = normalized_adjacency(g, mode, centered=True)
        assert (op.dense is None) == (plain.dense is None) == (not dense_pays(n, op.matrix.nnz))
        got = apply_operator(op, h)
        want = apply_centering(apply_operator(plain, h))
        u = 2.0**-53
        spread = csr_matmul(op.matrix, np.abs(h))
        bound = 4 * (n + 2) * u * (spread + (-op.shift) @ np.abs(h) + spread.mean(axis=0))
        assert (np.abs(got - want) <= bound).all()
        sums = np.abs(got.sum(axis=0))
        assert (sums <= bound.sum(axis=0) + n * u * np.abs(got).sum(axis=0)).all()
        out = np.full((n, d), np.nan)
        assert apply_operator(op, h, out) is out
        assert out.tobytes() == got.tobytes()

    @pytest.mark.parametrize("mode", OPERATOR_MODES)
    @pytest.mark.parametrize("n", [8, graph._DENSE_MAX_N, graph._DENSE_MAX_N + 1])
    def test_an_operator_holds_one_n_by_n_array(self, n, mode):
        # the centred dense form replaces the plain one; it is not kept beside it
        g = _complete_graph(n)
        for centered in (False, True):
            op = normalized_adjacency(g, mode, centered)
            arrays = [getattr(op, f.name) for f in fields(op)]
            arrays += [getattr(op.matrix, f.name) for f in fields(op.matrix)]
            square = [a for a in arrays if isinstance(a, np.ndarray) and a.ndim == 2]
            assert [a.shape for a in square] == ([(n, n)] if n <= graph._DENSE_MAX_N else [])
            assert (op.shift is not None) == centered
            if square and centered:
                assert np.abs(square[0].sum(axis=0)).max() <= 4 * n * 2.0**-52
