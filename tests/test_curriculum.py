import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphain import curriculum
from graphain.classifier import TrainConfig, accuracy, loss_and_grad, train_linear
from graphain.curriculum import (
    AuxGraph,
    aux_from_graph,
    aux_transition_matrix,
    build_knn_aux_graph,
    entropy_filter,
    estimate_labels_teacher,
    run_curriculum,
    smooth_labels,
    split_scores,
)
from graphain.config import build_experiment_config
from graphain.errors import EmptyIncludeError, NonFiniteFeatureError, RowNotStochasticError
from graphain.experiment import _arm_rows
from graphain.labels import SoftLabelMatrix, one_hot, one_hot_matrix
from graphain.linalg import SpectralFilterParams
from graphain.oracles import knn_edges_dense
from graphain.propagation import PropagationConfig, run_fuzzy_r_softgraphain
from graphain.synthetic import random_connected_graph, with_masks
from head_predict import predict
from scipy_csr import scipy_csr


ROOT = Path(__file__).resolve().parents[1]

# The kNN graph of a wide-shaped propagated embedding, as sha256 digests of
# the embedding and of the edges and weights.
_WIDE_KNN_DIGEST = """
import hashlib
from graphain.classifier import make_reducer
from graphain.config import build_experiment_config
from graphain.curriculum import build_knn_aux_graph
from graphain.propagation import run_fuzzy_r_softgraphain
from graphain.synthetic import SyntheticSpec, gen_gaussian_cluster_graph

spec = SyntheticSpec(clusters=3, nodes_per_cluster=1000, intra_p=0.01, inter_p=0.0005, seed=0)
g = gen_gaussian_cluster_graph(spec)
cfg = build_experiment_config({"propagation.layers": "64"}, source="threads")
h = run_fuzzy_r_softgraphain(g, cfg.propagation, reducer=make_reducer(g.feature_dim, cfg.embedding_dim, 0))
aux = build_knn_aux_graph(h, 7, 1.0)
print(hashlib.sha256(h.tobytes()).hexdigest())
print(hashlib.sha256(aux.edges.tobytes() + aux.weights.tobytes()).hexdigest())
"""


def _soft(y, masked=None):
    y = np.asarray(y, dtype=float)
    if masked is None:
        masked = np.zeros(y.shape[0], dtype=bool)
    return SoftLabelMatrix(y=y, masked=np.asarray(masked, dtype=bool))


class TestEstimateLabels:
    def test_all_labeled_ignores_teacher(self, rng):
        probs = rng.dirichlet(np.ones(3), size=4)
        out = estimate_labels_teacher(probs, [2, 0, 1, 2], [0, 1, 2, 3])
        assert np.array_equal(out.y, one_hot([2, 0, 1, 2], 3))

    def test_none_labeled_passthrough(self, rng):
        probs = rng.dirichlet(np.ones(3), size=5)
        out = estimate_labels_teacher(probs, [], [])
        assert np.abs(out.y - probs).max() <= 1e-12

    def test_clamp_overrides_disagreeing_teacher(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8]])
        out = estimate_labels_teacher(probs, [1], [0])
        assert out.y[0].tolist() == [0.0, 1.0]
        assert out.y[1] == pytest.approx([0.2, 0.8])

    def test_rejects_non_stochastic(self):
        with pytest.raises(RowNotStochasticError):
            estimate_labels_teacher(np.array([[0.5, 0.2]]), [], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_teacher_rows(self, bad):
        probs = np.array([[0.5, 0.5], [0.3, 0.7], [bad, 0.5], [bad, bad]])
        with pytest.raises(RowNotStochasticError, match=r"teacher row 2 "):
            estimate_labels_teacher(probs, [0], [0])


class TestSoftLabelMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match=r"y\[0, 1\]"):
            SoftLabelMatrix(y=[[0.5, bad], [0.2, 0.8]], masked=[False, False])


class TestKnnAuxGraph:
    @pytest.mark.parametrize("gamma_prime", [math.nan, math.inf])
    def test_non_finite_gamma_prime_rejected(self, rng, gamma_prime):
        message = f"^gamma_prime must be finite, got {gamma_prime}$"
        with pytest.raises(ValueError, match=message):
            build_knn_aux_graph(rng.standard_normal((5, 3)), 2, gamma_prime)

    def test_k_at_least_n_minus_one_gives_complete(self, rng):
        vecs = rng.standard_normal((5, 3))
        aux = build_knn_aux_graph(vecs, 4, 1.0)
        assert aux.edges.shape[0] == 10

    def test_k_clamped_with_warning(self, rng):
        vecs = rng.standard_normal((4, 2))
        with pytest.warns(UserWarning, match="clamping"):
            aux = build_knn_aux_graph(vecs, 10, 1.0)
        assert aux.edges.shape == (6, 2)  # k clamped to 3: complete on 4 nodes

    def test_orthogonal_rows_zero_weights(self):
        vecs = np.eye(4)
        aux = build_knn_aux_graph(vecs, 2, 0.7)
        assert aux.weights.max() == 0.0
        assert aux.edges.shape[0] > 0  # structure kept

    def test_identical_unit_vectors_weight_one(self):
        vecs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        for gp in (0.5, 1.0, 3.0):
            aux = build_knn_aux_graph(vecs, 1, gp)
            pair = {tuple(e) for e in aux.edges.tolist()}
            assert (0, 1) in pair
            w01 = aux.weights[[tuple(e) == (0, 1) for e in aux.edges.tolist()]]
            assert w01[0] == pytest.approx(1.0)

    def test_deterministic(self, rng):
        vecs = rng.standard_normal((12, 4))
        a = build_knn_aux_graph(vecs, 3, 1.0)
        b = build_knn_aux_graph(vecs, 3, 1.0)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.weights, b.weights)

    def test_orphan_rows_get_self_loops(self):
        vecs = np.eye(3)  # all weights zero
        aux = build_knn_aux_graph(vecs, 1, 1.0)
        p = scipy_csr(aux_transition_matrix(aux)).toarray()
        assert np.abs(p - np.eye(3)).max() == 0.0

    @settings(max_examples=200)
    @given(st.data())
    def test_matches_dense_oracle(self, data):
        # Entries in {-2..2} make exact distance ties and duplicate points.
        n = data.draw(st.integers(2, 40), label="n")
        dim = data.draw(st.integers(1, 4), label="dim")
        k = data.draw(st.integers(1, n + 2), label="k")
        gamma_prime = data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="gamma_prime")
        flat = data.draw(st.lists(st.integers(-2, 2), min_size=n * dim, max_size=n * dim))
        vecs = np.array(flat, dtype=np.float64).reshape(n, dim)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            aux = build_knn_aux_graph(vecs, k, gamma_prime)
        assert any("clamping" in str(w.message) for w in caught) == (k >= n)
        edges, weights = knn_edges_dense(vecs, k, gamma_prime)
        assert aux.edges.dtype == edges.dtype
        assert np.array_equal(aux.edges, edges)
        assert np.array_equal(aux.weights, weights)

    def test_matches_dense_oracle_across_row_blocks(self, monkeypatch):
        import graphain.curriculum as curriculum

        # 37 points on the 3 x 3 integer grid: exact ties and duplicates.
        vecs = np.random.default_rng(5).integers(-1, 2, size=(37, 2)).astype(float)
        blocks = [
            37,  # one row a block
            36,  # n = block + 1
            38,  # n = block - 1
            100,  # two rows a block, a one-row last block
            185,  # five rows a block, a two-row last block
            36 * 37,  # 36 rows, then one row over the 36-row buffers
            37 * 37,  # the whole selection in one block
        ]
        for block in blocks:
            monkeypatch.setattr(curriculum, "_KNN_BLOCK", block)
            for k in (1, 5):
                aux = build_knn_aux_graph(vecs, k, 1.0)
                edges, weights = knn_edges_dense(vecs, k, 1.0)
                assert np.array_equal(aux.edges, edges), (block, k)
                assert np.array_equal(aux.weights, weights), (block, k)

    @settings(max_examples=60)
    @given(st.data())
    def test_matches_dense_oracle_over_many_leaves(self, data):
        # Clustered integer grids, entries 10 c + {-1, 0, 1}: every product is
        # exact, and ties and duplicates abound within a cluster; small
        # blocks make many leaves, most of which skip the far clusters.  A
        # wider spread gives rows of one leaf unequal k-th distances.
        n = data.draw(st.integers(2, 300), label="n")
        dim = data.draw(st.integers(1, 4), label="dim")
        clusters = data.draw(st.integers(1, 4), label="clusters")
        spread = data.draw(st.sampled_from([1, 1, 5, 40]), label="spread")
        k = data.draw(st.integers(1, 12), label="k")
        block = data.draw(st.integers(n, 16 * n), label="block")
        gamma_prime = data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="gamma_prime")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        centers = rng.integers(-3, 4, size=(clusters, dim))
        offsets = rng.integers(-spread, spread + 1, (n, dim))
        vecs = (10 * centers[rng.integers(0, clusters, n)] + offsets).astype(np.float64)
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # k >= n clamps with a warning
            patch.setattr(curriculum, "_KNN_BLOCK", block)
            aux = build_knn_aux_graph(vecs, k, gamma_prime)
        edges, weights = knn_edges_dense(vecs, k, gamma_prime)
        assert np.array_equal(aux.edges, edges)
        assert np.array_equal(aux.weights, weights)

    def test_leaves_skip_far_clusters(self, leaf_products):
        # Three separated clusters of rank 3 in 8 columns, as the propagated
        # embeddings are: a leaf inside one cluster skips the other two.
        n = 3000
        rng = np.random.default_rng(21)
        centers = rng.standard_normal((3, 3)) * 8.0
        points = centers[np.arange(n) % 3] + rng.standard_normal((n, 3))
        build_knn_aux_graph(points @ rng.standard_normal((3, 8)), 7, 1.0)
        # all pairs are n^2; each cluster's rows against that cluster, n^2 / 3
        assert sum(rows * cols for rows, cols in leaf_products) < 0.4 * n * n

    def test_products_span_at_most_a_chunk(self, leaf_products):
        # Three separated clusters of rank 3 in 8 columns, in 35 leaves of at
        # most 86 rows and in 375 leaves of k + 1 = 8 rows.  Every product,
        # a stack of own blocks or the rows that search a leaf against its
        # columns, spans at most max(chunk, width * max(width, d)) entries.
        # At the default chunk no leaf here is searched by enough rows to fill
        # a chunk; at 300 entries the rows that search a leaf take several
        # products.
        n = 3000
        rng = np.random.default_rng(22)
        centers = rng.standard_normal((3, 3)) * 8.0
        points = centers[np.arange(n) % 3] + rng.standard_normal((n, 3))
        vecs = points @ rng.standard_normal((3, 8))
        for block, width in ((curriculum._KNN_BLOCK, 86), (8 * n, 8)):
            for chunk in (curriculum._KNN_CHUNK, 300):
                leaf_products.clear()
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(curriculum, "_KNN_BLOCK", block)
                    patch.setattr(curriculum, "_KNN_CHUNK", chunk)
                    build_knn_aux_graph(vecs, 7, 1.0)
                assert max(cols for _, cols in leaf_products) == width
                bound = max(chunk, width * max(width, 8))
                assert max(rows * cols for rows, cols in leaf_products) <= bound, (block, chunk)

    @settings(max_examples=150)
    @given(st.data())
    def test_leaf_pairs_match_a_double_loop(self, data):
        # Boxes on a coarse grid, so that many are degenerate (lo == hi),
        # touch or overlap, or on float corners; bounds from zero to past
        # every gap, many set to an exact gap between two boxes.  The loop
        # sums the squared coordinate gaps in order in Python floats, as the
        # pass sums them, so a gap equal to its bound passes in both.
        count = data.draw(st.integers(1, 40), label="count")
        d = data.draw(st.integers(1, 12), label="d")
        chunk = data.draw(st.sampled_from([1, 300, curriculum._KNN_CHUNK]), label="chunk")
        grid = data.draw(st.booleans(), label="grid")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if grid:
            lo = rng.integers(-3, 4, (count, d)).astype(np.float64)
            hi = lo + rng.integers(0, 3, (count, d))
        else:
            lo = rng.standard_normal((count, d))
            hi = lo + rng.exponential(1.0, (count, d)) * (rng.random((count, d)) < 0.7)
        lo_l, hi_l = lo.tolist(), hi.tolist()

        def gap(a, b):
            total = 0.0
            for j in range(d):
                g = max(lo_l[a][j] - hi_l[b][j], lo_l[b][j] - hi_l[a][j], 0.0)
                total += g * g
            return total

        bound = rng.choice([0.0, 0.5, 3.0, 50.0], count)
        for a in np.flatnonzero(rng.random(count) < 0.5).tolist():
            bound[a] = gap(a, int(rng.integers(0, count)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(curriculum, "_KNN_CHUNK", chunk)
            rows, searched = curriculum._leaf_pairs(lo, hi, bound)
        expected = [
            (a, b)
            for b in range(count)
            for a in range(count)
            if a != b and gap(a, b) <= bound[a]
        ]
        assert list(zip(rows.tolist(), searched.tolist())) == expected
        assert not np.any(rows == searched)

    @settings(max_examples=80)
    @given(st.data())
    def test_matches_dense_oracle_over_small_uneven_leaves(self, data):
        # Clusters of unequal spread, so that neighboring leaves hold rows of
        # unequal bounds, cut into leaves of k + 1 to 4 (k + 1) rows whose
        # sizes differ by one where the rows do not divide evenly; chunks
        # from one leaf or box test at a time to the default.  Half of the
        # inputs lie on the integer grid, with exact ties and duplicates.
        n = data.draw(st.integers(2, 400), label="n")
        dim = data.draw(st.integers(1, 5), label="dim")
        k = data.draw(st.integers(1, 9), label="k")
        rows = data.draw(st.integers(k + 1, 4 * (k + 1)), label="rows per leaf")
        chunk = data.draw(st.sampled_from([1, 300, curriculum._KNN_CHUNK]), label="chunk")
        grid = data.draw(st.booleans(), label="grid")
        gamma_prime = data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="gamma_prime")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        clusters = int(rng.integers(1, 5))
        centers = 20.0 * rng.standard_normal((clusters, dim))
        spread = rng.choice([0.3, 2.0, 8.0], size=clusters)
        which = rng.integers(0, clusters, n)
        vecs = centers[which] + spread[which, None] * rng.standard_normal((n, dim))
        if grid:
            vecs = np.rint(vecs)
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # k >= n clamps with a warning
            patch.setattr(curriculum, "_KNN_BLOCK", n * rows)
            patch.setattr(curriculum, "_KNN_CHUNK", chunk)
            aux = build_knn_aux_graph(vecs, k, gamma_prime)
        edges, weights = knn_edges_dense(vecs, k, gamma_prime)
        assert np.array_equal(aux.edges, edges)
        assert np.array_equal(aux.weights, weights)

    def test_float_vectors_in_one_block_match_oracle_bits(self):
        import graphain.curriculum as curriculum

        # The pinned configs (n = 120) and the deep benchmark (n = 300) fit in
        # one leaf, whose own block is the whole search; its distances only
        # choose candidates, and each kept pair's distance and weight are
        # its per-pair values, as in the oracle.
        n = 300
        assert curriculum._KNN_BLOCK // n >= n
        vecs = np.random.default_rng(11).standard_normal((n, 8))
        aux = build_knn_aux_graph(vecs, 7, 1.0)
        edges, weights = knn_edges_dense(vecs, 7, 1.0)
        assert np.array_equal(aux.edges, edges)
        assert np.array_equal(aux.weights, weights)

    def test_float_vectors_across_blocks_match_oracle_bits(self):
        # Several leaves: the blocks only choose candidates, and every kept
        # pair's distance and weight are its own per-pair values.
        n = 1500
        assert curriculum._KNN_BLOCK // n < n
        vecs = np.random.default_rng(12).standard_normal((n, 8))
        aux = build_knn_aux_graph(vecs, 7, 1.0)
        edges, weights = knn_edges_dense(vecs, 7, 1.0)
        assert np.array_equal(aux.edges, edges)
        assert np.array_equal(aux.weights, weights)

    @settings(max_examples=60)
    @given(st.data())
    def test_float_vectors_match_oracle_bits_for_any_block(self, data):
        # Float rows in Gaussian clusters, some repeated exactly, at scales
        # from tiny to huge, in up to 8 columns or in 64 or 300, where every
        # leaf pair survives the pruning; the block runs from one row (leaves
        # of k + 1 rows) to n^2 (a single leaf), which moves every leaf and
        # every BLAS block shape but must not move a bit of the output.
        n = data.draw(st.integers(2, 200), label="n")
        dim = data.draw(st.integers(1, 8) | st.sampled_from([64, 300]), label="dim")
        k = data.draw(st.integers(1, 12), label="k")
        block = data.draw(st.integers(n, n * n), label="block")
        spread = data.draw(st.sampled_from([0.0, 1.0, 10.0]), label="spread")
        scale = data.draw(st.sampled_from([1e-150, 1e-3, 1.0, 1e50]), label="scale")
        gamma_prime = data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="gamma_prime")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        centers = spread * rng.standard_normal((rng.integers(1, 5), dim))
        vecs = centers[rng.integers(0, len(centers), n)] + rng.standard_normal((n, dim))
        vecs[rng.integers(0, n, n // 5)] = vecs[rng.integers(0, n, n // 5)]
        vecs *= scale
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # k >= n clamps with a warning
            patch.setattr(curriculum, "_KNN_BLOCK", block)
            aux = build_knn_aux_graph(vecs, k, gamma_prime)
        edges, weights = knn_edges_dense(vecs, k, gamma_prime)
        assert np.array_equal(aux.edges, edges)
        assert np.array_equal(aux.weights, weights)

    def test_same_bytes_at_one_and_two_blas_threads(self):
        # A propagated embedding of the benchmark's wide shape (3 x 1000
        # nodes, 64 layers): its leaf blocks are large enough for OpenBLAS to
        # split them across threads, which rounds some entries differently.
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        digests = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", _WIDE_KNN_DIGEST],
                env={**env, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout)
        assert digests[0] == digests[1]

    @pytest.mark.parametrize(
        "n, bound",
        [
            # No n x n array: three buffers of _KNN_CHUNK entries (the
            # distances and their partitioned copy in float64 and a bool
            # candidate mask, 17 bytes an entry, 1.1 MB), allocated once, the
            # leaves' padded operands and coordinates, O(n (d + k)), and the
            # candidates.  An n x n Gram alone would be 72 MB at n = 3000 and
            # 648 MB at n = 9000.
            (3000, 16e6),
            (9000, 24e6),
            # One leaf: the buffers hold its n x n block, more than
            # _KNN_CHUNK entries.
            (300, 5 * 8 * 300**2),
        ],
    )
    def test_knn_peak_memory(self, n, bound):
        vecs = np.random.default_rng(0).standard_normal((n, 8))
        tracemalloc.start()
        try:
            build_knn_aux_graph(vecs, 7, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_distance_rejected(self, monkeypatch):
        import graphain.curriculum as curriculum

        vecs = np.array([[1e200, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NonFiniteFeatureError, match=r"kNN.* norm of row 0 "):
            build_knn_aux_graph(vecs, 1, 1.0)
        vecs = np.array([[0.0, 1.0], [1.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(NonFiniteFeatureError, match=r"kNN.* norm of row 2 "):
            build_knn_aux_graph(vecs, 1, 1.0)
        # Finite norms whose distance overflows: rows 1 and 2 are opposed.
        vecs = np.array([[0.0, 1.0], [7e153, 0.0], [-7e153, 0.0]])
        with pytest.raises(NonFiniteFeatureError, match=r"kNN.* between rows 1 and 2 "):
            build_knn_aux_graph(vecs, 1, 1.0)
        monkeypatch.setattr(curriculum, "_KNN_BLOCK", 3)  # one row a block
        with pytest.raises(NonFiniteFeatureError, match=r"kNN.* between rows 1 and 2 "):
            build_knn_aux_graph(vecs, 1, 1.0)

    def test_overflowing_weight_rejected(self):
        # Rows of norm 1e80: every distance is finite, but max(0, g) ** 2
        # overflows for two rows at an acute angle.  The first such edge is
        # named, and numpy warns of nothing.
        vecs = np.random.default_rng(3).standard_normal((30, 4))
        vecs *= 1e80 / np.linalg.norm(vecs, axis=1, keepdims=True)
        with np.errstate(over="ignore"):
            edges, weights = knn_edges_dense(vecs, 7, 2.0)
        i, j = edges[np.flatnonzero(~np.isfinite(weights))[0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteFeatureError, match=rf"kNN.* edge \({i}, {j}\),"):
                build_knn_aux_graph(vecs, 7, 2.0)
            build_knn_aux_graph(vecs, 7, 1.0)  # g itself is finite

    @pytest.mark.parametrize(
        "large, pair",
        [
            ({1: 7e153, 2: -7e153}, "1 and 2"),
            # several large rows: the first failing pair in row-major order
            ({3: 7e153, 9: 7e153, 5: -7e153, 4: -7e153}, "3 and 4"),
            # a single row's own distance overflows
            ({6: 1e154}, "6 and 6"),
        ],
    )
    def test_non_finite_distance_found_across_leaves(self, monkeypatch, large, pair):
        # Rows far apart fall in leaves that skip each other, so the
        # overflowing pairs are sought apart from the leaf blocks.
        vecs = np.stack([np.zeros(60), np.arange(60) % 7], axis=1)
        for row, x in large.items():
            vecs[row] = [x, 0.0]
        monkeypatch.setattr(curriculum, "_KNN_BLOCK", 60 * 4)  # 4 rows a leaf
        with pytest.raises(NonFiniteFeatureError, match=f"kNN.* between rows {pair} "):
            build_knn_aux_graph(vecs, 1, 1.0)


def normalized_entropy(p) -> float:
    """Entropy of a distribution scaled into [0, 1] by log of the class count:
    the per-row quantity ``entropy_filter`` ranks, for one distribution."""
    p = np.asarray(p, dtype=np.float64).ravel()
    if p.size < 2:
        raise ValueError("need at least two classes")
    if float(p.min()) < -1e-12 or abs(float(p.sum()) - 1.0) > 1e-6:
        raise ValueError("input is not a probability distribution")
    pos = p[p > 0.0]
    h = float(-(pos * np.log(pos)).sum()) / math.log(p.size)
    return min(max(h, 0.0), 1.0)


class TestNormalizedEntropy:
    def test_one_hot_is_zero(self):
        assert normalized_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_is_one(self):
        for c in (2, 3, 5):
            assert normalized_entropy(np.full(c, 1.0 / c)) == pytest.approx(1.0)

    def test_half_half_of_three(self):
        val = normalized_entropy([0.5, 0.5, 0.0])
        assert val == pytest.approx(math.log(2) / math.log(3), abs=1e-12)

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            normalized_entropy([0.5, 0.2])
        with pytest.raises(ValueError):
            normalized_entropy([1.2, -0.2])

    @given(st.integers(0, 1000))
    def test_range(self, seed):
        p = np.random.default_rng(seed).dirichlet(np.ones(4))
        assert 0.0 <= normalized_entropy(p) <= 1.0

    def test_matches_the_filter_row_entropies(self):
        y = np.random.default_rng(5).dirichlet(np.ones(4), size=20)
        y[0] = [1.0, 0.0, 0.0, 0.0]
        expected = [normalized_entropy(row) for row in y]
        assert curriculum._row_entropies(y) == pytest.approx(expected, abs=1e-12)


class TestEntropyFilter:
    def _labels(self):
        y = np.array(
            [
                [0.40, 0.35, 0.25],  # high entropy
                [0.98, 0.01, 0.01],  # low entropy
                [0.40, 0.40, 0.20],  # high entropy
                [0.90, 0.05, 0.05],  # lowish
            ]
        )
        return _soft(y / y.sum(axis=1, keepdims=True))

    def test_zero_ratio_unchanged(self):
        labels = self._labels()
        out = entropy_filter(labels, 0.0)
        assert np.array_equal(out.y, labels.y)
        assert not out.masked.any()

    def test_full_ratio_masks_all_unlabeled(self):
        out = entropy_filter(self._labels(), 1.0, labeled_set=[1])
        assert out.masked.tolist() == [True, False, True, True]

    def test_ranked_masking(self):
        out = entropy_filter(self._labels(), 0.5)
        # the two highest-entropy rows (0 and 2) go first
        assert out.masked.tolist() == [True, False, True, False]
        assert np.abs(out.y[0]).max() == 0.0

    def test_labeled_rows_never_masked(self):
        out = entropy_filter(self._labels(), 1.0, labeled_set=[0, 2])
        assert out.masked.tolist() == [False, True, False, True]

    def test_count_is_exact_ceil(self):
        y = np.full((7, 2), 0.5)
        out = entropy_filter(_soft(y), 0.3)
        assert int(out.masked.sum()) == math.ceil(0.3 * 7)

    def test_mask_invariant_to_column_permutation(self, rng):
        y = rng.dirichlet(np.ones(4), size=9)
        base = entropy_filter(_soft(y), 0.4)
        perm = entropy_filter(_soft(y[:, [2, 0, 3, 1]]), 0.4)
        assert np.array_equal(base.masked, perm.masked)


class TestSmoothing:
    def test_zero_depth_returns_input_only(self, rng):
        g = random_connected_graph(8, 0.3, seed=1)
        y0 = _soft(rng.dirichlet(np.ones(3), size=8))
        snaps = smooth_labels(aux_from_graph(g), y0, 0)
        assert len(snaps) == 1 and snaps[0] is y0

    def test_row_stochastic_at_every_snapshot(self, rng):
        g = random_connected_graph(12, 0.3, seed=2)
        y0 = _soft(rng.dirichlet(np.ones(4), size=12))
        for snap in smooth_labels(aux_from_graph(g), y0, 20):
            assert np.abs(snap.y.sum(axis=1) - 1.0).max() <= 1e-9

    def test_regular_graph_limit_is_mean_row(self, rng):
        # 11-node circulant: regular and connected, so the stationary
        # weights are uniform and the limit row is the plain mean
        from graphain.synthetic import circulant_graph

        g = circulant_graph(11, offsets=(1, 2))
        y0_rows = rng.dirichlet(np.ones(3), size=11)
        y0 = _soft(y0_rows)
        snaps = smooth_labels(aux_from_graph(g), y0, 400)
        assert np.abs(snaps[-1].y - y0_rows.mean(axis=0)).max() <= 1e-6

    def test_masked_rows_stay_zero(self, rng):
        g = random_connected_graph(10, 0.4, seed=3)
        y = rng.dirichlet(np.ones(3), size=10)
        masked = np.zeros(10, dtype=bool)
        masked[4] = True
        y[4] = 0.0
        snaps = smooth_labels(aux_from_graph(g), _soft(y, masked), 15)
        for snap in snaps:
            assert np.abs(snap.y[4]).max() == 0.0
            assert snap.masked[4]

    def test_degree_zero_row_unchanged(self, rng):
        from graphain.graph import build_graph

        g = build_graph([(0, 1)], 3, np.zeros((3, 1)))
        y0_rows = rng.dirichlet(np.ones(3), size=3)
        snaps = smooth_labels(aux_from_graph(g), _soft(y0_rows), 9)
        assert np.abs(snaps[-1].y[2] - y0_rows[2]).max() <= 1e-12


def _recording(monkeypatch):
    """Record every ``train_linear`` call that ``run_curriculum`` makes."""
    calls = []
    real = curriculum.train_linear

    def record(h, labels, cfg, warm_start=None):
        calls.append(dict(labels=labels, include=labels.unmasked_indices(), epochs=cfg.epochs))
        return real(h, labels, cfg, warm_start=warm_start)

    monkeypatch.setattr(curriculum, "train_linear", record)
    return calls


def _curriculum_setup():
    g = random_connected_graph(24, 0.25, seed=20, feature_dim=4)
    labels = (np.arange(24) % 2).astype(np.int64)
    from graphain.graph import build_graph

    g = build_graph(g.edges, g.n, g.features, y=labels)
    g = with_masks(g, 0.25, 0.25, seed=1)
    cfg = PropagationConfig(
        alpha=0.8,
        beta=0.1,
        gamma=0.1,
        filter=SpectralFilterParams(a=0.5, b=1.0, d0=4),
        layers=4,
    )
    return g, run_fuzzy_r_softgraphain(g, cfg)


def _masked_snapshots(rng, count):
    """Soft two-class snapshots of 24 nodes, a different few rows masked in each."""
    snaps = []
    for i in range(count):
        y = rng.dirichlet(np.ones(2), size=24)
        masked = np.zeros(24, dtype=bool)
        masked[i::5] = True
        y[masked] = 0.0
        snaps.append(_soft(y, masked))
    return snaps


class TestSchedule:
    def test_reversal_indices(self, rng, monkeypatch):
        g, h = _curriculum_setup()
        snaps = _masked_snapshots(rng, 4)
        calls = _recording(monkeypatch)
        run_curriculum(g, h, snaps, TrainConfig(lr=0.2, epochs=9), 7)
        for i, call in enumerate(calls[:-1]):
            assert call["labels"] is snaps[3 - i]
            assert np.array_equal(call["include"], snaps[3 - i].unmasked_indices())
            assert call["epochs"] == 7
        final = calls[-1]
        assert np.array_equal(final["include"], g.train_mask)
        assert final["epochs"] == 9
        assert np.array_equal(
            final["labels"].y,
            one_hot_matrix(g.labels[g.train_mask], g.train_mask, g.n, 2).y,
        )

    def test_curriculum_is_a_chain_of_warm_started_fits(self, rng):
        # one train_linear per snapshot, smoothest first, on its unmasked
        # rows, then the fine-tune on the train truth, each from the last w
        g, h = _curriculum_setup()
        snaps = _masked_snapshots(rng, 3)
        cfg = TrainConfig(lr=0.2, epochs=9, weight_decay=1e-3)
        pacing = TrainConfig(lr=0.2, epochs=7, weight_decay=1e-3)
        w = None
        for snap in reversed(snaps):
            w = train_linear(h, snap, pacing, warm_start=w)
        truth = one_hot_matrix(g.labels[g.train_mask], g.train_mask, g.n, 2)
        w = train_linear(h, truth, cfg, warm_start=w)
        out = run_curriculum(g, h, snaps, cfg, 7)
        assert out.w.tobytes() == w.tobytes()

    def test_total_length_includes_finetune(self, rng, monkeypatch):
        g, h = _curriculum_setup()
        calls = _recording(monkeypatch)
        out = run_curriculum(g, h, _masked_snapshots(rng, 3), TrainConfig(lr=0.2, epochs=5), 1)
        assert len(calls) == len(out.metrics) == 3 + 1
        assert [m.index for m in out.metrics] == [0, 1, 2, 3]


class TestRunCurriculum:
    def test_supervised_only_schedule(self):
        g, h = _curriculum_setup()
        cfg = TrainConfig(lr=0.2, epochs=30)
        out = run_curriculum(g, h, [], cfg, 50)
        assert len(out.metrics) == 1
        assert out.metrics[0].index == 0
        # the fine-tune alone is the teacher: one train_linear on the train truth
        truth = one_hot_matrix(g.labels[g.train_mask], g.train_mask, g.n, 2)
        teacher = train_linear(h, truth, cfg)
        assert np.array_equal(out.w, teacher)

    def test_zero_pacing_equals_finetune_only(self, rng):
        g, h = _curriculum_setup()
        snaps = [_soft(rng.dirichlet(np.ones(2), size=24)) for _ in range(3)]
        train_cfg = TrainConfig(lr=0.2, epochs=30)
        full = run_curriculum(g, h, snaps, train_cfg, 0)
        only = run_curriculum(g, h, [], train_cfg, 0)
        assert np.array_equal(full.w, only.w)

    def test_warm_start_carries_over(self, rng):
        g, h = _curriculum_setup()
        snaps = [_soft(rng.dirichlet(np.ones(2), size=24)) for _ in range(2)]
        out = run_curriculum(g, h, snaps, TrainConfig(lr=0.2, epochs=0), 10)
        # zero fine-tune epochs: final weights come from the last task
        assert np.abs(out.w).max() > 0.0

    def test_val_scores_skip_unlabeled_nodes(self):
        g, h = _curriculum_setup()
        out = run_curriculum(g, h, [], TrainConfig(lr=0.2, epochs=30), 0)
        pred, _ = predict(h, out.w)
        assert split_scores(out.probs, out.logp, g, g.val_mask) == (
            out.metrics[0].val_accuracy,
            out.metrics[0].val_loss,
        )
        from graphain.graph import build_graph

        unlabeled = build_graph(
            g.edges, g.n, g.features, y=np.where(np.arange(24) < 12, g.labels, -1),
            masks=(g.train_mask, g.val_mask, g.test_mask),
        )
        acc, loss = split_scores(out.probs, out.logp, unlabeled, unlabeled.val_mask)
        kept = g.val_mask[g.val_mask < 12]
        assert 0 < kept.size < g.val_mask.size
        assert acc == (pred[kept] == g.labels[kept]).mean()
        truth = one_hot_matrix(g.labels[kept], kept, g.n, 2)
        assert loss == loss_and_grad(h[kept], truth.y[kept], out.w, 0.0)[0]
        empty = split_scores(out.probs, out.logp, g, g.val_mask[:0])
        assert all(math.isnan(v) for v in empty)

    def test_scores_match_each_head_on_its_rows(self, rng, monkeypatch):
        # Each head's scores come from one softmax over every node: each loss
        # is loss_and_grad on the split's rows, each accuracy predict's.
        g, h = _curriculum_setup()
        heads = []
        real = curriculum.train_linear

        def record(h, labels, cfg, **kwargs):
            w = real(h, labels, cfg, **kwargs)
            include = labels.unmasked_indices()
            heads.append((labels.y[include], include, w))
            return w

        monkeypatch.setattr(curriculum, "train_linear", record)
        snaps = _masked_snapshots(rng, 3)
        out = run_curriculum(g, h, snaps, TrainConfig(lr=0.2, epochs=30), 10)
        assert len(heads) == len(out.metrics) == 4
        val, test = g.val_mask, g.test_mask

        def loss(rows, y, w):
            return pytest.approx(loss_and_grad(h[rows], y, w, 0.0)[0], rel=1e-12, abs=0)

        for (y, include, w), m in zip(heads, out.metrics):
            pred, _ = predict(h, w)
            assert m.train_accuracy == accuracy(pred[include], g.labels[include])
            assert m.val_accuracy == accuracy(pred[val], g.labels[val])
            assert m.train_loss == loss(include, y, w)
            assert m.val_loss == loss(val, one_hot(g.labels[val], 2), w)
        pred, probs = predict(h, out.w)
        assert np.array_equal(out.probs, probs)
        cfg = build_experiment_config({"deterministic_timing": "true"})
        (row,) = [r for r in _arm_rows(cfg, "digest", 0, g, out) if r.split == "test"]
        assert (row.task, row.accuracy) == (3, accuracy(pred[test], g.labels[test]))
        assert row.loss == loss(test, one_hot(g.labels[test], 2), out.w)

    def test_split_without_labeled_nodes_scores_nan(self, rng):
        g, h = _curriculum_setup()
        labels = g.labels.copy()
        labels[np.concatenate([g.val_mask, g.test_mask])] = -1
        from graphain.graph import build_graph

        masks = (g.train_mask, g.val_mask, g.test_mask)
        hidden = build_graph(g.edges, g.n, g.features, y=labels, masks=masks)
        snaps = _masked_snapshots(rng, 2)
        out = run_curriculum(hidden, h, snaps, TrainConfig(lr=0.2, epochs=10), 5)
        assert all(math.isnan(m.val_accuracy) for m in out.metrics)
        assert all(math.isnan(m.val_loss) for m in out.metrics)
        assert all(math.isfinite(m.train_loss) for m in out.metrics)
        test = split_scores(out.probs, out.logp, hidden, hidden.test_mask)
        assert all(math.isnan(v) for v in test)
        cfg = build_experiment_config({"deterministic_timing": "true"})
        rows = _arm_rows(cfg, "digest", 0, hidden, out)
        assert [r.split for r in rows] == ["train", "val"] * 3

    def test_train_accuracy_skips_unlabeled_nodes(self, rng, monkeypatch):
        # A pseudo-label task trains on unlabeled nodes too; its train accuracy
        # is against the ground truth of its labeled rows, NaN when it has none.
        g, h = _curriculum_setup()
        hidden_nodes = np.concatenate([g.val_mask, g.test_mask])
        truth = g.labels.copy()
        truth[hidden_nodes] = -1
        from graphain.graph import build_graph

        masks = (g.train_mask, g.val_mask, g.test_mask)
        hidden = build_graph(g.edges, g.n, g.features, y=truth, masks=masks)
        only_hidden = np.ones(24, dtype=bool)
        only_hidden[hidden_nodes] = False
        y = np.where(only_hidden[:, None], 0.0, np.full((24, 2), 0.5))
        snaps = [*_masked_snapshots(rng, 2), _soft(y, only_hidden)]
        heads = []
        real = curriculum.train_linear

        def record(h, labels, cfg, **kwargs):
            w = real(h, labels, cfg, **kwargs)
            heads.append((labels.unmasked_indices(), w))
            return w

        monkeypatch.setattr(curriculum, "train_linear", record)
        out = run_curriculum(hidden, h, snaps, TrainConfig(lr=0.2, epochs=10), 5)
        assert math.isnan(out.metrics[0].train_accuracy)
        for (include, w), m in list(zip(heads, out.metrics))[1:]:
            kept = include[truth[include] >= 0]
            assert 0 < kept.size < include.size or m.index == 3
            pred, _ = predict(h, w)
            assert m.train_accuracy == (pred[kept] == truth[kept]).mean()

    def test_empty_include_without_epochs_raises_from_scoring(self, monkeypatch):
        g, h = _curriculum_setup()
        calls = _recording(monkeypatch)
        empty = _soft(np.zeros((24, 2)), np.ones(24, dtype=bool))
        with pytest.raises(
            EmptyIncludeError,
            match=r"^empty node subset: task 0 trains on snapshot 0, whose rows are all masked; "
            r"lower curriculum\.mask_ratio$",
        ):
            run_curriculum(g, h, [empty], TrainConfig(lr=0.2, epochs=30), 0)
        # the empty task is refused before training, though it runs no epoch
        assert calls == []


class TestAuxTransition:
    @given(st.integers(0, 300))
    def test_row_stochastic(self, seed):
        local = np.random.default_rng(seed)
        g = random_connected_graph(14, 0.3, seed=seed)
        aux = AuxGraph(
            n=14,
            edges=g.edges,
            weights=local.uniform(0.1, 2.0, size=g.num_edges),
        )
        p = scipy_csr(aux_transition_matrix(aux))
        assert np.abs(p @ np.ones(14) - 1.0).max() <= 1e-12

    def test_zero_weight_edges_carry_no_mass(self):
        aux = AuxGraph(
            n=3,
            edges=np.array([[0, 1], [1, 2]]),
            weights=np.array([1.0, 0.0]),
        )
        p = scipy_csr(aux_transition_matrix(aux)).toarray()
        assert p[1, 2] == 0.0
        assert p[2, 2] == 1.0  # orphan fallback
