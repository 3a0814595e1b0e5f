import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphain.classifier import TrainConfig
from graphain.curriculum import (
    AuxGraph,
    aux_from_graph,
    aux_transition_matrix,
    build_curriculum,
    build_knn_aux_graph,
    entropy_filter,
    estimate_labels_teacher,
    iterative_label_propagation,
    normalized_entropy,
    run_curriculum,
    smooth_labels,
    supervised_schedule,
)
from graphain.errors import (
    EmptyScheduleError,
    NonFiniteFeatureError,
    NotADistributionError,
    RowNotStochasticError,
)
from graphain.labels import SoftLabelMatrix, one_hot
from graphain.linalg import SpectralFilterParams
from graphain.oracles import knn_edges_dense, label_prop_closed_form
from graphain.propagation import PropagationConfig, run_fuzzy_r_softgraphain
from graphain.synthetic import random_connected_graph, with_masks


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
        p = aux_transition_matrix(aux).toarray()
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

        vecs = np.random.default_rng(5).integers(-1, 2, size=(37, 2)).astype(float)
        monkeypatch.setattr(curriculum, "_KNN_BLOCK", 100)  # two rows a block
        aux = build_knn_aux_graph(vecs, 5, 1.0)
        edges, weights = knn_edges_dense(vecs, 5, 1.0)
        assert np.array_equal(aux.edges, edges)
        assert np.array_equal(aux.weights, weights)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_distance_rejected(self):
        vecs = np.array([[1e200, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NonFiniteFeatureError, match="kNN"):
            build_knn_aux_graph(vecs, 1, 1.0)


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
        with pytest.raises(NotADistributionError):
            normalized_entropy([0.5, 0.2])
        with pytest.raises(NotADistributionError):
            normalized_entropy([1.2, -0.2])

    @given(st.integers(0, 1000))
    def test_range(self, seed):
        p = np.random.default_rng(seed).dirichlet(np.ones(4))
        assert 0.0 <= normalized_entropy(p) <= 1.0


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


class TestIterativePropagation:
    def test_zero_iters_masks_unlabeled(self):
        g = random_connected_graph(6, 0.4, seed=0)
        out = iterative_label_propagation(aux_from_graph(g), one_hot([0], 2), [0], 0)
        assert out.masked.sum() == 5
        assert not out.masked[0]

    def test_isolated_node_stays_masked(self):
        from graphain.graph import build_graph

        g = build_graph([(0, 1)], 3, np.zeros((3, 1)))
        out = iterative_label_propagation(
            aux_from_graph(g), one_hot([0], 2), [0], 100
        )
        assert out.masked[2]
        assert not out.masked[1]

    def test_matches_closed_form(self):
        g = random_connected_graph(30, 0.15, seed=42)
        rng = np.random.default_rng(42)
        labeled = np.sort(rng.choice(30, size=6, replace=False))
        unlabeled = np.setdiff1d(np.arange(30), labeled)
        y_l = one_hot(rng.integers(0, 3, size=6), 3)
        aux = aux_from_graph(g)
        iterated = iterative_label_propagation(aux, y_l, labeled, 500)
        closed = label_prop_closed_form(
            aux_transition_matrix(aux).toarray(), y_l, labeled, unlabeled
        )
        assert np.abs(iterated.y[unlabeled] - closed).max() <= 1e-8


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


class TestSchedule:
    def test_reversal_indices(self, rng):
        snaps = [_soft(rng.dirichlet(np.ones(3), size=5)) for _ in range(4)]
        sched = build_curriculum(snaps, 7, ([0, 1], [0, 1]))
        assert sched.n_t == 3
        for i, task in enumerate(sched.tasks):
            assert task.labels is snaps[3 - i]
            assert task.epochs == 7

    def test_total_length_includes_finetune(self, rng):
        snaps = [_soft(rng.dirichlet(np.ones(3), size=5)) for _ in range(3)]
        sched = build_curriculum(snaps, 1, ([0], [2]))
        assert len(sched.tasks) + 1 == 3 + 1

    def test_empty_snapshots_rejected(self):
        with pytest.raises(EmptyScheduleError):
            build_curriculum([], 1, ([0], [0]))


class TestRunCurriculum:
    def _setup(self):
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

    def test_supervised_only_schedule(self):
        g, h = self._setup()
        sched = supervised_schedule(g.train_mask, g.labels[g.train_mask])
        out = run_curriculum(g, h, sched, TrainConfig(lr=0.2, epochs=30))
        assert len(out.metrics) == 1
        assert out.metrics[0].name == "finetune"

    def test_zero_pacing_equals_finetune_only(self, rng):
        g, h = self._setup()
        snaps = [_soft(rng.dirichlet(np.ones(2), size=24)) for _ in range(3)]
        sched = build_curriculum(snaps, 0, (g.train_mask, g.labels[g.train_mask]))
        train_cfg = TrainConfig(lr=0.2, epochs=30)
        full = run_curriculum(g, h, sched, train_cfg)
        only = run_curriculum(
            g,
            h,
            supervised_schedule(g.train_mask, g.labels[g.train_mask]),
            train_cfg,
        )
        assert np.array_equal(full.classifier.w, only.classifier.w)

    def test_warm_start_carries_over(self, rng):
        g, h = self._setup()
        snaps = [_soft(rng.dirichlet(np.ones(2), size=24)) for _ in range(2)]
        sched = build_curriculum(snaps, 10, (g.train_mask, g.labels[g.train_mask]))
        out = run_curriculum(g, h, sched, TrainConfig(lr=0.2, epochs=0))
        # zero fine-tune epochs: final weights come from the last task
        assert np.abs(out.classifier.w).max() > 0.0


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
        p = aux_transition_matrix(aux)
        assert np.abs(p @ np.ones(14) - 1.0).max() <= 1e-12

    def test_zero_weight_edges_carry_no_mass(self):
        aux = AuxGraph(
            n=3,
            edges=np.array([[0, 1], [1, 2]]),
            weights=np.array([1.0, 0.0]),
        )
        p = aux_transition_matrix(aux).toarray()
        assert p[1, 2] == 0.0
        assert p[2, 2] == 1.0  # orphan fallback
