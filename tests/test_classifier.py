import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphain.classifier import (
    TrainConfig,
    accuracy,
    class_logits,
    loss_and_grad,
    make_reducer,
    softmax_with_log,
    train_linear,
)
from head_predict import predict
from graphain.errors import (
    DimensionMismatchError,
    EmptyIncludeError,
    NonFiniteLossError,
)
from graphain.labels import SoftLabelMatrix, one_hot


def _soft(y):
    y = np.asarray(y, dtype=float)
    return SoftLabelMatrix(y=y, masked=np.zeros(y.shape[0], dtype=bool))


def _seeded_problem(seed, n=20, d=4, c=3):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, d))
    y = _soft(rng.dirichlet(np.ones(c), size=n))
    w = rng.standard_normal((d, c))
    include = np.arange(n)
    return h, y, w, include


class TestCrossEntropy:
    def test_zero_weights_give_log_c(self, rng):
        h = rng.standard_normal((10, 3))
        y = _soft(one_hot(rng.integers(0, 4, 10), 4))
        rows = np.arange(10)
        loss = loss_and_grad(h[rows], y.y[rows], np.zeros((3, 4)), 0.0)[0]
        assert loss == pytest.approx(math.log(4), abs=1e-12)

    def test_loss_equals_entropy_at_self_consistency(self, rng):
        h, _, w, include = _seeded_problem(3)
        probs, logp = (a.T for a in softmax_with_log(class_logits(np.ascontiguousarray(h.T), w)))
        y = _soft(probs)
        loss = loss_and_grad(h[include], y.y[include], w, 0.0)[0]
        entropy = float(-(probs * logp).sum() / len(include))
        assert loss == pytest.approx(entropy, abs=1e-12)

    def test_matches_straight_line_reference(self):
        h, y, w, include = _seeded_problem(11)
        loss = loss_and_grad(h[include], y.y[include], w, 0.0)[0]
        ref = 0.0
        for v in include:
            z = h[v] @ w
            p = np.exp(z - z.max())
            p = p / p.sum()
            ref -= float(y.y[v] @ np.log(p))
        ref /= len(include)
        assert loss == pytest.approx(ref, abs=1e-12)

    def test_empty_include(self):
        h, _, w, _ = _seeded_problem(0)
        y = SoftLabelMatrix(y=np.zeros((20, 3)), masked=np.ones(20, dtype=bool))
        for epochs in (1, 0):
            with pytest.raises(EmptyIncludeError, match="^empty node subset$"):
                train_linear(h, y, TrainConfig(lr=0.1, epochs=epochs), warm_start=w)


class TestGradient:
    def test_finite_differences(self):
        # the kernel train_linear descends, with and without weight decay
        eps = 1e-5
        for weight_decay in (0.0, 0.7):
            worst = 0.0
            for seed in range(10):
                h, y, w, _ = _seeded_problem(seed, n=12, d=3, c=3)
                _, grad = loss_and_grad(h, y.y, w, weight_decay)
                num = np.zeros_like(w)
                for i in range(w.shape[0]):
                    for j in range(w.shape[1]):
                        wp = w.copy()
                        wp[i, j] += eps
                        wm = w.copy()
                        wm[i, j] -= eps
                        num[i, j] = (
                            loss_and_grad(h, y.y, wp, weight_decay)[0]
                            - loss_and_grad(h, y.y, wm, weight_decay)[0]
                        ) / (2 * eps)
                rel = np.abs(grad - num).max() / max(np.abs(num).max(), 1e-12)
                worst = max(worst, rel)
            assert worst < 1e-5, f"weight_decay {weight_decay}: {worst:.3e}"

    def test_zero_at_stationary_point(self):
        h, _, w, _ = _seeded_problem(5)
        probs, _ = softmax_with_log(class_logits(np.ascontiguousarray(h.T), w))
        _, grad = loss_and_grad(h, probs.T, w, 0.0)
        assert np.abs(grad).max() <= 1e-10

    def test_zero_embeddings_zero_gradient(self):
        y = one_hot([0, 1], 2)
        _, grad = loss_and_grad(np.zeros((2, 3)), y, np.zeros((3, 2)), 0.0)
        assert np.abs(grad).max() == 0.0


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["lr", "weight_decay"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rates_are_rejected(self, field, value):
        kwargs = {"lr": 0.5, "epochs": 3, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            TrainConfig(**kwargs)

    def test_bad_finite_values_keep_their_messages(self):
        with pytest.raises(ValueError, match="^lr must be positive$"):
            TrainConfig(lr=0.0, epochs=1)
        with pytest.raises(ValueError, match="^weight_decay must be >= 0$"):
            TrainConfig(lr=0.1, epochs=1, weight_decay=-1e-3)
        with pytest.raises(ValueError, match="^epochs must be >= 0$"):
            TrainConfig(lr=0.1, epochs=-1)


class TestTrainLinear:
    def test_separable_data_reaches_full_accuracy(self):
        rng = np.random.default_rng(0)
        h = np.vstack(
            [rng.standard_normal((30, 2)) + [4, 0], rng.standard_normal((30, 2)) - [4, 0]]
        )
        truth = np.array([0] * 30 + [1] * 30)
        labels = _soft(one_hot(truth, 2))
        w = train_linear(h, labels, TrainConfig(lr=0.5, epochs=500))
        pred, _ = predict(h, w)
        assert accuracy(pred, truth) == 1.0

    def test_descends_the_checked_gradient(self):
        # one epoch is exactly the folded step of the unshifted softmax,
        # w (1 - lr wd) - ((lr/n) h^T P - (lr/n) h^T Y), and within rounding
        # of the step along loss_and_grad's gradient
        h, y, w, include = _seeded_problem(7)
        h_t = np.ascontiguousarray(h.T)
        e = np.exp(w.T @ h_t)
        probs = e / (e[0] + e[1] + e[2])
        scale = 0.2 / h.shape[0]
        for weight_decay in (0.0, 0.3):
            cfg = TrainConfig(lr=0.2, epochs=1, weight_decay=weight_decay)
            stepped = train_linear(h, y, cfg, warm_start=w)
            folded = w * (1.0 - 0.2 * weight_decay) - (
                scale * (h_t @ probs.T) - scale * (h_t @ y.y)
            )
            assert np.array_equal(stepped, folded)
            _, grad = loss_and_grad(h, y.y, w, weight_decay)
            assert np.abs(stepped - (w - 0.2 * grad)).max() <= 1e-15

    def test_zero_epochs_returns_warm_start(self, rng):
        h, y, w, include = _seeded_problem(1)
        got = train_linear(h, y, TrainConfig(lr=0.1, epochs=0), warm_start=w)
        assert np.array_equal(got, w)
        w0 = train_linear(h, y, TrainConfig(lr=0.1, epochs=0))
        assert np.abs(w0).max() == 0.0

    def test_weight_decay_shrinks_norm(self):
        # lr * weight_decay stays below the stability bound of 2
        h, y, _, include = _seeded_problem(2)
        plain = train_linear(h, y, TrainConfig(lr=1e-3, epochs=200))
        decayed = train_linear(
            h, y, TrainConfig(lr=1e-3, epochs=200, weight_decay=1e3)
        )
        assert np.linalg.norm(decayed) < np.linalg.norm(plain)

    def test_loss_monotone_with_small_lr(self):
        h, y, _, include = _seeded_problem(4)
        h = h / np.abs(h).max()
        w = np.zeros((h.shape[1], y.num_classes))
        losses = []
        cfg = TrainConfig(lr=0.01, epochs=1)
        for _ in range(60):
            losses.append(loss_and_grad(h[include], y.y[include], w, 0.0)[0])
            w = train_linear(h, y, cfg, warm_start=w)
        diffs = np.diff(losses)
        assert diffs.max() <= 1e-12

    def test_embedding_rows_must_match_the_labels(self):
        h, y, w, include = _seeded_problem(12)
        extra = np.vstack([h, h[:1]])
        with pytest.raises(DimensionMismatchError, match=r"^h has 21 rows .* 20$"):
            train_linear(extra, y, TrainConfig(lr=0.1, epochs=1), warm_start=w)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_guard(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((8, 2)) * 1e150
        y = _soft(one_hot(rng.integers(0, 2, 8), 2))
        with pytest.raises(NonFiniteLossError, match=r"epoch 1$"):
            train_linear(h, y, TrainConfig(lr=1e200, epochs=50))


def test_default_seed_measures_max_w_less_often_than_it_runs_epochs(monkeypatch):
    # a growth bound on max|w| stands in for measuring it while it proves the
    # loss finite; each fit also measures max|h| once
    from graphain import classifier, curriculum
    from graphain.config import build_experiment_config
    from graphain.experiment import run_seed

    measured, epochs = [], []
    real_max, real_train = classifier._max_abs, curriculum.train_linear

    def counting_max(a):
        measured.append(a.shape)
        return real_max(a)

    def counting_train(h, labels, cfg, warm_start=None):
        epochs.append(cfg.epochs)
        return real_train(h, labels, cfg, warm_start=warm_start)

    monkeypatch.setattr(classifier, "_max_abs", counting_max)
    monkeypatch.setattr(curriculum, "train_linear", counting_train)
    run_seed(build_experiment_config({"seeds": "1"}), 1)
    w_measures = len(measured) - len(epochs)
    assert 0 < w_measures < sum(epochs)


def _softmax_by_row_reductions(logits):
    """The row-reduction form of the softmax kernel: ``max`` and ``sum``
    along the class axis."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=1, keepdims=True)
    return e / z, shifted - np.log(z)


class TestSoftmaxKernel:
    @pytest.mark.parametrize("c", range(1, 8))
    def test_bit_equal_to_row_reductions(self, c):
        local = np.random.default_rng(c)
        scale = local.choice([1e-3, 1.0, 30.0, 700.0], size=(400, 1))
        logits = local.standard_normal((400, c)) * scale
        by_class = np.ascontiguousarray(logits.T)
        for got, want in zip(softmax_with_log(by_class), _softmax_by_row_reductions(logits)):
            assert np.array_equal(got.T, want)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("c", [1, 2, 3, 5, 7])
    def test_non_finite_rows_match_row_reductions(self, c):
        logits = np.random.default_rng(c).standard_normal((5, c))
        logits[1, c // 2] = np.nan
        logits[2, c - 1] = np.inf
        logits[3] = -np.inf
        logits[4, 0] = -np.inf
        by_class = np.ascontiguousarray(logits.T)
        for got, want in zip(softmax_with_log(by_class), _softmax_by_row_reductions(logits)):
            assert np.array_equal(got.T, want, equal_nan=True)


class TestPredict:
    def test_zero_weights_tie_to_class_zero(self, rng):
        h = rng.standard_normal((6, 3))
        pred, probs = predict(h, np.zeros((3, 4)))
        assert (pred == 0).all()
        assert probs == pytest.approx(np.full((6, 4), 0.25))

    def test_indicator_construction(self):
        h = np.eye(3)
        pred, _ = predict(h, 10.0 * np.eye(3))
        assert pred.tolist() == [0, 1, 2]

    def test_probs_share_softmax_kernel(self, rng):
        h, y, w, include = _seeded_problem(8)
        _, probs = predict(h, w)
        kernel_probs, _ = softmax_with_log(class_logits(np.ascontiguousarray(h.T), w))
        assert np.array_equal(probs, kernel_probs.T)

    @given(st.integers(0, 500))
    def test_argmax_shift_invariance(self, seed):
        # adding any per-row constant to the logits never moves the argmax
        local = np.random.default_rng(seed)
        h = local.standard_normal((5, 2))
        w = local.standard_normal((2, 3))
        pred1, _ = predict(h, w)
        shifts = local.uniform(-50, 50, size=(5, 1))
        pred2 = (h @ w + shifts).argmax(axis=1)
        assert np.array_equal(pred1, pred2)


class TestReducer:
    def test_orthonormal_columns_when_wide(self):
        r = make_reducer(10, 4, seed=3)
        assert np.abs(r.T @ r - np.eye(4)).max() <= 1e-10

    def test_deterministic(self):
        assert np.array_equal(make_reducer(6, 3, seed=1), make_reducer(6, 3, seed=1))

    def test_narrow_features(self):
        r = make_reducer(2, 5, seed=0)
        assert r.shape == (2, 5)
        assert np.isfinite(r).all()
