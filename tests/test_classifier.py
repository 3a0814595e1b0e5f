import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphain.classifier import (
    LinearClassifier,
    TrainConfig,
    accuracy,
    loss_and_grad,
    make_reducer,
    predict,
    softmax_cross_entropy,
    softmax_with_log,
    train_linear,
)
from graphain.errors import EmptyIncludeError, NonFiniteLossError
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
        loss = softmax_cross_entropy(h, y, np.zeros((3, 4)), np.arange(10))
        assert loss == pytest.approx(math.log(4), abs=1e-12)

    def test_loss_equals_entropy_at_self_consistency(self, rng):
        h, _, w, include = _seeded_problem(3)
        probs, logp = softmax_with_log(h @ w)
        y = _soft(probs)
        loss = softmax_cross_entropy(h, y, w, include)
        entropy = float(-(probs * logp).sum() / len(include))
        assert loss == pytest.approx(entropy, abs=1e-12)

    def test_matches_straight_line_reference(self):
        h, y, w, include = _seeded_problem(11)
        loss = softmax_cross_entropy(h, y, w, include)
        ref = 0.0
        for v in include:
            z = h[v] @ w
            p = np.exp(z - z.max())
            p = p / p.sum()
            ref -= float(y.y[v] @ np.log(p))
        ref /= len(include)
        assert loss == pytest.approx(ref, abs=1e-12)

    def test_empty_include(self):
        h, y, w, _ = _seeded_problem(0)
        with pytest.raises(EmptyIncludeError):
            softmax_cross_entropy(h, y, w, [])

    def test_masked_rows_rejected(self):
        h, y, w, include = _seeded_problem(0)
        masked = np.zeros(20, dtype=bool)
        masked[3] = True
        y2 = y.y.copy()
        y2[3] = 0.0
        bad = SoftLabelMatrix(y=y2, masked=masked)
        with pytest.raises(ValueError):
            softmax_cross_entropy(h, bad, w, include)


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
        probs, _ = softmax_with_log(h @ w)
        _, grad = loss_and_grad(h, probs, w, 0.0)
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
        clf = train_linear(h, labels, np.arange(60), TrainConfig(lr=0.5, epochs=500))
        pred, _ = predict(h, clf)
        assert accuracy(pred, truth) == 1.0

    def test_descends_the_checked_gradient(self):
        # one epoch is exactly one step along loss_and_grad's gradient
        h, y, w, include = _seeded_problem(7)
        for weight_decay in (0.0, 0.3):
            cfg = TrainConfig(lr=0.2, epochs=1, weight_decay=weight_decay)
            stepped = train_linear(h, y, include, cfg, warm_start=w).w
            _, grad = loss_and_grad(h, y.y, w, weight_decay)
            assert np.array_equal(stepped, w - 0.2 * grad)

    def test_zero_epochs_returns_warm_start(self, rng):
        h, y, w, include = _seeded_problem(1)
        clf = train_linear(h, y, include, TrainConfig(lr=0.1, epochs=0), warm_start=w)
        assert np.array_equal(clf.w, w)
        clf0 = train_linear(h, y, include, TrainConfig(lr=0.1, epochs=0))
        assert np.abs(clf0.w).max() == 0.0

    def test_weight_decay_shrinks_norm(self):
        # lr * weight_decay stays below the stability bound of 2
        h, y, _, include = _seeded_problem(2)
        plain = train_linear(h, y, include, TrainConfig(lr=1e-3, epochs=200))
        decayed = train_linear(
            h, y, include, TrainConfig(lr=1e-3, epochs=200, weight_decay=1e3)
        )
        assert np.linalg.norm(decayed.w) < np.linalg.norm(plain.w)

    def test_loss_monotone_with_small_lr(self):
        h, y, _, include = _seeded_problem(4)
        h = h / np.abs(h).max()
        w = np.zeros((h.shape[1], y.num_classes))
        losses = []
        cfg = TrainConfig(lr=0.01, epochs=1)
        for _ in range(60):
            losses.append(softmax_cross_entropy(h, y, w, include))
            w = train_linear(h, y, include, cfg, warm_start=w).w
        diffs = np.diff(losses)
        assert diffs.max() <= 1e-12

    def test_lr_decay_epoch_halving(self):
        h, y, _, include = _seeded_problem(6)
        # one epoch past the decay point must move less than one before it
        w0 = np.zeros((h.shape[1], y.num_classes))
        before = train_linear(
            h, y, include, TrainConfig(lr=0.4, epochs=1, lr_decay_epoch=5)
        ).w
        after = train_linear(
            h,
            y,
            include,
            TrainConfig(lr=0.4, epochs=1, lr_decay_epoch=5),
            epoch_offset=5,
        ).w
        assert np.abs(after - w0).max() == pytest.approx(
            np.abs(before - w0).max() / 2.0, rel=1e-12
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_guard(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((8, 2)) * 1e150
        y = _soft(one_hot(rng.integers(0, 2, 8), 2))
        with pytest.raises(NonFiniteLossError, match=r"epoch 1$"):
            train_linear(h, y, np.arange(8), TrainConfig(lr=1e200, epochs=50))


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
        for got, want in zip(softmax_with_log(logits), _softmax_by_row_reductions(logits)):
            assert np.array_equal(got, want)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("c", [1, 2, 3, 5, 7])
    def test_non_finite_rows_match_row_reductions(self, c):
        logits = np.random.default_rng(c).standard_normal((5, c))
        logits[1, c // 2] = np.nan
        logits[2, c - 1] = np.inf
        logits[3] = -np.inf
        logits[4, 0] = -np.inf
        for got, want in zip(softmax_with_log(logits), _softmax_by_row_reductions(logits)):
            assert np.array_equal(got, want, equal_nan=True)


class TestPredict:
    def test_zero_weights_tie_to_class_zero(self, rng):
        h = rng.standard_normal((6, 3))
        pred, probs = predict(h, LinearClassifier(w=np.zeros((3, 4))))
        assert (pred == 0).all()
        assert probs == pytest.approx(np.full((6, 4), 0.25))

    def test_indicator_construction(self):
        h = np.eye(3)
        pred, _ = predict(h, LinearClassifier(w=10.0 * np.eye(3)))
        assert pred.tolist() == [0, 1, 2]

    def test_probs_share_softmax_kernel(self, rng):
        h, y, w, include = _seeded_problem(8)
        _, probs = predict(h, LinearClassifier(w=w))
        kernel_probs, _ = softmax_with_log(h @ w)
        assert np.array_equal(probs, kernel_probs)

    @given(st.integers(0, 500))
    def test_argmax_shift_invariance(self, seed):
        # adding any per-row constant to the logits never moves the argmax
        local = np.random.default_rng(seed)
        h = local.standard_normal((5, 2))
        w = local.standard_normal((2, 3))
        pred1, _ = predict(h, LinearClassifier(w=w))
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
