"""Bit-for-bit checks of the head and filter kernels against their
straight-line forms.

The ``straight_*`` functions are the kernels as they read before their
broadcasts, temporaries and wrappers were cut, kept verbatim: the softmax with
its column broadcasts, the loss and gradient with fresh temporaries, the
``w = w - lr * grad`` update, and ``sym_eig`` and the filter with an
unconditional symmetrisation, a contiguous copy of the eigenvectors and a
fancy-indexed diagonal.  The ``every_loss_*`` functions are the in-place
training loop as it read while every epoch computed its loss, kept verbatim.
The kernels must equal them byte for byte, NaN payloads and the sign of zero
included; no tolerance is used.  The row counts cross numpy's 8- and
128-element blocks of pairwise summation.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphain import classifier
from graphain.classifier import (
    TrainConfig,
    loss_and_grad,
    softmax_with_log,
    train_linear,
)
from graphain.errors import (
    DimensionMismatchError,
    GraphainError,
    NoConvergenceError,
    NonFiniteLossError,
    NotSymmetricError,
    RankDeficientError,
)
from graphain.labels import SoftLabelMatrix
from graphain.linalg import EigPair, SpectralFilterParams, soft_spectral_filter, sym_eig


def straight_softmax_with_log(logits):
    top = logits[:, 0].copy()
    for j in range(1, logits.shape[1]):
        np.maximum(top, logits[:, j], out=top)
    shifted = logits - top[:, None]
    e = np.exp(shifted)
    z = e[:, 0].copy()
    for j in range(1, e.shape[1]):
        z += e[:, j]
    z = z[:, None]
    return e / z, shifted - np.log(z)


def straight_loss_and_grad(h, y, w, weight_decay):
    count = h.shape[0]
    probs, logp = straight_softmax_with_log(h @ w)
    loss = -(y * logp).sum() / count
    grad = h.T @ (probs - y) / count
    if weight_decay:
        loss += 0.5 * weight_decay * float(np.sum(w * w))
        grad = grad + weight_decay * w
    return float(loss), grad


def straight_train_loop(h_inc, y_inc, w, cfg, epoch_offset=0):
    for epoch in range(cfg.epochs):
        lr = cfg.lr * (0.5 if epoch + epoch_offset >= cfg.lr_decay_epoch else 1.0)
        loss, grad = straight_loss_and_grad(h_inc, y_inc, w, cfg.weight_decay)
        if not math.isfinite(loss):
            raise NonFiniteLossError(f"loss diverged at epoch {epoch}")
        w = w - lr * grad
    return w


def every_loss_softmax_with_log(logits):
    n, c = logits.shape
    top = logits[:, 0].copy()
    for j in range(1, c):
        np.maximum(top, logits[:, j], out=top)
    shifted = logits - top.repeat(c).reshape(n, c)
    e = np.exp(shifted)
    z = e[:, 0].copy()
    for j in range(1, c):
        z += e[:, j]
    shifted -= np.log(z).repeat(c).reshape(n, c)
    e /= z.repeat(c).reshape(n, c)
    return e, shifted


def every_loss_loss_and_grad(h, y, w, weight_decay):
    count = h.shape[0]
    probs, logp = every_loss_softmax_with_log(h @ w)
    logp *= y
    loss = -np.add.reduce(logp, axis=None) / count
    probs -= y
    grad = h.T @ probs
    grad /= count
    if weight_decay:
        loss += 0.5 * weight_decay * float(np.add.reduce(w * w, axis=None))
        grad += weight_decay * w
    return float(loss), grad


def every_loss_train_loop(h_inc, y_inc, w, cfg, epoch_offset=0):
    w = np.array(w, dtype=np.float64, copy=True)
    for epoch in range(cfg.epochs):
        lr = cfg.lr * (0.5 if epoch + epoch_offset >= cfg.lr_decay_epoch else 1.0)
        loss, grad = every_loss_loss_and_grad(h_inc, y_inc, w, cfg.weight_decay)
        if not math.isfinite(loss):
            raise NonFiniteLossError(f"loss diverged at epoch {epoch}")
        grad *= lr
        w -= grad
    return w


def straight_sym_eig(s):
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionMismatchError("sym_eig needs a square matrix")
    if not np.isfinite(s).all():
        raise NoConvergenceError("matrix has non-finite entries")
    scale = float(np.abs(s).max()) if s.size else 0.0
    if scale > 0.0:
        skew = float(np.abs(s - s.T).max())
        if skew > 1e-10 * scale:
            raise NotSymmetricError(
                f"asymmetry {skew:.3e} exceeds 1e-10 relative to {scale:.3e}"
            )
    try:
        lam, v = np.linalg.eigh(0.5 * (s + s.T))
    except np.linalg.LinAlgError as err:
        raise NoConvergenceError(f"symmetric eigensolver failed: {err}") from err
    return EigPair(u=np.ascontiguousarray(v[:, ::-1]), values=lam[::-1])


def straight_soft_spectral_filter(b, params):
    b = np.asarray(b, dtype=np.float64)
    d = b.shape[1]
    if params.d0 > d:
        raise DimensionMismatchError(f"d0={params.d0} exceeds width {d}")
    if params.a == 0.0:
        return b.copy()

    pair = straight_sym_eig(b.T @ b)
    lam = pair.values
    d0 = params.d0
    if params.b == 0.0:
        kept = np.arange(d0)
        scale = np.ones(d0)
    else:
        lmax = max(float(lam[0]), 0.0)
        thr = params.eps_rank * lmax
        kept = np.flatnonzero(lam[:d0] > thr)
        if kept.size == 0:
            raise RankDeficientError(
                "all eigenchannels underflow the rank cutoff; "
                "input is degenerate (reduce width or lower a)"
            )
        if params.a == 1.0 and params.b == 1.0 and kept.size < d0:
            raise RankDeficientError(
                f"hard whitening keeps {kept.size} of {d0} eigenchannels above "
                "the rank cutoff; the output would not be orthonormal"
            )
        scale = lam[kept] ** (-0.5 * params.b)
    uk = pair.u[:, kept]
    filt = params.a * ((uk * scale) @ uk.T)
    filt[np.diag_indices(d)] += 1.0 - params.a
    return b @ filt


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (
        got.shape == want.shape
        and got.dtype == want.dtype
        and got.tobytes() == want.tobytes()
    )


def _same_outcome(call, straight):
    """Both calls return the same bits, or raise the same error and message."""
    try:
        want = straight()
    except GraphainError as err:
        with pytest.raises(type(err)) as caught:
            call()
        assert str(caught.value) == str(err)
        return
    got = call()
    if isinstance(want, EigPair):
        assert _same_bits(got.u, want.u) and _same_bits(got.values, want.values)
    else:
        assert _same_bits(got, want)


BLOCK_EDGES = [7, 8, 9, 127, 128, 129, 1023, 1024, 1025]
ROWS = st.one_of(st.integers(1, 4000), st.sampled_from(BLOCK_EDGES))
SCALES = [1e-3, 1.0, 30.0, 700.0]


def _problem(seed, n, d, c):
    """Rows h of mixed scale, soft or one-hot labels y, weights w."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, d)) * rng.choice(SCALES, size=(n, 1))
    if seed % 2:
        y = rng.dirichlet(np.ones(c), size=n)
    else:
        y = np.eye(c)[rng.integers(0, c, n)]
    return h, y, rng.standard_normal((d, c))


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1), ROWS, st.integers(2, 11), st.booleans())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_softmax_matches_the_straight_form(seed, n, c, non_finite):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((n, c)) * rng.choice(SCALES, size=(n, 1))
    if non_finite:
        cells = rng.integers(0, n * c, size=3)
        logits.flat[cells] = [np.nan, np.inf, -np.inf]
    for got, want in zip(softmax_with_log(logits), straight_softmax_with_log(logits)):
        assert _same_bits(got, want)


@settings(max_examples=300)
@given(
    st.integers(0, 2**32 - 1),
    ROWS,
    st.integers(1, 40),
    st.integers(2, 11),
    st.sampled_from([0.0, 5e-4]),
)
def test_loss_and_grad_match_the_straight_form(seed, n, d, c, weight_decay):
    h, y, w = _problem(seed, n, d, c)
    loss, grad = loss_and_grad(h, y, w, weight_decay)
    want_loss, want_grad = straight_loss_and_grad(h, y, w, weight_decay)
    assert loss.hex() == want_loss.hex()
    assert _same_bits(grad, want_grad)


@settings(max_examples=150)
@given(
    st.integers(0, 2**32 - 1),
    ROWS,
    st.integers(1, 40),
    st.integers(2, 11),
    st.sampled_from([0.0, 5e-4]),
    st.integers(1, 5),
    st.integers(0, 6),
)
def test_train_linear_matches_the_straight_update(
    seed, n, d, c, weight_decay, epochs, decay
):
    h, y, w0 = _problem(seed, n, d, c)
    labels = SoftLabelMatrix(y=y, masked=np.zeros(n, dtype=bool))
    include = np.arange(0, n, 2)
    cfg = TrainConfig(
        lr=0.3, epochs=epochs, weight_decay=weight_decay, lr_decay_epoch=decay
    )
    warm = w0.copy()
    got = train_linear(h, labels, include, cfg, warm_start=warm, epoch_offset=1).w
    assert _same_bits(warm, w0)
    want = straight_train_loop(h[include], y[include], w0, cfg, epoch_offset=1)
    assert _same_bits(got, want)


class _CountingLossEpochs:
    """Counts the epochs of ``train_linear`` that compute their loss."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = classifier.loss_and_grad

        def counting(*args):
            self.calls += 1
            return real(*args)

        monkeypatch.setattr(classifier, "loss_and_grad", counting)


@settings(max_examples=150)
@given(
    st.integers(0, 2**32 - 1),
    ROWS,
    st.integers(1, 12),
    st.integers(2, 7),
    st.sampled_from([0.0, 5e-4]),
    st.integers(1, 8),
    st.integers(0, 9),
    st.booleans(),
)
def test_train_linear_matches_the_every_loss_loop(
    seed, n, d, c, weight_decay, epochs, decay, warm
):
    # warm starts, include subsets in any order with repeats, and an lr halving
    # that may fall inside the call; every epoch takes the gradient-only path
    h, y, w0 = _problem(seed, n, d, c)
    labels = SoftLabelMatrix(y=y, masked=np.zeros(n, dtype=bool))
    rng = np.random.default_rng(seed + 1)
    include = rng.integers(0, n, size=int(rng.integers(1, n + 1)))
    cfg = TrainConfig(lr=0.3, epochs=epochs, weight_decay=weight_decay, lr_decay_epoch=decay)
    start = w0 if warm else np.zeros((d, c))
    with pytest.MonkeyPatch.context() as patch:
        counter = _CountingLossEpochs(patch)
        got = train_linear(
            h, labels, include, cfg, warm_start=w0 if warm else None, epoch_offset=2
        ).w
    assert counter.calls == 0
    want = every_loss_train_loop(h[include], y[include], start, cfg, epoch_offset=2)
    assert _same_bits(got, want)


@settings(max_examples=100)
@given(
    st.integers(0, 2**32 - 1),
    ROWS,
    st.integers(1, 12),
    st.integers(2, 7),
    st.sampled_from([0.0, 5e-4]),
)
def test_gradient_only_epoch_steps_along_loss_and_grad(seed, n, d, c, weight_decay):
    # the finite-difference checks of loss_and_grad's gradient cover training
    h, y, w0 = _problem(seed, n, d, c)
    labels = SoftLabelMatrix(y=y, masked=np.zeros(n, dtype=bool))
    cfg = TrainConfig(lr=0.7, epochs=1, weight_decay=weight_decay)
    with pytest.MonkeyPatch.context() as patch:
        counter = _CountingLossEpochs(patch)
        got = train_linear(h, labels, np.arange(n), cfg, warm_start=w0).w
    assert counter.calls == 0
    assert _same_bits(got, w0 - 0.7 * loss_and_grad(h, y, w0, weight_decay)[1])


EDGE_CASES = {
    # h scale, warm-start scale, a bad entry of h, lr, weight decay, epochs,
    # and the epoch whose loss is not finite
    "nan-in-h": (1.0, None, np.nan, 0.5, 5e-4, 5, 0),
    "inf-in-h-zero-start": (1.0, None, np.inf, 0.5, 0.0, 5, 0),
    "inf-in-h-warm": (1.0, 1.0, -np.inf, 0.5, 5e-4, 5, 0),
    "tiny-h-huge-warm-decay": (1e-300, 1e300, None, 0.5, 5e-4, 5, 0),
    "tiny-h-huge-warm-no-decay": (1e-300, 1e300, None, 0.5, 0.0, 5, None),
    "tiny-h-tiny-decay-huge-warm": (1e-300, 1e200, None, 0.5, 1e-300, 5, 0),
    "tiny-h-huge-decay": (1e-300, 1.0, None, 0.5, 1e300, 5, 1),
    "huge-h-huge-lr": (1e150, None, None, 1e200, 0.0, 5, 1),
    "huge-h-zero-start": (1e300, None, None, 1e-10, 0.0, 3, 1),
    "huge-h-decay": (1e100, None, None, 1e95, 5e-4, 6, 1),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", list(EDGE_CASES))
def test_bound_edge_cases_match_the_every_loss_loop(case):
    h_scale, warm_scale, bad, lr, weight_decay, epochs, bad_epoch = EDGE_CASES[case]
    rng = np.random.default_rng(11)
    h = rng.standard_normal((12, 3)) * h_scale
    if bad is not None:
        h[5, 1] = bad
    y = rng.dirichlet(np.ones(3), size=12)
    labels = SoftLabelMatrix(y=y, masked=np.zeros(12, dtype=bool))
    warm = None if warm_scale is None else rng.standard_normal((3, 3)) * warm_scale
    cfg = TrainConfig(lr=lr, epochs=epochs, weight_decay=weight_decay)
    start = np.zeros((3, 3)) if warm is None else warm

    def train():
        return train_linear(h, labels, np.arange(12), cfg, warm_start=warm).w

    _same_outcome(train, lambda: every_loss_train_loop(h, y, start, cfg))
    if bad_epoch is None:
        assert np.isfinite(train()).all()
    else:
        with pytest.raises(NonFiniteLossError, match=f"epoch {bad_epoch}$"):
            train()


@settings(max_examples=300)
@given(
    st.integers(0, 2**32 - 1),
    ROWS,
    st.integers(1, 40),
    st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.floats(0.0, 1.0),
    st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_filter_matches_the_straight_form(seed, n, d, a, bexp, d0_frac, scale):
    b = np.random.default_rng(seed).standard_normal((n, d)) * scale
    b -= b.mean(axis=0)
    params = SpectralFilterParams(a=a, b=bexp, d0=max(1, round(d0_frac * d)))
    _same_outcome(
        lambda: soft_spectral_filter(b, params),
        lambda: straight_soft_spectral_filter(b, params),
    )


HALF_MAX = sys.float_info.max / 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "s",
    [
        # exactly symmetric with entries above DBL_MAX / 2: s + s^T overflows
        np.array([[1.5 * HALF_MAX, 1.0], [1.0, 2.0]]),
        np.array([[1.0, -1.9 * HALF_MAX], [-1.9 * HALF_MAX, 3.0]]),
        np.full((3, 3), 1.2 * HALF_MAX),
        np.diag([1.1 * HALF_MAX, -1.7 * HALF_MAX]),
        # at DBL_MAX / 2 the sum is still finite
        np.array([[HALF_MAX, 0.5], [0.5, -HALF_MAX]]),
        # symmetric in value but not in the sign of a zero, which moves
        # eigh's eigenvectors: it must be symmetrised as well
        np.array([[-6.0, 0.0, 2.0], [-0.0, 2.0, -1.0], [2.0, -1.0, -4.0]]),
        # asymmetric within the tolerance, and beyond it
        np.array([[2.0, 1.0], [1.0 + 2**-50, 1.0]]),
        np.array([[2.0, 1.0], [1.1, 1.0]]),
    ],
)
def test_sym_eig_matches_the_straight_form(s):
    _same_outcome(lambda: sym_eig(s), lambda: straight_sym_eig(s))
