"""Bit-for-bit checks of the head and filter kernels against their
straight-line forms.

The ``straight_*`` functions are the kernels as plain expressions, kept
verbatim: the class-major softmax, the loss and gradient with fresh
temporaries in the kernels' operand order (logits ``w.T @ h.T``, gradient
``h.T @ (P - Y).T`` on class-major P and Y), the training loop with the loss
of every epoch computed and checked, which steps by ``w - lr * grad`` or, in
the regime ``train_linear`` proves (``straight_admits``, on the measured
max|w|), by the folded step of the unshifted softmax, ``sym_eig`` as
``np.linalg.eigh`` of its input, symmetrised only past DBL_MAX / 2, and the
filter as b (V diag(g) V^T) on its ascending output, the gain g indexed by
the kept positions.  ``straight_forward_pass`` is the deep forward pass of
every variant written with fresh arrays: ``straight_product`` for the
operator product (``np.matmul`` on ``op.dense`` where ``apply_operator``
takes the dense form, elsewhere the entries of each row added to it one by
one in ascending column order, as scipy's CSR and CSC kernels add them,
onto zero or, for a centred operator, onto the row ``op.shift @ m``, summed
by ``np.einsum``), a skip mix of accumulators
scaled by beta and gamma, the straight filter, and the zero floor on the
centred product (``straight_centred_norm``) of pairnorm's every layer and
rsoft's first.  ``straight_shift`` is
-c / n from the dense form's column sums, added row by row.  The
``row_major_*`` functions are the head's straight forms on (n, C) logits
``h @ w``, as it read before it went class-major; for 2 to 15 columns of h
the kernels still give their bits.  The kernels must
equal the straight forms byte for byte, NaN payloads and the sign of zero
included; no tolerance is used.  The row counts cross numpy's 8- and
128-element blocks of pairwise summation.
"""

import math
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.sparse as sp
from graphain import classifier, graph
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
    RankDeficientError,
    ZeroActivationError,
)
from graphain.curriculum import AuxGraph, aux_transition_matrix
from graphain.graph import (
    OPERATOR_MODES,
    apply_operator,
    build_graph,
    csc_matmul,
    normalized_adjacency,
)
from graphain.labels import SoftLabelMatrix
from graphain.oracles import dense_csc
from graphain.linalg import (
    EPS_RANK,
    SpectralFilterParams,
    soft_spectral_filter,
    sym_eig,
)
from graphain.propagation import VARIANTS, PropagationConfig, run_fuzzy_r_softgraphain
from scipy_csr import scipy_csr


def straight_softmax_with_log(logits):
    top = logits[0].copy()
    for j in range(1, logits.shape[0]):
        np.maximum(top, logits[j], out=top)
    shifted = logits - top
    e = np.exp(shifted)
    z = e[0].copy()
    for j in range(1, e.shape[0]):
        z += e[j]
    return e / z, shifted - np.log(z)


def straight_loss_and_grad(h, y, w, weight_decay):
    count = h.shape[0]
    probs, logp = straight_softmax_with_log(w.T @ h.T)
    loss = -(y * logp.T).sum() / count
    grad = h.T @ (probs - y.T).T / count
    if weight_decay:
        loss += 0.5 * weight_decay * float(np.sum(w * w))
        grad = grad + weight_decay * w
    return float(loss), grad


def straight_admits(h, w, cfg):
    """Whether ``train_linear`` takes the folded step at weights w: the logit
    bound 2 d max|h| max|w| at most 600, the decay term and every step term
    at most 1e300."""
    n, d = h.shape
    c = w.shape[1]
    lr, wd = cfg.lr, cfg.weight_decay
    h_max, w_max = float(np.abs(h).max()), float(np.abs(w).max())
    growth = (1.0 + lr * wd) * (1.0 + 2.0**-40)
    return (
        n * h_max <= 1e300
        and 2.0 * lr * h_max <= 1e300
        and growth <= 1e300
        and 16.0 * n * (600.0 + c) <= 1e300
        and 2.0 * d * h_max * w_max <= 600.0
        and (not wd or max(wd, 1.0) * d * c * w_max * w_max <= 1e300)
        and w_max * growth <= 1e300
    )


def straight_folded_step(h, y, w, cfg):
    """One epoch without the softmax shift, its step folded:
    w (1 - lr wd) - ((lr/n) h_t P^T - (lr/n) h_t Y)."""
    h_t = np.ascontiguousarray(h.T)
    e = np.exp(w.T @ h_t)
    z = e[0].copy()
    for j in range(1, e.shape[0]):
        z += e[j]
    scale = cfg.lr / h.shape[0]
    return w * (1.0 - cfg.lr * cfg.weight_decay) - (scale * (h_t @ (e / z).T) - scale * (h_t @ y))


def straight_train_loop(h_inc, y_inc, w, cfg, step=straight_loss_and_grad):
    for epoch in range(cfg.epochs):
        loss, grad = step(h_inc, y_inc, w, cfg.weight_decay)
        if not math.isfinite(loss):
            raise NonFiniteLossError(f"loss diverged at epoch {epoch}")
        if straight_admits(h_inc, w, cfg):
            w = straight_folded_step(h_inc, y_inc, w, cfg)
        else:
            w = w - cfg.lr * grad
    return w


def row_major_softmax_with_log(logits):
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


def row_major_loss_and_grad(h, y, w, weight_decay):
    count = h.shape[0]
    probs, logp = row_major_softmax_with_log(h @ w)
    loss = -(y * logp).sum() / count + 0.0  # a zero loss is +0.0, not -0.0
    grad = h.T @ (probs - y) / count
    if weight_decay:
        loss += 0.5 * weight_decay * float(np.sum(w * w))
        grad = grad + weight_decay * w
    return float(loss), grad


def straight_sym_eig(s):
    if not np.isfinite(s).all():
        raise NoConvergenceError("matrix has non-finite entries")
    if np.abs(s).max() > HALF_MAX:
        s = 0.5 * (s + s.T)
    try:
        return np.linalg.eigh(s)
    except np.linalg.LinAlgError as err:
        raise NoConvergenceError(f"symmetric eigensolver failed: {err}") from err


def straight_soft_spectral_filter(b, params):
    b = np.asarray(b, dtype=np.float64)
    d = b.shape[1]
    if params.d0 > d:
        raise DimensionMismatchError(f"d0={params.d0} exceeds width {d}")
    if params.a == 0.0:
        return b.copy()

    lam, v = straight_sym_eig(b.T @ b)
    d0 = params.d0
    gain = np.full(d, 1.0 - params.a)
    if params.b == 0.0:
        gain[np.arange(d - d0, d)] += params.a
    else:
        lmax = max(float(lam[-1]), 0.0)
        thr = EPS_RANK * lmax
        kept = d - d0 + np.flatnonzero(lam[d - d0:] > thr)
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
        gain[kept] += params.a * lam[kept] ** (-0.5 * params.b)
    filt = (v * gain) @ v.T
    return b @ filt


def straight_csr_product(a, m, start):
    """start + a @ m, each row's entries added to it one by one in order,
    read from scipy's CSR form of a."""
    a = scipy_csr(a)
    out = np.empty((a.shape[0], m.shape[1]))
    out[...] = start
    counts = np.diff(a.indptr)
    for k in range(int(counts.max(initial=0))):
        rows = np.flatnonzero(counts > k)
        entries = a.indptr[rows] + k
        out[rows] += a.data[entries, None] * m[a.indices[entries]]
    return out


def straight_shift(a):
    """-c / n, the column sums c of a's dense form added row by row."""
    return np.add.reduce(dense_csc(a), axis=0) / -a.shape[0]


def straight_product(op, m):
    if op.dense is not None and m.shape[1] <= graph._DENSE_MAX_WIDTH:
        return np.matmul(op.dense, m)
    start = 0.0 if op.shift is None else np.einsum("i,ij->j", op.shift, m)
    return straight_csr_product(op.matrix, m, start)


def straight_residual_combine(h_t, s_last, s_init, cfg, op):
    if h_t.shape != s_last.shape or h_t.shape != s_init.shape:
        raise DimensionMismatchError("skip-connection terms must share a shape")
    out = None
    if cfg.alpha != 0.0:
        out = straight_product(op, h_t)
        if cfg.alpha != 1.0:
            out = cfg.alpha * out
    for coeff, term in ((cfg.beta, s_last), (cfg.gamma, s_init)):
        if coeff == 0.0:
            continue
        out = term.copy() if out is None else out + term
    return out


def straight_centred_norm(hp, h):
    norm = math.sqrt(np.einsum("ij,ij->", hp, hp))
    floor = h.shape[0] * np.finfo(float).eps * math.sqrt(np.einsum("ij,ij->", h, h))
    if math.isfinite(norm) and (norm < 1e-300 or norm <= floor):
        raise ZeroActivationError("centered activation collapsed to zero")
    return norm


def straight_pairnorm_step(h, op):
    hp = straight_product(op, h)
    return (math.sqrt(h.shape[0]) / straight_centred_norm(hp, h)) * hp


def straight_forward_pass(g, cfg, variant, observe):
    op = normalized_adjacency(g, cfg.operator_mode, centered=variant != "sgc")
    relu = cfg.activation == "relu"
    h = g.features
    s_last = s_init = None
    q_pow = 1.0
    for t in range(1, cfg.layers + 1):
        try:
            if variant == "sgc":
                h = straight_product(op, h)
            elif variant == "pairnorm":
                h = straight_pairnorm_step(h, op)
            else:
                if t == 1:
                    b = straight_product(op, h)
                    straight_centred_norm(b, h)
                else:
                    b = straight_residual_combine(h, s_last, s_init, cfg, op)
                h = straight_soft_spectral_filter(b, cfg.filter)
                if relu:
                    np.maximum(h, 0.0, out=h)
                if t == 1:
                    s_last, s_init = cfg.beta * h, cfg.gamma * h
                else:
                    q_pow *= cfg.q
                    if cfg.beta != 0.0:
                        s_last = cfg.beta * h if cfg.p == 0.0 else cfg.p * s_last + cfg.beta * h
                    if cfg.gamma != 0.0 and q_pow != 0.0:
                        s_init = s_init + (cfg.gamma * q_pow) * h
        except GraphainError as err:
            err.args = (f"layer {t}: {err.args[0] if err.args else ''}",)
            raise
        observe(t, h)
    return h


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
    if isinstance(want, tuple):
        assert len(got) == len(want) and all(map(_same_bits, got, want))
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


def _masked_labels(y, keep):
    """The label matrix of ``y`` with every row outside ``keep`` masked."""
    masked = np.ones(y.shape[0], dtype=bool)
    masked[keep] = False
    return SoftLabelMatrix(y=np.where(masked[:, None], 0.0, y), masked=masked)


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1), ROWS, st.integers(2, 11), st.booleans())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_softmax_matches_the_straight_form(seed, n, c, non_finite):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, c)) * rng.choice(SCALES, size=(n, 1))
    logits = np.ascontiguousarray(rows.T)
    if non_finite:
        cells = rng.integers(0, n * c, size=3)
        logits.flat[cells] = [np.nan, np.inf, -np.inf]
    for got, want in zip(softmax_with_log(logits), straight_softmax_with_log(logits)):
        assert _same_bits(got, want)


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1), ROWS, st.integers(1, 40), st.integers(2, 11))
def test_logits_from_the_transpose_keep_the_product_bits(seed, n, d, c):
    # class_logits reads the C-contiguous (d, n) transpose of h and returns
    # C-contiguous (C, n) logits; they keep the bits of the straight
    # w.T @ h.T and of h @ w written into the transposed output, the form
    # it replaced.
    h, _, w = _problem(seed, n, d, c)
    got = classifier.class_logits(np.ascontiguousarray(h.T), w)
    assert got.flags.c_contiguous
    assert _same_bits(got, w.T @ h.T)
    former = np.empty((c, n))
    np.matmul(h, w, out=former.T)
    assert _same_bits(got, former)


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
)
def test_train_linear_matches_the_straight_update(seed, n, d, c, weight_decay, epochs):
    h, y, w0 = _problem(seed, n, d, c)
    include = np.arange(0, n, 2)
    labels = _masked_labels(y, include)
    cfg = TrainConfig(lr=0.3, epochs=epochs, weight_decay=weight_decay)
    warm = w0.copy()
    got = train_linear(h, labels, cfg, warm_start=warm)
    assert _same_bits(warm, w0)
    want = straight_train_loop(h[include], y[include], w0, cfg)
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


# logit bounds 2 d max|h| max|w| of the folded regime, up to its cap of 600
FOLDED_BOUNDS = st.sampled_from([1e-3, 1.0, 30.0, 590.0])


def _folded(h, w0, lr, epochs, bound):
    """h rescaled so that every one of ``epochs`` steps at ``lr`` from w0 is
    folded: the logit bound from max|w0| and the growth of max|w| over the
    epochs, 2 d max|h| (max|w0| + 2 lr epochs max|h|), stays under ``bound``."""
    d = h.shape[1]
    h_max, w_max = np.abs(h).max(), np.abs(w0).max()
    s = min(bound / (4 * d * h_max * w_max), math.sqrt(bound / (8 * d * lr * epochs)) / h_max)
    return h * s


@settings(max_examples=150)
@given(
    st.integers(0, 2**32 - 1),
    ROWS,
    st.integers(1, 12),
    st.integers(2, 7),
    st.sampled_from([0.0, 5e-4]),
    st.integers(1, 8),
    st.booleans(),
    FOLDED_BOUNDS,
)
def test_train_linear_matches_the_every_loss_loop(
    seed, n, d, c, weight_decay, epochs, warm, bound
):
    # warm starts and random masks; every epoch takes the folded step without
    # computing its loss, which the straight loop computes and checks.  The
    # weights are those of the unmasked rows alone, and no masked row of h is
    # read: NaN there changes no bit and sends no epoch to the loss.
    h, y, w0 = _problem(seed, n, d, c)
    h = _folded(h, w0, 0.3, epochs, bound)
    rng = np.random.default_rng(seed + 1)
    include = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    labels = _masked_labels(y, include)
    poisoned = h.copy()
    poisoned[labels.masked] = np.nan
    cfg = TrainConfig(lr=0.3, epochs=epochs, weight_decay=weight_decay)
    start = w0 if warm else np.zeros((d, c))
    with pytest.MonkeyPatch.context() as patch:
        counter = _CountingLossEpochs(patch)
        got = train_linear(poisoned, labels, cfg, warm_start=w0 if warm else None)
    assert counter.calls == 0
    want = straight_train_loop(h[include], y[include], start, cfg)
    assert _same_bits(got, want)


@settings(max_examples=150)
@given(
    st.integers(0, 2**32 - 1),
    ROWS,
    st.integers(2, 15),
    st.integers(2, 11),
    st.sampled_from([0.0, 5e-4]),
    st.integers(1, 5),
)
def test_class_major_head_keeps_the_row_major_bits(seed, n, d, c, weight_decay, epochs):
    # OpenBLAS rounds the class-major products as it did the row-major ones
    # for 2 <= d <= 15; at d = 1 and d >= 16 it picks another kernel
    h, y, w0 = _problem(seed, n, d, c)
    loss, grad = loss_and_grad(h, y, w0, weight_decay)
    want_loss, want_grad = row_major_loss_and_grad(h, y, w0, weight_decay)
    assert loss.hex() == want_loss.hex()
    assert _same_bits(grad, want_grad)
    include = np.arange(0, n, 2)
    labels = _masked_labels(y, include)
    cfg = TrainConfig(lr=0.3, epochs=epochs, weight_decay=weight_decay)
    got = train_linear(h, labels, cfg, warm_start=w0)
    want = straight_train_loop(h[include], y[include], w0, cfg, row_major_loss_and_grad)
    assert _same_bits(got, want)


@settings(max_examples=100)
@given(
    st.integers(0, 2**32 - 1),
    ROWS,
    st.integers(1, 12),
    st.integers(2, 7),
    st.sampled_from([0.0, 5e-4, 0.3]),
    FOLDED_BOUNDS,
)
def test_gradient_only_epoch_steps_along_loss_and_grad(seed, n, d, c, weight_decay, bound):
    # the finite-difference checks of loss_and_grad's gradient cover training:
    # a folded epoch lands within a few ulps of the step along that gradient,
    # counted on the scale of the step's terms, |w| (1 + lr wd) and
    # (lr/n) |h|^T (P + Y), and growing as the square root of n, as the
    # rounding of the n-term sums in both steps does
    h, y, w0 = _problem(seed, n, d, c)
    h = _folded(h, w0, 0.7, 1, bound)
    labels = SoftLabelMatrix(y=y, masked=np.zeros(n, dtype=bool))
    cfg = TrainConfig(lr=0.7, epochs=1, weight_decay=weight_decay)
    with pytest.MonkeyPatch.context() as patch:
        counter = _CountingLossEpochs(patch)
        got = train_linear(h, labels, cfg, warm_start=w0)
    assert counter.calls == 0
    want = w0 - 0.7 * loss_and_grad(h, y, w0, weight_decay)[1]
    probs = softmax_with_log(w0.T @ h.T)[0]
    terms = np.abs(w0) * (1.0 + 0.7 * weight_decay) + (0.7 / n) * (np.abs(h).T @ (probs.T + y))
    ulps = 4.0 + math.sqrt(n) / 2.0
    assert (np.abs(got - want) <= ulps * np.finfo(np.float64).eps * terms).all()


@settings(max_examples=100)
@given(
    st.integers(0, 2**32 - 1),
    ROWS,
    st.integers(1, 12),
    st.integers(2, 7),
    st.sampled_from([0.0, 5e-4]),
    st.integers(1, 4),
    st.sampled_from([700.0, 1e4, 1e100]),
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_logits_above_the_bound_take_the_loss_path(seed, n, d, c, weight_decay, epochs, top):
    # weights whose largest logit is ``top``, past the bound of 600 on the
    # unshifted e^x, so every epoch computes its loss and steps with the
    # shifted softmax; the small step keeps max|w| above the cap throughout
    h, y, w0 = _problem(seed, n, d, c)
    w0 *= top / np.abs(w0.T @ h.T).max()
    labels = SoftLabelMatrix(y=y, masked=np.zeros(n, dtype=bool))
    cfg = TrainConfig(lr=1e-6, epochs=epochs, weight_decay=weight_decay)
    with pytest.MonkeyPatch.context() as patch:
        counter = _CountingLossEpochs(patch)
        got = train_linear(h, labels, cfg, warm_start=w0)
    assert counter.calls == epochs
    assert np.isfinite(got).all()
    assert _same_bits(got, straight_train_loop(h, y, w0, cfg))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "h_scale, lr, weight_decay",
    [
        # h_t P^T and h_t Y overflow, and their difference is NaN, while the
        # plain gradient's h^T (P - Y) stays finite
        (1e306, 1e-10, 0.0),
        # 1 - lr wd is -inf, and times a zero weight NaN
        (1.0, 1e200, 1e200),
    ],
    ids=["huge-sums", "huge-decay-factor"],
)
def test_step_terms_that_could_overflow_take_the_loss_path(h_scale, lr, weight_decay):
    # the bound admits no epoch whose folded step could overflow, though its
    # logits are small: the epoch computes its loss and steps along the
    # plain gradient, and the last epoch returns finite weights, not NaN
    rng = np.random.default_rng(5)
    h = np.abs(rng.standard_normal((1000, 3))) * h_scale
    y = np.eye(3)[rng.integers(0, 3, 1000)]
    labels = SoftLabelMatrix(y=y, masked=np.zeros(1000, dtype=bool))
    cfg = TrainConfig(lr=lr, epochs=1, weight_decay=weight_decay)
    with pytest.MonkeyPatch.context() as patch:
        counter = _CountingLossEpochs(patch)
        got = train_linear(h, labels, cfg)
    assert counter.calls == 1
    assert np.isfinite(got).all()
    assert _same_bits(got, straight_train_loop(h, y, np.zeros((3, 3)), cfg))


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
        return train_linear(h, labels, cfg, warm_start=warm)

    _same_outcome(train, lambda: straight_train_loop(h, y, start, cfg))
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
        # symmetric in value but not in the sign of a zero, and asymmetric
        # in value: sym_eig passes each on unsymmetrised, so the solver
        # reads its lower triangle, as eigh does
        np.array([[-6.0, 0.0, 2.0], [-0.0, 2.0, -1.0], [2.0, -1.0, -4.0]]),
        np.array([[2.0, 1.0], [1.0 + 2**-50, 1.0]]),
        np.array([[2.0, 1.0], [1.1, 1.0]]),
    ],
)
def test_sym_eig_matches_the_straight_form(s):
    _same_outcome(lambda: sym_eig(s), lambda: straight_sym_eig(s))


def _random_graph(rng, n, features):
    """About four neighbours a node, drawn uniformly."""
    iu, ju = np.triu_indices(n, k=1)
    pick = rng.random(iu.size) < min(1.0, 4.0 / n)
    return build_graph(np.column_stack([iu[pick], ju[pick]]), n, features)


GRAPH_ROWS = st.one_of(st.integers(2, 300), st.sampled_from([7, 8, 9, 127, 128, 129]))
FRACTIONS = st.sampled_from([0.0, 0.5, 1.0])


@settings(max_examples=300)
@given(
    st.integers(0, 2**32 - 1),
    GRAPH_ROWS,
    st.integers(1, 12),
    st.floats(0.0, 1.0),
    st.sampled_from(VARIANTS),
    st.tuples(FRACTIONS, FRACTIONS),
    st.tuples(FRACTIONS, FRACTIONS, FRACTIONS).filter(any),
    st.tuples(FRACTIONS, FRACTIONS),
    st.sampled_from(["identity", "relu"]),
    st.sampled_from(OPERATOR_MODES),
    st.integers(1, 6),
    st.booleans(),
)
def test_forward_pass_matches_the_straight_form(
    seed, n, d, d0_frac, variant, decays, mix, filt, activation, mode, layers, low_rank
):
    # every observed layer, the result and any error; low-rank features
    # leave the filter fewer than d0 channels above the rank cutoff
    rng = np.random.default_rng(seed)
    if low_rank:
        rank = max(1, d // 2)
        x = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
    else:
        x = rng.standard_normal((n, d)) * rng.choice(SCALES, size=(n, 1))
    g = _random_graph(rng, n, x)
    cfg = PropagationConfig(
        *mix,
        filter=SpectralFilterParams(*filt, d0=max(1, round(d0_frac * d))),
        layers=layers,
        p=decays[0],
        q=decays[1],
        activation=activation,
        operator_mode=mode,
    )
    got, want = [], []
    _same_outcome(
        lambda: run_fuzzy_r_softgraphain(
            g, cfg, variant=variant, observe=lambda t, h: got.append(h)
        ),
        lambda: straight_forward_pass(g, cfg, variant, lambda t, h: want.append(h)),
    )
    assert len(got) == len(want)
    for got_h, want_h in zip(got, want):
        assert _same_bits(got_h, want_h)


@settings(max_examples=200)
@given(
    st.integers(0, 2**32 - 1),
    GRAPH_ROWS,
    st.integers(1, 12),
    st.sampled_from(OPERATOR_MODES),
    st.sampled_from(["C", "F", "strided"]),
    st.booleans(),
    st.booleans(),
)
def test_apply_operator_matches_scipy(seed, n, k, mode, layout, centered, complete):
    # csc_matmul calls scipy's private CSC kernel, which must give the bits
    # of scipy's CSR kernel on the same matrix, rows of up to 300 entries
    # (complete graphs) included; a scipy whose kernels, their rounding or
    # call convention change must fail here.  apply_operator gives its bits
    # on the plain operator and adds the same terms row by row onto the row
    # op.shift @ m on the centred one, or gives the dense GEMM's where the
    # operator is kept dense (n <= 80 here, and complete graphs).
    rng = np.random.default_rng(seed)
    if complete:
        g = build_graph(np.column_stack(np.triu_indices(n, k=1)), n, np.zeros((n, 1)))
    else:
        g = _random_graph(rng, n, np.zeros((n, 1)))
    op = normalized_adjacency(g, mode, centered)
    m = rng.standard_normal((n, 2 * k)) * rng.choice(SCALES, size=(n, 1))
    m = m[:, ::2] if layout == "strided" else np.asarray(m[:, :k], order=layout)
    want = scipy_csr(op.matrix) @ m
    assert _same_bits(csc_matmul(op.matrix, m), want)
    assert _same_bits(straight_csr_product(op.matrix, m, 0.0), want)
    if centered:
        assert _same_bits(op.shift, straight_shift(op.matrix))
    if op.dense is not None:
        plain = dense_csc(op.matrix)
        assert _same_bits(op.dense, plain + op.shift if centered else plain)
    for call, want in ((partial(csc_matmul, op.matrix), want),
                       (partial(apply_operator, op), straight_product(op, m))):
        out = np.full((n, k), np.nan)
        assert call(m, out) is out
        assert _same_bits(out, want)
        assert _same_bits(call(m), want)


def straight_normalized_adjacency(g, mode):
    """The operator's COO triples, converted to CSC by scipy."""
    n = g.n
    i, j = g.edges[:, 0], g.edges[:, 1]
    rows = np.concatenate([i, j, np.arange(n, dtype=np.int64)])
    cols = np.concatenate([j, i, np.arange(n, dtype=np.int64)])
    degrees = np.ones(n, dtype=np.float64)
    np.add.at(degrees, i, 1.0)
    np.add.at(degrees, j, 1.0)
    if mode == "symmetric":
        inv_sqrt_deg = 1.0 / np.sqrt(degrees)
        vals = inv_sqrt_deg[rows] * inv_sqrt_deg[cols]
    else:
        vals = 1.0 / degrees[rows]
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()


def straight_aux_transition_matrix(aux):
    """The transition matrix's COO triples, converted to CSC by scipy."""
    pos = aux.weights > 0.0
    i, j, w = aux.edges[pos, 0], aux.edges[pos, 1], aux.weights[pos]
    deg = np.zeros(aux.n)
    np.add.at(deg, i, w)
    np.add.at(deg, j, w)
    orphan = np.flatnonzero(deg == 0.0)
    rows = np.concatenate([i, j, orphan])
    cols = np.concatenate([j, i, orphan])
    deg_safe = np.where(deg > 0.0, deg, 1.0)
    vals = np.concatenate([w, w, np.ones(orphan.size)]) / deg_safe[rows]
    return sp.coo_matrix((vals, (rows, cols)), shape=(aux.n, aux.n)).tocsc()


def _same_csc(got, want):
    """The three arrays of two CSC matrices agree in dtype and bytes."""
    return got.shape == want.shape and all(
        _same_bits(getattr(got, name), getattr(want, name))
        for name in ("indptr", "indices", "data")
    )


# n = 1, no edges, isolated nodes, about four neighbours a node, complete
SPARSE_GRAPHS = st.tuples(
    st.integers(0, 2**32 - 1),
    st.one_of(st.just(1), st.integers(2, 200)),
    st.sampled_from([0.0, 0.5, 4.0, None]),
)


def _graph(seed, n, degree):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    pick = rng.random(iu.size) < (1.0 if degree is None else min(1.0, degree / n))
    return build_graph(np.column_stack([iu[pick], ju[pick]]), n, np.zeros((n, 1))), rng


@settings(max_examples=200)
@given(SPARSE_GRAPHS, st.sampled_from(OPERATOR_MODES))
def test_normalized_adjacency_matches_scipy_csc(graph, mode):
    g, _ = _graph(*graph)
    got = normalized_adjacency(g, mode).matrix
    assert got.indices.dtype == np.int32
    want = straight_normalized_adjacency(g, mode)
    assert _same_csc(got, want)
    if mode == "symmetric":
        # Â is symmetric, so its CSC arrays are its CSR arrays
        assert _same_csc(got, want.tocsr())


@settings(max_examples=200)
@given(SPARSE_GRAPHS, st.sampled_from([0.0, 0.5, 1.0]))
def test_aux_transition_matrix_matches_scipy_csc(graph, zero_share):
    # zero-weight edges are dropped, and a node left with none keeps a
    # self-loop row; the smoothing product on it has the bits of scipy's
    # CSR kernel, and its dense form is scipy's too
    g, rng = _graph(*graph)
    weights = rng.uniform(0.1, 2.0, size=g.num_edges) * rng.choice(SCALES, size=g.num_edges)
    weights[rng.random(g.num_edges) < zero_share] = 0.0
    aux = AuxGraph(n=g.n, edges=g.edges, weights=weights)
    got, want = aux_transition_matrix(aux), straight_aux_transition_matrix(aux)
    assert got.indices.dtype == np.int32
    assert _same_csc(got, want)
    y = rng.dirichlet(np.ones(3), size=g.n)
    assert _same_bits(csc_matmul(got, y), want.tocsr() @ y)
    assert _same_bits(dense_csc(got), want.toarray())
