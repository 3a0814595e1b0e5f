"""Linear softmax classifier on fixed embeddings.

Training is deterministic full-batch gradient descent on the convex
cross-entropy plus L2 objective.  One kernel, ``loss_and_grad``, gives the
objective and its analytic gradient to evaluation and to any training epoch
that needs its loss, and the finite-difference checks in the test suite
differentiate that same kernel.  Its gradient and the probabilities come from
``_gradient`` and ``_softmax``, which the other epochs and ``predict`` share.

Cost per epoch on n rows, width d and C classes: two GEMMs, ``h @ w`` and
``h.T @ (probs - y)``, at O(n d C) each, plus O(n C) elementwise work in
``_softmax``, whose row max and normaliser are sweeps over the C class
columns; no reduction runs along the class axis.  The loss only feeds the
check that it is finite, so an epoch skips it, and its log-softmax, whenever
a bound from ``max|h|`` and ``max|w|`` proves it finite (``train_linear``);
the first epoch with a non-finite loss is still the one reported.  At a run's
sizes (d = 8, C = 3, tens to thousands of rows) such an epoch is about twenty
numpy calls, and their call overhead, not their arithmetic, sets its cost: so
the kernels work in place on the arrays they own, broadcast nothing along the
class axis and call ``np.add.reduce`` without the ``sum`` wrappers.  Each
operation keeps the operands and the order of the plain expression it
replaces, so every output bit is unchanged (``tests/test_kernel_bits.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyIncludeError,
    NonFiniteLossError,
)
from .labels import SoftLabelMatrix


@dataclass(frozen=True)
class LinearClassifier:
    """Projection from embeddings to class logits."""

    w: np.ndarray  # (d, C)


@dataclass(frozen=True)
class TrainConfig:
    lr: float
    epochs: int
    weight_decay: float = 0.0
    lr_decay_epoch: int = 10**9  # halve the lr once this epoch is reached

    def __post_init__(self):
        if not math.isfinite(self.lr):
            raise ValueError(f"lr must be finite, got {self.lr}")
        if self.lr <= 0.0:
            raise ValueError("lr must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not math.isfinite(self.weight_decay):
            raise ValueError(f"weight_decay must be finite, got {self.weight_decay}")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be >= 0")


def _fold_columns(op, m: np.ndarray) -> np.ndarray:
    """op(...op(op(m[:, 0], m[:, 1]), m[:, 2])..., m[:, -1]) as a new array."""
    if m.shape[1] == 1:
        return m[:, 0].copy()
    out = op(m[:, 0], m[:, 1])
    for j in range(2, m.shape[1]):
        op(out, m[:, j], out=out)
    return out


def _softmax(logits: np.ndarray, out: np.ndarray | None):
    """Row-stabilized softmax; returns (probabilities, shifted logits, normaliser).

    The one softmax kernel: the loss, the gradient and prediction all reach it.
    The row max and the normaliser are sweeps over the C class columns, each
    step one elementwise operation on n values: a numpy reduction along the
    short class axis costs far more than its arithmetic.  The columns are
    added in order, as numpy's row sum does below eight classes, so there the
    result equals the row-reduction form bit for bit.  The row max and the
    normaliser are repeated across the C columns before they meet the n x C
    arrays: broadcasting a column runs numpy's inner loop C elements at a time.

    The shifted logits and their exponentials go to ``out``: new arrays when it
    is None, or ``logits`` itself, which then ends up holding the probabilities
    (the shifted logits returned are the same array).
    """
    n, c = logits.shape
    top = _fold_columns(np.maximum, logits)
    shifted = np.subtract(logits, top.repeat(c).reshape(n, c), out=out)
    e = np.exp(shifted, out=out)
    z = _fold_columns(np.add, e)
    e /= z.repeat(c).reshape(n, c)
    return e, shifted, z


def softmax_with_log(logits: np.ndarray):
    """Row-stabilized softmax; returns (probabilities, log-probabilities)."""
    n, c = logits.shape
    probs, logp, z = _softmax(logits, None)
    logp -= np.log(z).repeat(c).reshape(n, c)
    return probs, logp


def _included(h: np.ndarray, labels: SoftLabelMatrix, include) -> tuple:
    include = np.asarray(include, dtype=np.int64).ravel()
    if include.size == 0:
        raise EmptyIncludeError("empty node subset")
    if labels.masked[include].any():
        raise ValueError("include contains masked label rows")
    return h[include], labels.y[include]


def _gradient(h: np.ndarray, y: np.ndarray, w: np.ndarray, weight_decay: float, probs):
    """Gradient of the objective from the softmax probabilities of h @ w,
    which it overwrites with probs - y."""
    probs -= y
    grad = h.T @ probs
    grad /= h.shape[0]
    if weight_decay:
        grad += weight_decay * w
    return grad


def loss_and_grad(h: np.ndarray, y: np.ndarray, w: np.ndarray, weight_decay: float):
    """Objective and gradient with respect to w over the rows of h and y.

    The objective is the mean soft-label cross-entropy plus
    0.5 * weight_decay * ||w||^2; the loss is returned as a float.
    """
    probs, logp = softmax_with_log(h @ w)
    logp *= y
    loss = -np.add.reduce(logp, axis=None) / h.shape[0]
    if weight_decay:
        loss += 0.5 * weight_decay * float(np.add.reduce(w * w, axis=None))
    return float(loss), _gradient(h, y, w, weight_decay, probs)


def softmax_cross_entropy(
    h: np.ndarray, labels: SoftLabelMatrix, w: np.ndarray, include
) -> float:
    """Mean soft-label cross-entropy over the included nodes."""
    h_inc, y_inc = _included(h, labels, include)
    return loss_and_grad(h_inc, y_inc, w, 0.0)[0]


# Bound on the terms of a loss that the finiteness proof admits, far below the
# largest double (about 1.8e308), so that rounding in the proof cannot matter.
_LOSS_LIMIT = 1e300


def train_linear(
    h: np.ndarray,
    labels: SoftLabelMatrix,
    include,
    cfg: TrainConfig,
    warm_start: np.ndarray | None = None,
    epoch_offset: int = 0,
) -> LinearClassifier:
    """Full-batch gradient descent with weight decay and a single lr halving.

    ``epoch_offset`` lets a curriculum thread one lr schedule through several
    consecutive training calls.

    An epoch whose loss is proved finite skips the loss and computes the
    gradient alone; any other epoch computes the loss and raises
    ``NonFiniteLossError`` if it is not finite, so the first such epoch is
    the one the plain loop would report.  The proof: the rows of y are
    nonnegative and sum to 1 (within 1e-9), and a computed logit is at most
    K = 2 d max|h| max|w| in magnitude (the 2 covers the rounding of d
    terms).  A log-probability is then at most 2K + C in magnitude, with
    rounding, so the summed loss term is at most 16 count (K + C); the decay
    term sums w * w, at most 2 d C max|w|^2, times 0.5 weight_decay.  When
    both bounds, the second scaled by max(weight_decay, 1), are at most 1e300
    the loss is finite.  A NaN or infinite bound fails the test, so a NaN or
    an infinity in h or w always sends the epoch to the loss.
    """
    d = h.shape[1]
    num_classes = labels.y.shape[1]
    if warm_start is not None:
        w = np.array(warm_start, dtype=np.float64, copy=True)
        if w.shape != (d, num_classes):
            raise DimensionMismatchError("warm start shape mismatch")
    else:
        w = np.zeros((d, num_classes))
    if cfg.epochs == 0:
        return LinearClassifier(w=w)

    h_inc, y_inc = _included(h, labels, include)
    count = h_inc.shape[0]
    wd = cfg.weight_decay
    # the two bounds are logit_scale * max|w| + label_term and decay_scale * max|w|^2
    logit_scale = 32.0 * count * d * float(np.abs(h_inc).max())
    label_term = 16.0 * count * num_classes
    decay_scale = max(wd, 1.0) * d * num_classes if wd else 0.0
    for epoch in range(cfg.epochs):
        lr = cfg.lr * (0.5 if epoch + epoch_offset >= cfg.lr_decay_epoch else 1.0)
        w_max = float(np.abs(w).max())
        if (
            logit_scale * w_max + label_term <= _LOSS_LIMIT
            and decay_scale * w_max * w_max <= _LOSS_LIMIT
        ):
            logits = h_inc @ w
            grad = _gradient(h_inc, y_inc, w, wd, _softmax(logits, logits)[0])
        else:
            loss, grad = loss_and_grad(h_inc, y_inc, w, wd)
            if not math.isfinite(loss):
                raise NonFiniteLossError(f"loss diverged at epoch {epoch}")
        grad *= lr
        w -= grad
    return LinearClassifier(w=w)


def predict(h: np.ndarray, clf: LinearClassifier):
    """Hard labels (argmax, ties to the lower class) and the probability rows."""
    logits = h @ clf.w
    probs = _softmax(logits, logits)[0]
    return probs.argmax(axis=1), probs


def accuracy(pred: np.ndarray, truth: np.ndarray, subset=None) -> float:
    """Fraction of correct hard labels, optionally restricted to a subset."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if subset is not None:
        subset = np.asarray(subset, dtype=np.int64)
        pred = pred[subset]
        truth = truth[subset]
    if pred.size == 0:
        return float("nan")
    return float((pred == truth).mean())


def make_reducer(f: int, d: int, seed: int) -> np.ndarray:
    """Fixed seeded projection from feature width f to working width d.

    Orthonormal columns via QR when f >= d, a scaled Gaussian otherwise.
    """
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((f, d))
    if f >= d:
        q, r = np.linalg.qr(gauss)
        signs = np.sign(np.diag(r))
        signs[signs == 0.0] = 1.0
        return q * signs
    return gauss / math.sqrt(f)

