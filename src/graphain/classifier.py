"""Linear softmax classifier on fixed embeddings.

Training is deterministic full-batch gradient descent on the convex
cross-entropy plus L2 objective.  One kernel, ``loss_and_grad``, gives the
objective and its analytic gradient to both training and evaluation, and the
finite-difference checks in the test suite differentiate that same kernel.

Cost per epoch on n rows, width d and C classes: two GEMMs, ``h @ w`` and
``h.T @ (probs - y)``, at O(n d C) each, plus O(n C) elementwise work in
``softmax_with_log``, whose row max and normaliser are sweeps over the C
class columns; no reduction runs along the class axis.  The loss, kept each
epoch for the finiteness check, is one O(n C) sum.
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
        if self.lr <= 0.0:
            raise ValueError("lr must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be >= 0")


def softmax_with_log(logits: np.ndarray):
    """Row-stabilized softmax; returns (probabilities, log-probabilities).

    Single kernel shared by the loss, the gradient, and prediction.  The row
    max and the normaliser are sweeps over the C class columns, each step one
    elementwise operation on n values: a numpy reduction along the short
    class axis costs far more than its arithmetic.  The columns are added in
    order, as numpy's row sum does below eight classes, so there the result
    equals the row-reduction form bit for bit.
    """
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


def _included(h: np.ndarray, labels: SoftLabelMatrix, include) -> tuple:
    include = np.asarray(include, dtype=np.int64).ravel()
    if include.size == 0:
        raise EmptyIncludeError("empty node subset")
    if labels.masked[include].any():
        raise ValueError("include contains masked label rows")
    return h[include], labels.y[include]


def loss_and_grad(h: np.ndarray, y: np.ndarray, w: np.ndarray, weight_decay: float):
    """Objective and gradient with respect to w over the rows of h and y.

    The objective is the mean soft-label cross-entropy plus
    0.5 * weight_decay * ||w||^2; the loss is returned as a float.
    """
    count = h.shape[0]
    probs, logp = softmax_with_log(h @ w)
    loss = -(y * logp).sum() / count
    grad = h.T @ (probs - y) / count
    if weight_decay:
        loss += 0.5 * weight_decay * float(np.sum(w * w))
        grad = grad + weight_decay * w
    return float(loss), grad


def softmax_cross_entropy(
    h: np.ndarray, labels: SoftLabelMatrix, w: np.ndarray, include
) -> float:
    """Mean soft-label cross-entropy over the included nodes."""
    h_inc, y_inc = _included(h, labels, include)
    return loss_and_grad(h_inc, y_inc, w, 0.0)[0]


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
    for epoch in range(cfg.epochs):
        lr = cfg.lr * (0.5 if epoch + epoch_offset >= cfg.lr_decay_epoch else 1.0)
        loss, grad = loss_and_grad(h_inc, y_inc, w, cfg.weight_decay)
        if not math.isfinite(loss):
            raise NonFiniteLossError(f"loss diverged at epoch {epoch}")
        w = w - lr * grad
    return LinearClassifier(w=w)


def predict(h: np.ndarray, clf: LinearClassifier):
    """Hard labels (argmax, ties to the lower class) and the probability rows."""
    probs, _ = softmax_with_log(h @ clf.w)
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

