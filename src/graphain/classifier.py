"""Linear softmax head on fixed embeddings: one (d, C) weight array.

Training is deterministic full-batch gradient descent on the convex
cross-entropy plus L2 objective.  One kernel, ``loss_and_grad``, gives the
objective and its analytic gradient to any epoch that needs its loss; the
finite-difference checks in the test suite differentiate it.  Its gradient,
probabilities and loss come from ``_gradient``, ``_softmax`` and
``cross_entropy``, which the other epochs and scoring share.

``train_linear`` fits the unmasked rows of its ``SoftLabelMatrix`` and no
others: a curriculum task's rows are those its snapshot leaves unmasked, and
the fine-tune's truth matrix is unmasked exactly on the train mask.  A label
matrix with no unmasked row raises ``EmptyIncludeError``.

The head works class-major: ``class_logits`` writes the logits h @ w into a
C-contiguous (C, n) array, one row of n values per class, from the
C-contiguous (d, n) transpose of h, and the softmax and the gradient
``h.T @ (P - Y).T`` take that layout; ``train_linear`` runs every epoch in
one such buffer, against its rows of h and its labels transposed once per
call.
An epoch costs two GEMMs at O(n d C) each plus O(n C) elementwise work.  The
loss only feeds the check that it is finite, so an epoch skips it, and its
log-softmax, whenever a bound from ``max|h|`` and ``max|w|`` proves it finite
(``train_linear``); the first epoch with a non-finite loss is still the one
reported.  At a run's sizes (d = 8, C = 3, tens to thousands of rows) such an
epoch is 2C + 9 numpy calls with weight decay, 15 at C = 3, and their call
overhead, not their arithmetic, sets its cost: so ``train_linear`` allocates
the epoch's arrays once per call, the views of the class rows included, and
``_softmax`` and ``_gradient`` work in those buffers, so an epoch allocates
no array data; the kernels call ``np.add.reduce`` without the ``sum``
wrappers.  A loss is summed over the (n, C) rows, in the order the split
scores sum it.

Each operation keeps the operands and the order of the plain class-major
expression it replaces, so every output bit is that expression's
(``tests/test_kernel_bits.py``).  Against the row-major head this layout
replaced (logits ``h @ w``, gradient ``h.T @ (P - Y)``), OpenBLAS rounds the
products alike for 2 <= d <= 15, the width of every shipped config; it picks
other kernels for the logits at d >= 16 and for the gradient at d = 1, where
no weight of a sweep of 300-epoch fits moved by more than 9e-16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EmptyIncludeError, NonFiniteLossError
from .labels import SoftLabelMatrix


@dataclass(frozen=True)
class TrainConfig:
    lr: float
    epochs: int
    weight_decay: float = 0.0

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


def _fold_rows(
    op, rows: tuple[np.ndarray, ...], out: np.ndarray | None = None
) -> np.ndarray:
    """op(...op(op(rows[0], rows[1]), rows[2])..., rows[-1]) over equal-length
    rows, into ``out`` when it is given."""
    if len(rows) == 1:
        if out is None:
            return rows[0].copy()
        np.copyto(out, rows[0])
        return out
    out = op(rows[0], rows[1], out=out)
    for row in rows[2:]:
        op(out, row, out=out)
    return out


def class_logits(h_t: np.ndarray, w: np.ndarray, out: np.ndarray | None = None):
    """The logits h @ w class-major, ``w.T @ h_t`` from the (d, n) transpose
    ``h_t`` of the embedding h: a C-contiguous (C, n) array whose row j holds
    class j, written into ``out`` when it is given.  It has the bits of
    ``h @ w`` written into the transposed view of ``out``, the form it
    replaced, which took 2.4 times as long at n = 3000, d = 8, C = 3 as the
    product from a C-contiguous ``h_t``; from the view ``h.T`` it takes as
    long as that form."""
    return np.matmul(w.T, h_t, out=out)


def _softmax(
    logits: np.ndarray,
    out: np.ndarray | None,
    rows: tuple[np.ndarray, ...] | None = None,
    top: np.ndarray | None = None,
    z: np.ndarray | None = None,
):
    """Softmax of each column of the class-major (C, n) ``logits``, stabilised
    by the column max; returns (probabilities, shifted logits, normaliser).

    The one softmax kernel: the loss, the gradient and scoring all reach it.
    The max and the normaliser fold the C class rows, each step one
    elementwise operation on n contiguous values, and each is subtracted or
    divided as one length-n row, so no reduction runs along the short class
    axis and nothing is strided or repeated.  The rows are added in order, as
    numpy's row sum of the (n, C) layout does below eight classes, so there
    the result equals the row-reduction form bit for bit.

    The shifted logits and their exponentials go to ``out``: new arrays when it
    is None, or ``logits`` itself, which then ends up holding the probabilities
    (the shifted logits returned are the same array).  A caller that runs the
    softmax in place epoch after epoch passes its workspace, so that a call
    makes no array: ``rows``, the class rows of ``logits`` as a sequence of
    views, and ``top`` and ``z``, length-n buffers for the max and the
    normaliser.
    """
    if rows is None:
        rows = tuple(logits)
    top = _fold_rows(np.maximum, rows, top)
    shifted = np.subtract(logits, top, out=out)
    e = np.exp(shifted, out=out)
    z = _fold_rows(np.add, rows if e is logits else tuple(e), z)
    e /= z
    return e, shifted, z


def softmax_with_log(logits: np.ndarray):
    """Softmax of the class-major (C, n) ``logits``; returns (probabilities,
    log-probabilities), both (C, n)."""
    probs, logp, z = _softmax(logits, None)
    logp -= np.log(z)
    return probs, logp


def _gradient(
    h: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    weight_decay: float,
    probs,
    grad: np.ndarray | None = None,
    decay: np.ndarray | None = None,
):
    """Gradient of the objective from the class-major (C, n) softmax
    probabilities of h @ w and labels y, overwriting probs with probs - y.

    The gradient is written into ``grad`` and the decay term into ``decay``,
    C-contiguous (d, C) buffers of the caller's, or new arrays when None.
    """
    probs -= y
    grad = np.matmul(h.T, probs.T, out=grad)
    grad /= h.shape[0]
    if weight_decay:
        grad += np.multiply(w, weight_decay, out=decay)
    return grad


def loss_and_grad(h: np.ndarray, y: np.ndarray, w: np.ndarray, weight_decay: float):
    """Objective and gradient with respect to w over the rows of h and the
    (n, C) label rows y.

    The objective is the mean soft-label cross-entropy plus
    0.5 * weight_decay * ||w||^2; the loss is returned as a float, summed over
    the (n, C) rows as the scores of ``curriculum.split_scores`` are.
    """
    probs, logp = softmax_with_log(class_logits(h.T, w))  # rarely run: no copy of h
    loss = cross_entropy(logp.T.copy(), y)
    if weight_decay:
        with np.errstate(over="ignore"):  # a diverged w fails the caller's finiteness check
            loss += 0.5 * weight_decay * float(np.add.reduce(w * w, axis=None))
    return loss, _gradient(h, y.T, w, weight_decay, probs)


def cross_entropy(logp: np.ndarray, y: np.ndarray) -> float:
    """Mean soft-label cross-entropy of the C-ordered (n, C) log-probability
    rows ``logp`` against the label rows ``y``; overwrites ``logp``.  A
    saturated head, whose every term is zero, scores +0.0, not -0.0."""
    logp *= y
    return float(-np.add.reduce(logp, axis=None) / logp.shape[0]) + 0.0


def _max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max())


# Bound on the terms of a loss that the finiteness proof admits, far below the
# largest double (about 1.8e308), so that rounding in the proof cannot matter.
_LOSS_LIMIT = 1e300


def train_linear(
    h: np.ndarray,
    labels: SoftLabelMatrix,
    cfg: TrainConfig,
    warm_start: np.ndarray | None = None,
) -> np.ndarray:
    """The (d, C) head weights from ``cfg.epochs`` epochs of full-batch
    gradient descent with weight decay at the fixed step ``cfg.lr``, starting
    from ``warm_start`` (zeros when None), on the unmasked rows of ``labels``
    and the same rows of ``h``; masked rows are never read.  ``h`` needs one
    row per label row (``DimensionMismatchError``), and ``labels`` at least
    one unmasked row (``EmptyIncludeError``, even at zero epochs).

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

    Both bounds grow with max|w|, so an upper bound on it that passes the
    test proves the loss finite too.  An epoch's step adds at most
    lr (max|h| + weight_decay max|w|) to any weight, as |p - y| <= 1 entry
    by entry once the loss is proved or found finite, so max|w| grows by at
    most the factor 1 + lr weight_decay and the term 2 lr max|h|, whose
    margins (2^-40 on the factor, the 2 on the term) cover the rounding.
    That bound is carried from epoch to epoch, and max|w| is measured only
    when it fails the test, so the loss path is taken exactly when the
    measured max|w| would fail it.
    """
    d = h.shape[1]
    num_classes = labels.y.shape[1]
    if h.shape[0] != labels.n:
        raise DimensionMismatchError(
            f"h has {h.shape[0]} rows but the labels have {labels.n}"
        )
    kept = labels.unmasked_indices()
    if not kept.size:
        raise EmptyIncludeError("empty node subset")
    if warm_start is not None:
        w = np.array(warm_start, dtype=np.float64, copy=True)
        if w.shape != (d, num_classes):
            raise DimensionMismatchError("warm start shape mismatch")
    else:
        w = np.zeros((d, num_classes))
    if cfg.epochs == 0:
        return w

    h_kept, y_kept = h[kept], labels.y[kept]
    h_t = np.ascontiguousarray(h_kept.T)  # the logits' operand
    count = kept.size
    # the epoch's workspace: its class-major logits, probabilities and
    # residuals with their class rows, the softmax's max and normaliser, and
    # the gradient and its decay term; the labels transposed to match
    buf = np.empty((num_classes, count))
    rows = tuple(buf)
    top, z = np.empty(count), np.empty(count)
    grad, decay = np.empty((d, num_classes)), np.empty((d, num_classes))
    y_cm = np.ascontiguousarray(y_kept.T)
    wd = cfg.weight_decay
    h_max = _max_abs(h_kept)
    # the two bounds are logit_scale * max|w| + label_term and decay_scale * max|w|^2
    logit_scale = 32.0 * count * d * h_max
    label_term = 16.0 * count * num_classes
    decay_scale = max(wd, 1.0) * d * num_classes if wd else 0.0

    def proved(w_max):
        return (
            logit_scale * w_max + label_term <= _LOSS_LIMIT
            and decay_scale * w_max * w_max <= _LOSS_LIMIT
        )

    # an epoch multiplies max|w| by at most growth and then adds at most step
    growth, step = (1.0 + cfg.lr * wd) * (1.0 + 2.0**-40), 2.0 * cfg.lr * h_max
    w_bound = math.inf
    for epoch in range(cfg.epochs):
        ok = proved(w_bound)
        if not ok:
            w_bound = _max_abs(w)
            ok = proved(w_bound)
        if ok:
            class_logits(h_t, w, out=buf)
            probs = _softmax(buf, buf, rows, top, z)[0]
            grad = _gradient(h_kept, y_cm, w, wd, probs, grad, decay)
        else:
            loss, grad = loss_and_grad(h_kept, y_kept, w, wd)
            if not math.isfinite(loss):
                raise NonFiniteLossError(f"loss diverged at epoch {epoch}")
        grad *= cfg.lr
        w -= grad
        w_bound = w_bound * growth + step
    return w


def accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of correct hard labels; NaN when there are none."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
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

