"""Linear softmax head on fixed embeddings: one (d, C) weight array.

Training is deterministic full-batch gradient descent on the convex
cross-entropy plus L2 objective.  One kernel, ``loss_and_grad``, gives the
objective and its analytic gradient to any epoch that needs its loss; the
finite-difference checks in the test suite differentiate it.  Its gradient,
probabilities and loss come from ``_gradient``, ``softmax_with_log`` and
``cross_entropy``; scoring shares the last two.

``train_linear`` fits the unmasked rows of its ``SoftLabelMatrix`` and no
others: a curriculum task's rows are those its snapshot leaves unmasked, and
the fine-tune's truth matrix is unmasked exactly on the train mask.  A label
matrix with no unmasked row raises ``EmptyIncludeError``.  When every row is
unmasked, as in every pacing task at the default ``mask_ratio`` of 0, it
reads h and the labels in place and copies neither.

The head works class-major: ``class_logits`` writes the logits h @ w into a
C-contiguous (C, n) array, one row of n values per class, from the
C-contiguous (d, n) transpose of h, and the softmax and the gradient
``h.T @ (P - Y).T`` take that layout.
An epoch costs two GEMMs at O(n d C) each plus O(n C) elementwise work.  The
loss only feeds the check that it is finite, so an epoch skips it whenever a
bound from ``max|h|`` and ``max|w|`` proves it finite and every logit small
(``train_linear``); the first epoch with a non-finite loss is still the one
reported.  Such an epoch exponentiates the logits without the max shift and
folds its step, w (1 - lr wd) - ((lr/n) h_t P^T - hy), with hy = (lr/n) h_t Y
made once per call, so it sweeps no P - Y and scales no gradient twice.  At a
run's sizes (d = 8, C = 3, tens to thousands of rows) that is C + 7 numpy
calls with weight decay, 10 at C = 3, whose call overhead rather than their
arithmetic sets its cost, so ``train_linear`` makes its buffers and views
once per call and an epoch allocates no array data.  A loss is summed over
the (n, C) rows, in the order the split scores sum it.

Each operation keeps the operands and the order of its plain class-major
expression, so every output bit is that expression's
(``tests/test_kernel_bits.py``); a folded epoch lands within a few ulps of
the step along ``loss_and_grad``'s gradient.  Against the row-major head
this layout replaced (logits ``h @ w``, gradient ``h.T @ (P - Y)``),
OpenBLAS rounds the products alike for 2 <= d <= 15, the width of every
shipped config; it picks other kernels for the logits at d >= 16 and for
the gradient at d = 1, where no weight of a sweep of 300-epoch fits moved by
more than 9e-16.
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


def class_logits(h_t: np.ndarray, w: np.ndarray):
    """The logits h @ w class-major, ``w.T @ h_t`` from the (d, n) transpose
    ``h_t`` of the embedding h: a C-contiguous (C, n) array whose row j holds
    class j.  It has the bits of ``h @ w`` written into the transposed view
    of a (C, n) array, the form it replaced, which took 2.4 times as long at
    n = 3000, d = 8, C = 3 as the product from a C-contiguous ``h_t``; from
    the view ``h.T`` it takes as long as that form.  ``train_linear``'s epoch
    runs the same product into its buffer."""
    return np.matmul(w.T, h_t)


def softmax_with_log(logits: np.ndarray):
    """Softmax of each column of the class-major (C, n) ``logits``, stabilised
    by the column max; returns (probabilities, log-probabilities), both (C, n).

    The one stabilised softmax kernel: the loss, its gradient and scoring all
    reach it.  The max and the normaliser reduce over the class axis, which
    numpy runs on the C-ordered (C, n) array as one elementwise pass a class
    row, in order, and each is subtracted or divided as one length-n row, so
    nothing is strided or repeated.  The rows are added in order, as numpy's
    row sum of the (n, C) layout does below eight classes, so there the
    result equals the row-reduction form bit for bit.  A single column
    (n = 1) is one contiguous run, which numpy sums pairwise from eight
    classes on, again as the row sum does.
    """
    logp = logits - np.maximum.reduce(logits, axis=0)
    probs = np.exp(logp)
    z = np.add.reduce(probs, axis=0)
    probs /= z
    logp -= np.log(z)
    return probs, logp


def _gradient(h: np.ndarray, y: np.ndarray, w: np.ndarray, weight_decay: float, probs):
    """Gradient of the objective from the class-major (C, n) softmax
    probabilities of h @ w and labels y, overwriting probs with probs - y."""
    probs -= y
    grad = np.matmul(h.T, probs.T)
    grad /= h.shape[0]
    if weight_decay:
        grad += w * weight_decay
    return grad


def loss_and_grad(h: np.ndarray, y: np.ndarray, w: np.ndarray, weight_decay: float):
    """Objective and gradient with respect to w over the rows of h and the
    (n, C) label rows y.

    The objective is the mean soft-label cross-entropy plus
    0.5 * weight_decay * ||w||^2; the loss is returned as a float, summed over
    the (n, C) rows as the scores of ``curriculum.split_scores`` are.
    """
    # overflowing logits or a diverged w fail the caller's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        probs, logp = softmax_with_log(class_logits(h.T, w))  # rarely run: no copy of h
        loss = cross_entropy(logp.T.copy(), y)
        if weight_decay:
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


# Bound on the terms of a loss and of a step that the proofs admit, far below
# the largest double (about 1.8e308), so that rounding in the proofs cannot
# matter.
_LOSS_LIMIT = 1e300
# Bound on the logits of an epoch that exponentiates them unshifted: e^600 is
# about 3.8e260 and e^-600 about 2.6e-261, both normal doubles.
_EXP_LIMIT = 600.0


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

    An epoch takes one of two paths.  An epoch that the bound below admits
    skips the loss: it exponentiates the logits w^T h_t without the max
    shift, divides each column by its sum z over the C class rows, and takes
    the folded step w (1 - lr wd) - ((lr/n) h_t P^T - hy), where
    hy = (lr/n) h_t Y is made once per call.  Any other epoch calls
    ``loss_and_grad``, whose softmax is shifted, steps along its gradient, and
    raises ``NonFiniteLossError`` if the loss is not finite, so the first
    epoch with a non-finite loss is the one reported.

    The bound admits an epoch when max|w| is at most a cap made once per
    call, and proves that every value the epoch makes is finite and its loss
    too.  The rows of y are nonnegative and sum to 1 within 1e-9, and a
    computed logit is at most K = 2 d max|h| max|w| in magnitude (the 2
    covers the rounding of d terms).

    - Softmax: the cap holds K to 600, so each exponential lies between
      e^-600 and e^600, normal doubles; z is positive and finite for any C an
      array can hold, and each probability lies in [0, 1], with no 0/0.
    - Loss: a log-probability is at most 2K + C in magnitude, with rounding,
      so the summed loss term is at most 16 n (600 + C); the decay term sums
      w * w, at most 2 d C max|w|^2, times 0.5 wd.  The first is held to
      1e300 once per call, the second, times max(wd, 1), by the cap.
    - Step: an entry of h_t P^T or h_t Y is at most n max|h| (1 + 1e-9), and
      lr/n times it at most lr max|h|, with rounding; n max|h|, 2 lr max|h|
      and lr wd are held to 1e300 once per call, and max|w| (1 + lr wd) by
      the cap.
    A NaN or infinite max|h| fails a test and leaves no epoch admitted, and a
    NaN or an infinity in w fails the cap, so such an epoch computes its loss.

    An epoch's step adds at most lr (max|h| + wd max|w|) to any weight on
    either path, as |p - y| <= 1 entry by entry once the loss is proved or
    found finite, so max|w| grows by at most the factor 1 + lr wd and the
    term 2 lr max|h|, whose margins (2^-40 on the factor, the 2 on the term)
    cover the rounding of either path's step at any n an array can hold.
    That bound is carried from epoch to epoch, and max|w| is measured only
    when the bound exceeds the cap, so an epoch is admitted exactly when the
    measured max|w| would be.
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

    y = labels.y
    if kept.size < labels.n:
        h, y = h[kept], y[kept]
    count, lr, wd = kept.size, cfg.lr, cfg.weight_decay
    h_t = np.ascontiguousarray(h.T)  # the logits' operand
    h_max = _max_abs(h)
    scale, keep = lr / count, 1.0 - lr * wd
    hy = np.matmul(h_t, y)
    hy *= scale
    # the epoch's workspace: its class-major logits, then probabilities, with
    # their class rows and transpose, the normaliser and the step
    buf = np.empty((num_classes, count))
    first, second, *rest = buf
    buf_t, w_t = buf.T, w.T
    z, step_w = np.empty(count), np.empty((d, num_classes))
    # an epoch multiplies max|w| by at most growth and then adds at most step
    growth, step = (1.0 + lr * wd) * (1.0 + 2.0**-40), 2.0 * lr * h_max
    if (
        count * h_max <= _LOSS_LIMIT
        and step <= _LOSS_LIMIT
        and growth <= _LOSS_LIMIT
        and 16.0 * count * (_EXP_LIMIT + num_classes) <= _LOSS_LIMIT
    ):
        w_cap = min(
            _LOSS_LIMIT / growth,
            _EXP_LIMIT / (2.0 * d * h_max) if h_max else math.inf,
            math.sqrt(_LOSS_LIMIT / (max(wd, 1.0) * d * num_classes)) if wd else math.inf,
        )
    else:
        w_cap = -1.0
    w_bound = math.inf
    for epoch in range(cfg.epochs):
        if not w_bound <= w_cap:
            w_bound = _max_abs(w)
        if w_bound <= w_cap:
            # class_logits inlined, as its call costs a run's short epochs
            # about 4% more; z adds the class rows one np.add each, as an
            # np.add.reduce over the classes is no faster: 1.00-1.03 times
            # as long an epoch at C = 3 and 30 to 3000 rows
            np.matmul(w_t, h_t, out=buf)
            np.exp(buf, out=buf)
            np.add(first, second, out=z)
            for row in rest:
                np.add(z, row, out=z)
            buf /= z
            np.matmul(h_t, buf_t, out=step_w)
            step_w *= scale
            step_w -= hy
            if wd:
                w *= keep
            w -= step_w
        else:
            loss, grad = loss_and_grad(h, y, w, wd)
            if not math.isfinite(loss):
                raise NonFiniteLossError(f"loss diverged at epoch {epoch}")
            grad *= lr
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

