"""Per-layer over-smoothing measurements.

``LayerRecorder`` is an observer for the forward pass
(``propagation.run_fuzzy_r_softgraphain(..., observe=recorder)``): it turns
each layer into a DiagnosticsRecord as the layer is made, so a sweep of any
depth holds one layer at a time.

The pairwise-distance statistic uses the O(n d) moment identity
sum_ij ||H_i - H_j||^2 = 2 n sum_i ||H_i||^2 - 2 ||sum_i H_i||^2
over ordered pairs (both directions, i = j contributing zero); the test
suite cross-checks it against the quadratic double loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classifier import LinearClassifier, accuracy, predict
from .errors import (
    DegenerateGapError,
    NotOrthonormalError,
    ParseError,
    TooLargeError,
)
from .graph import Graph
from .linalg import principal_subspace_distance
from .oracles import dense_abar, top_d_eigvectors

CSV_HEADER = (
    "layer,mean_pairwise_sq_dist,frob_sq,column_gram_dev,"
    "column_sum_dev,subspace_dist,accuracy"
)


@dataclass(frozen=True)
class DiagnosticsRecord:
    layer: int
    mean_pairwise_sq_dist: float
    frob_sq: float
    column_gram_dev: float
    column_sum_dev: float
    subspace_dist: float | None
    accuracy: float | None


def pairwise_stats(h: np.ndarray):
    """(total, per-node mean) of squared distances over ordered node pairs."""
    h = np.asarray(h, dtype=np.float64)
    n = h.shape[0]
    sq_norms = float(np.sum(h * h))
    col_sums = h.sum(axis=0)
    total = max(2.0 * n * sq_norms - 2.0 * float(col_sums @ col_sums), 0.0)
    return total, total / n


def spectral_alignment(h: np.ndarray, g: Graph, d: int) -> float:
    """Subspace distance between h and the top-d eigenvectors of the doubly
    centered aggregator."""
    return principal_subspace_distance(h, top_d_eigvectors(dense_abar(g), d))


def _record(h, layer, g, reference, clf, eval_set):
    h = np.asarray(h, dtype=np.float64)
    d = h.shape[1]
    _, mean = pairwise_stats(h)
    gram_dev = float(np.abs(h.T @ h - np.eye(d)).max())
    col_dev = float(np.abs(h.sum(axis=0)).max())
    sub = None
    if reference is not None and gram_dev <= 1e-6:
        try:
            sub = principal_subspace_distance(h, reference)
        except (NotOrthonormalError, TooLargeError):
            sub = None
    acc = None
    if clf is not None and eval_set is not None and eval_set.size:
        pred, _ = predict(h, clf)
        acc = accuracy(pred, g.labels, eval_set)
    return DiagnosticsRecord(
        layer=layer,
        mean_pairwise_sq_dist=mean,
        frob_sq=float(np.sum(h * h)),
        column_gram_dev=gram_dev,
        column_sum_dev=col_dev,
        subspace_dist=sub,
        accuracy=acc,
    )


class LayerRecorder:
    """Per-layer observer: ``recorder(t, H_t)`` appends layer t's record.

    At the first layer, on graphs with n <= 2000, it builds the top-d
    eigenvectors of the doubly centered aggregator as the reference for the
    subspace distance; only that n x d reference is kept.  With a classifier,
    each record also carries the accuracy on the validation set, or on every
    labeled node when there is none.
    """

    def __init__(self, g: Graph, classifier: LinearClassifier | None = None):
        self.g = g
        self.classifier = classifier
        self.eval_set = None
        if classifier is not None:
            self.eval_set = g.val_mask if g.val_mask.size else np.flatnonzero(g.labels >= 0)
        self.reference = None
        self.records = []

    def __call__(self, t: int, h: np.ndarray) -> None:
        d = h.shape[1]
        if not self.records and self.g.n <= 2000 and d <= self.g.n:
            try:
                self.reference = top_d_eigvectors(dense_abar(self.g), d)
            except (DegenerateGapError, TooLargeError):
                self.reference = None
        self.records.append(
            _record(h, t, self.g, self.reference, self.classifier, self.eval_set)
        )


def _fmt_opt(value) -> str:
    return "" if value is None else format(float(value), ".17g")


def records_to_csv(records, path) -> None:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                [
                    str(r.layer),
                    format(r.mean_pairwise_sq_dist, ".17g"),
                    format(r.frob_sq, ".17g"),
                    format(r.column_gram_dev, ".17g"),
                    format(r.column_sum_dev, ".17g"),
                    _fmt_opt(r.subspace_dist),
                    _fmt_opt(r.accuracy),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def records_from_csv(path) -> list:
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ParseError(path, 1, "missing or wrong diagnostics header")
    records = []
    for no, line in enumerate(lines[1:], start=2):
        toks = line.split(",")
        if len(toks) != 7:
            raise ParseError(path, no, f"expected 7 columns, got {len(toks)}")
        try:
            records.append(
                DiagnosticsRecord(
                    layer=int(toks[0]),
                    mean_pairwise_sq_dist=float(toks[1]),
                    frob_sq=float(toks[2]),
                    column_gram_dev=float(toks[3]),
                    column_sum_dev=float(toks[4]),
                    subspace_dist=None if toks[5] == "" else float(toks[5]),
                    accuracy=None if toks[6] == "" else float(toks[6]),
                )
            )
        except ValueError as err:
            raise ParseError(path, no, str(err)) from err
    return records
