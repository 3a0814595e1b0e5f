"""Per-layer over-smoothing measurements.

``LayerRecorder`` is an observer for the forward pass
(``propagation.run_fuzzy_r_softgraphain(..., observe=recorder)``): it turns
each layer into a DiagnosticsRecord as the layer is made, so a sweep of any
depth holds one layer at a time.  The subspace distance needs the dense
reference spectrum (n <= ``oracles.DENSE_CAP``), an O(n^3)
eigendecomposition; it is built only when a layer has orthonormal columns,
the one case in which it is measured, so runs whose layers never get there
never pay for it.  A record measures the embedding alone: no head is
trained during the forward pass.

The pairwise-distance statistic uses the O(n d) moment identity
sum_ij ||H_i - H_j||^2 = 2 n sum_i ||H_i||^2 - 2 ||sum_i H_i||^2
over ordered pairs (both directions, i = j contributing zero); the test
suite cross-checks it against the quadratic double loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateGapError,
    NotOrthonormalError,
    TooLargeError,
)
from .graph import Graph
from .io import records_csv
from .linalg import principal_subspace_distance
from .oracles import dense_abar, top_d_eigvectors


@dataclass(frozen=True)
class DiagnosticsRecord:
    layer: int
    mean_pairwise_sq_dist: float
    frob_sq: float
    column_gram_dev: float
    column_sum_dev: float
    subspace_dist: float | None


def _pairwise_total(n: int, frob_sq: float, col_sums: np.ndarray) -> float:
    return max(2.0 * n * frob_sq - 2.0 * float(col_sums @ col_sums), 0.0)


def pairwise_stats(h: np.ndarray):
    """(total, per-node mean) of squared distances over ordered node pairs."""
    h = np.asarray(h, dtype=np.float64)
    n = h.shape[0]
    total = _pairwise_total(n, float(np.sum(h * h)), h.sum(axis=0))
    return total, total / n


def _record(h, layer, reference):
    """``reference(d)`` returns the n x d reference, or None; it is called
    only for a layer with orthonormal columns."""
    h = np.asarray(h, dtype=np.float64)
    n, d = h.shape
    frob_sq = float(np.sum(h * h))
    col_sums = h.sum(axis=0)
    mean = _pairwise_total(n, frob_sq, col_sums) / n
    gram_dev = float(np.abs(h.T @ h - np.eye(d)).max())
    col_dev = float(np.abs(col_sums).max())
    sub = None
    ref = reference(d) if gram_dev <= 1e-6 else None
    if ref is not None:
        try:
            sub = principal_subspace_distance(h, ref)
        except (NotOrthonormalError, TooLargeError):
            sub = None
    return DiagnosticsRecord(
        layer=layer,
        mean_pairwise_sq_dist=mean,
        frob_sq=frob_sq,
        column_gram_dev=gram_dev,
        column_sum_dev=col_dev,
        subspace_dist=sub,
    )


class LayerRecorder:
    """Per-layer observer: ``recorder(t, H_t)`` appends layer t's record.

    The first time a layer's columns are orthonormal (Gram deviation
    <= 1e-6), it builds the top-d eigenvectors of the doubly centered
    aggregator as the reference for the subspace distance, and keeps that
    n x d reference for the later layers, or None when the build raises
    DegenerateGapError, or TooLargeError on graphs with n >
    ``oracles.DENSE_CAP``; it never tries twice.  Layers that are not
    orthonormal get no subspace distance, so a run without such a layer
    never builds the reference.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.reference = None
        self._reference_tried = False
        self.records = []

    def _reference(self, d: int):
        if not self._reference_tried:
            self._reference_tried = True
            try:
                self.reference = top_d_eigvectors(dense_abar(self.g), d)
            except (DegenerateGapError, TooLargeError):
                self.reference = None
        return self.reference

    def __call__(self, t: int, h: np.ndarray) -> None:
        self.records.append(_record(h, t, self._reference))


def records_to_csv(records, path) -> None:
    """Write ``records`` to ``path`` as CSV, one column per DiagnosticsRecord
    field; ``subspace_dist`` is empty where it was not measured."""
    Path(path).write_text(records_csv(DiagnosticsRecord, records), encoding="utf-8")
