"""Soft label container shared by the curriculum pipeline and the classifier."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SoftLabelMatrix:
    """Row-stochastic soft labels; masked rows are exactly zero."""

    y: np.ndarray       # (n, C), nonnegative
    masked: np.ndarray  # (n,) bool; True = filtered out

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64)
        masked = np.asarray(self.masked, dtype=bool)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "masked", masked)
        if y.ndim != 2 or y.shape[1] < 2:
            raise ValueError("soft labels need at least two classes")
        if masked.shape != (y.shape[0],):
            raise ValueError("mask must have one flag per node")
        if not np.isfinite(y).all():
            row, col = np.argwhere(~np.isfinite(y))[0]
            raise ValueError(f"soft labels must be finite; y[{row}, {col}] is {y[row, col]}")
        if y.size and float(y.min()) < 0.0:
            raise ValueError("soft labels must be nonnegative")
        any_masked = bool(masked.any())
        if any_masked and float(np.abs(y[masked]).max(initial=0.0)) != 0.0:
            raise ValueError("masked rows must be exactly zero")
        # any summation order will do for a 1e-9 tolerance, and a product
        # with ones adds whole rows where numpy's row sum runs one at a time
        sums = y @ np.ones(y.shape[1])
        if any_masked:
            sums = sums[~masked]
        if sums.size:
            dev = float(np.abs(sums - 1.0).max())
            if dev > 1e-9:
                raise ValueError(f"unmasked row sums deviate by {dev:.3e}")

    @property
    def n(self) -> int:
        return int(self.y.shape[0])

    @property
    def num_classes(self) -> int:
        return int(self.y.shape[1])

    def unmasked_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.masked)


def one_hot(labels, num_classes: int) -> np.ndarray:
    """Dense one-hot rows for integer class labels."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes})")
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


def one_hot_matrix(labels, labeled_set, n: int, num_classes: int) -> SoftLabelMatrix:
    """Full-size soft-label matrix that is one-hot on ``labeled_set`` and
    masked everywhere else."""
    labeled = np.asarray(labeled_set, dtype=np.int64).ravel()
    y = np.zeros((n, num_classes))
    y[labeled] = one_hot(labels, num_classes)
    masked = np.ones(n, dtype=bool)
    masked[labeled] = False
    return SoftLabelMatrix(y=y, masked=masked)
