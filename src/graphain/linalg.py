"""Symmetric eigendecomposition and the spectral filter built on it.

Production whitening is one kernel, ``soft_spectral_filter``: it
eigendecomposes the d x d Gram b^T b with LAPACK's symmetric solver, and hard
whitening b (b^T b)^{-1/2} is its a = b = 1, d0 = d case.  The verification
oracles (``oracles``) reach the same quantities by other routes on other
inputs: the SVD U V^T of the n x d matrix itself
(``oracles.orthonormal_projection``), and a dense eigendecomposition of the
n x n doubly centred operator.  Agreement between the two sides is therefore
a cross-check, not one kernel meeting itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotOrthonormalError,
    RankDeficientError,
)

EPS_RANK = 1e-12  # relative eigenvalue (or singular value) cutoff of numerical rank
_HALF_MAX = float(np.finfo(np.float64).max) / 2  # above it, s + s^T may overflow


@dataclass(frozen=True)
class SpectralFilterParams:
    """Knobs of the soft spectral filter.

    ``a`` blends between no normalization (0) and full whitening (1),
    ``b`` tempers the whitening exponent, and ``d0`` truncates to the top
    eigenchannels.  The relative eigenvalue cutoff that defines numerical
    rank deficiency is the module constant ``EPS_RANK``.
    """

    a: float
    b: float
    d0: int

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(f"a must be in [0, 1], got {self.a}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")
        if self.d0 < 1:
            raise ValueError(f"d0 must be >= 1, got {self.d0}")


def sym_eig(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of the symmetric float64 Gram s = b^T b: the
    eigenvalues in ascending order and the orthonormal eigenvectors as
    columns, as ``eigh`` returns them.

    numpy's syrk, or its plain loop, makes the Gram symmetric bit for bit,
    so it goes to LAPACK's symmetric solver as it is; the solver reads its
    lower triangle.  A Gram with an entry above half the largest double goes
    as 0.5 (s + s^T), whose sum may overflow to inf, which the solver fails
    on as described below.  Within a repeated eigenvalue the basis is
    whatever LAPACK returns; the spectral filters do not depend on that
    choice.

    The solver is numpy's gufunc ``_umath_linalg.eigh_lo``, called with the
    signature ``np.linalg.eigh`` gives it on a float64 matrix, so the bits
    are ``eigh``'s; the direct call skips ``eigh``'s type checks and
    ``errstate`` set-up, about a third of its cost on an 8 x 8 Gram.  When
    LAPACK fails the gufunc fills its outputs with NaN and raises the
    floating-point invalid flag, where ``eigh`` raises LinAlgError; an input
    that overflowed to inf can also give NaN eigenvalues without failing.
    So NaN eigenvalues are solved again by ``eigh``, whose LinAlgError, like
    the flag surfacing as a RuntimeWarning under an "error" warnings filter
    or as a FloatingPointError under ``errstate(invalid="raise")``, raises
    ``NoConvergenceError``.  A numpy without the gufunc fails this module's
    import with an ImportError that names it.
    """
    # one sweep gives the scale and, as NaN or inf, any non-finite entry
    scale = float(np.abs(s).max())
    if not math.isfinite(scale):
        raise NoConvergenceError("matrix has non-finite entries")
    if scale > _HALF_MAX:
        s = 0.5 * (s + s.T)
    try:
        lam, v = _eigh_lo(s, signature="d->dd")
        if math.isnan(lam[0]):
            # a failure, or an s + s^T that overflowed: eigh tells them apart
            lam, v = np.linalg.eigh(s)
    except (np.linalg.LinAlgError, RuntimeWarning, FloatingPointError) as err:
        raise NoConvergenceError(
            "symmetric eigensolver failed: Eigenvalues did not converge"
        ) from err
    return lam, v


def soft_spectral_filter(b: np.ndarray, params: SpectralFilterParams) -> np.ndarray:
    """Temper the singular values of b on its top eigenchannels.

    Eigenchannels of b^T b beyond the top ``d0`` pass through scaled by
    (1 - a); kept channels map singular values s to (1-a) s + a s^(1-b).
    Kept eigenvalues at most ``EPS_RANK`` times the largest are dropped; if
    every channel underflows while a whitening exponent is active, the input
    is degenerate.
    Hard whitening (a = b = 1) drops none: a channel under the cutoff would
    leave the output short of orthonormal, so it raises instead.

    The filter is one product, b V diag(g) V^T, on ``sym_eig``'s ascending
    output: the gain g is 1 - a on every channel plus a lam^(-b/2) on the
    kept ones, which are the trailing ones.
    """
    b = np.asarray(b, dtype=np.float64)
    d = b.shape[1]
    if params.d0 > d:
        raise DimensionMismatchError(f"d0={params.d0} exceeds width {d}")
    if params.a == 0.0:
        return b.copy()

    try:
        gram = b.T @ b
    except RuntimeWarning:
        # an overflow under an "error" warnings filter; sym_eig rejects the
        # non-finite Gram as it does under any other filter
        with np.errstate(over="ignore", invalid="ignore"):
            gram = b.T @ b
    lam, v = sym_eig(gram)
    d0 = params.d0
    gain = np.full(d, 1.0 - params.a)
    if params.b == 0.0:
        gain[d - d0:] += params.a
    else:
        # the kept eigenvalues above the cutoff, which trail in ascending order
        thr = EPS_RANK * max(float(lam[-1]), 0.0)
        k = min(d0, d - int(lam.searchsorted(thr, side="right")))
        if k == 0:
            raise RankDeficientError(
                "all eigenchannels underflow the rank cutoff; "
                "input is degenerate (reduce width or lower a)"
            )
        if params.a == 1.0 and params.b == 1.0 and k < d0:
            raise RankDeficientError(
                f"hard whitening keeps {k} of {d0} eigenchannels above "
                "the rank cutoff; the output would not be orthonormal"
            )
        gain[d - k:] += params.a * lam[d - k:] ** (-0.5 * params.b)
    return b @ ((v * gain) @ v.T)


def principal_subspace_distance(h: np.ndarray, u_ref: np.ndarray) -> float:
    """Normalized distance in [0, 1] between two column spans.

    Equals ||H H^T - U U^T||_F / sqrt(2 d), evaluated through the mutual
    projection residuals ||H - U U^T H||_F^2 + ||U - H H^T U||_F^2 so that
    near-zero distances stay accurate; no n x n projector is materialized.
    """
    h = np.asarray(h, dtype=np.float64)
    u_ref = np.asarray(u_ref, dtype=np.float64)
    if h.shape != u_ref.shape:
        raise DimensionMismatchError("subspace bases must have equal shapes")
    d = h.shape[1]
    for name, mat in (("h", h), ("u_ref", u_ref)):
        dev = float(np.abs(mat.T @ mat - np.eye(d)).max())
        if dev > 1e-6:
            raise NotOrthonormalError(f"{name} deviates from orthonormal by {dev:.3e}")
    res_h = h - u_ref @ (u_ref.T @ h)
    res_u = u_ref - h @ (h.T @ u_ref)
    val = float(np.sum(res_h * res_h)) + float(np.sum(res_u * res_u))
    return math.sqrt(min(max(val / (2.0 * d), 0.0), 1.0))
