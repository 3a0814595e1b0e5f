"""Symmetric eigendecomposition and the spectral filter built on it.

Production whitening is one kernel, ``soft_spectral_filter``: it
eigendecomposes the d x d Gram b^T b with LAPACK's symmetric solver, and hard
whitening b (b^T b)^{-1/2} is its a = b = 1, d0 = d case.  The verification
oracles reach the same quantities by other routes on other inputs: the SVD
U V^T of the n x d matrix itself (``orthonormal_projection``), and a dense
eigendecomposition of the n x n doubly centred operator.  Agreement between
the two sides is therefore a cross-check, not one kernel meeting itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotOrthonormalError,
    NotSymmetricError,
    RankDeficientError,
)

EPS_RANK = 1e-12  # relative eigenvalue (or singular value) cutoff of numerical rank
_HALF_MAX = float(np.finfo(np.float64).max) / 2  # above it, s + s^T may overflow


@dataclass(frozen=True)
class EigPair:
    """Orthogonal eigenvectors (columns of u) with nonincreasing eigenvalues."""

    u: np.ndarray
    values: np.ndarray


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


def sym_eig(s: np.ndarray) -> EigPair:
    """Full eigendecomposition of a symmetric matrix, eigenvalues nonincreasing.

    LAPACK's symmetric solver (``np.linalg.eigh``) runs on 0.5 (s + s^T).
    That equals s bit for bit when s is symmetric bit for bit, as numpy's
    syrk makes the Gram b^T b, and no entry exceeds half the largest double,
    so such an input goes to the solver as it is.  Any other input is
    symmetrised, including one whose mirrored zeros differ only in sign,
    which can change the eigenvectors ``eigh`` returns.  Within a repeated
    eigenvalue the basis is whatever LAPACK returns; the spectral filters do
    not depend on that choice.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionMismatchError("sym_eig needs a square matrix")
    # one sweep gives the scale and, as NaN or inf, any non-finite entry
    scale = float(np.abs(s).max()) if s.size else 0.0
    if not math.isfinite(scale):
        raise NoConvergenceError("matrix has non-finite entries")
    if s.tobytes() != s.T.tobytes() or scale > _HALF_MAX:
        if scale > 0.0:
            skew = float(np.abs(s - s.T).max())
            if skew > 1e-10 * scale:
                raise NotSymmetricError(
                    f"asymmetry {skew:.3e} exceeds 1e-10 relative to {scale:.3e}"
                )
        s = 0.5 * (s + s.T)
    try:
        lam, v = np.linalg.eigh(s)
    except np.linalg.LinAlgError as err:
        raise NoConvergenceError(f"symmetric eigensolver failed: {err}") from err
    return EigPair(u=v[:, ::-1], values=lam[::-1])


def soft_spectral_filter(b: np.ndarray, params: SpectralFilterParams) -> np.ndarray:
    """Temper the singular values of b on its top eigenchannels.

    Eigenchannels of b^T b beyond the top ``d0`` pass through scaled by
    (1 - a); kept channels map singular values s to (1-a) s + a s^(1-b).
    Kept eigenvalues at most ``EPS_RANK`` times the largest are dropped; if
    every channel underflows while a whitening exponent is active, the input
    is degenerate.
    Hard whitening (a = b = 1) drops none: a channel under the cutoff would
    leave the output short of orthonormal, so it raises instead.
    """
    b = np.asarray(b, dtype=np.float64)
    d = b.shape[1]
    if params.d0 > d:
        raise DimensionMismatchError(f"d0={params.d0} exceeds width {d}")
    if params.a == 0.0:
        return b.copy()

    pair = sym_eig(b.T @ b)
    lam = pair.values
    d0 = params.d0
    if params.b == 0.0:
        kept = np.arange(d0)
        scale = np.ones(d0)
    else:
        lmax = max(float(lam[0]), 0.0)
        thr = EPS_RANK * lmax
        kept = (lam[:d0] > thr).nonzero()[0]
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
    filt = (uk * scale) @ uk.T
    filt *= params.a
    filt.flat[:: d + 1] += 1.0 - params.a
    return b @ filt


def orthonormal_projection(m: np.ndarray) -> np.ndarray:
    """Nearest matrix with orthonormal columns, computed as U V^T from the SVD.

    This is the projection route used by the verification oracles; it is
    mathematically equal to hard whitening m (m^T m)^{-1/2}, the filter at
    a = b = 1, d0 = d, but shares no code with it.  Raises
    RankDeficientError when the smallest singular value is at most
    ``EPS_RANK`` times the largest.
    """
    m = np.asarray(m, dtype=np.float64)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s[0] <= 0.0 or s[-1] <= EPS_RANK * s[0]:
        raise RankDeficientError(
            f"singular value range [{s[-1]:.3e}, {s[0]:.3e}] is rank deficient"
        )
    return u @ vt


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
