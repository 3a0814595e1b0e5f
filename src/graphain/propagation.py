"""Layer dynamics: the skip-connection mix, the Pairnorm baseline step, and
the one deep forward pass that runs all three variants.  Every whitening
step, hard whitening included, is ``linalg.soft_spectral_filter``.

The forward pass is one flat loop over the layers.  It is non-parametric (no
per-layer weights), which keeps arbitrarily deep runs cheap and exactly
analyzable; relu, when chosen, follows the soft filter in the rsoft pass
only.  The fuzzy residual and initial accumulators are two arrays and a decay
power held by the loop; they start as copies of the first layer and are
updated in place, so a layer handed to the observer never changes.  The loop
keeps no layers: each layer is observed as it is made, so memory stays
O(n d) at any depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    GraphainError,
    InvalidCoefficientsError,
    ZeroActivationError,
)
from .graph import (
    Graph,
    NormalizedOperator,
    OPERATOR_MODES,
    apply_operator,
    normalized_adjacency,
)
from .linalg import SpectralFilterParams, soft_spectral_filter

ACTIVATIONS = ("identity", "relu")
VARIANTS = ("rsoft", "sgc", "pairnorm")


@dataclass(frozen=True)
class PropagationConfig:
    """All forward-pass hyper-parameters.

    alpha, beta and gamma are the aggregation / residual / initial mixing
    weights; they may be given on any nonnegative scale and are renormalized
    to sum to one at construction.  p and q are the fuzzy decay factors, with
    p = q = 0 reducing exactly to the vanilla residual and initial terms.
    """

    alpha: float
    beta: float
    gamma: float
    filter: SpectralFilterParams
    layers: int
    p: float = 0.0
    q: float = 0.0
    activation: str = "identity"
    operator_mode: str = "symmetric"

    def __post_init__(self):
        coeffs = (self.alpha, self.beta, self.gamma)
        if any(c < 0.0 or not math.isfinite(c) for c in coeffs):
            raise InvalidCoefficientsError("alpha, beta, gamma must be nonnegative")
        total = sum(coeffs)
        if total <= 0.0:
            raise InvalidCoefficientsError("alpha + beta + gamma must be positive")
        object.__setattr__(self, "alpha", self.alpha / total)
        object.__setattr__(self, "beta", self.beta / total)
        object.__setattr__(self, "gamma", self.gamma / total)
        for name in ("p", "q"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise InvalidCoefficientsError(f"{name} must be in [0, 1], got {val}")
        if self.layers < 1:
            raise InvalidCoefficientsError("layers must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise InvalidCoefficientsError(f"unknown activation {self.activation!r}")
        if self.operator_mode not in OPERATOR_MODES:
            raise InvalidCoefficientsError(
                f"unknown operator mode {self.operator_mode!r}"
            )


def _centered_aggregate(op: NormalizedOperator, h: np.ndarray) -> np.ndarray:
    """``apply_centering(apply_operator(op, h))`` bit for bit, centred in
    place on the fresh SpMM output; the mean is ``mean``'s own sum and divide."""
    out = apply_operator(op, h)
    out -= np.add.reduce(out, axis=0) / out.shape[0]
    return out


def residual_combine(
    h_t: np.ndarray,
    s_last: np.ndarray,
    s_init: np.ndarray,
    cfg: PropagationConfig,
    op: NormalizedOperator,
) -> np.ndarray:
    """Mix the centered aggregate with the residual and initial accumulators.

    Zero coefficients skip their term entirely, which keeps the degenerate
    mixes (e.g. alpha = 1) bit-exact.  The result is always a fresh array.
    """
    if h_t.shape != s_last.shape or h_t.shape != s_init.shape:
        raise DimensionMismatchError("skip-connection terms must share a shape")
    out = None
    if cfg.alpha != 0.0:
        out = _centered_aggregate(op, h_t)
        if cfg.alpha != 1.0:
            out *= cfg.alpha
    for coeff, term in ((cfg.beta, s_last), (cfg.gamma, s_init)):
        if coeff == 0.0:
            continue
        part = term if coeff == 1.0 else coeff * term
        if out is None:
            out = term.copy() if part is term else part
        else:
            out += part
    return out


def run_fuzzy_r_softgraphain(
    g: Graph,
    cfg: PropagationConfig,
    reducer: np.ndarray | None = None,
    variant: str = "rsoft",
    observe: Callable[[int, np.ndarray], None] | None = None,
) -> np.ndarray:
    """The deep forward pass of every variant; returns the last layer.

    ``variant`` selects the dynamics.  "rsoft" is the full model: the first
    layer runs without skip connections; later layers mix the centered
    aggregate with the fuzzy accumulators, apply the soft filter and the
    activation, then advance the accumulators.  "sgc" is plain repeated
    aggregation and "pairnorm" the unit-scale centering-and-rescaling step.
    ``reducer`` maps raw features to the working width; without it the
    feature width is used as-is.  ``observe(t, H_t)`` is called once per
    layer t = 1..L.  A GraphainError raised in a step carries the failing
    layer index.

    The accumulators start at the first layer: s_last = p s_last + H_t and
    s_init = s_init + q^(t-1) H_t, the decay power advanced before its sum.
    p == 0 and a vanished decay power assign instead of summing, so p = q = 0
    is bit-exactly the vanilla residual (last layer) and initial (H_1) terms.
    """
    if variant not in VARIANTS:
        raise GraphainError(f"unknown variant {variant!r}")
    op = normalized_adjacency(g, cfg.operator_mode)
    x = g.features if reducer is None else g.features @ np.asarray(reducer, float)
    if variant == "rsoft" and cfg.filter.d0 > x.shape[1]:
        raise DimensionMismatchError(
            f"filter d0={cfg.filter.d0} exceeds working width {x.shape[1]}"
        )
    relu = cfg.activation == "relu"
    h = x
    s_last = s_init = None
    q_pow = 1.0
    for t in range(1, cfg.layers + 1):
        try:
            if variant == "sgc":
                h = apply_operator(op, h)
            elif variant == "pairnorm":
                h = pairnorm_step(h, op)
            else:
                if t == 1:
                    b = _centered_aggregate(op, h)
                else:
                    b = residual_combine(h, s_last, s_init, cfg, op)
                # the filter's output is a fresh array, so relu may write into it
                h = soft_spectral_filter(b, cfg.filter)
                if relu:
                    np.maximum(h, 0.0, out=h)
                if t == 1:
                    # the loop's own copies: observe may keep h, and later
                    # layers update the accumulators in place
                    s_last, s_init = h.copy(), h.copy()
                else:
                    q_pow *= cfg.q
                    if cfg.p == 0.0:
                        s_last = h
                    else:
                        s_last *= cfg.p
                        s_last += h
                    if q_pow != 0.0:
                        s_init += q_pow * h
        except GraphainError as err:
            err.args = (f"layer {t}: {err.args[0] if err.args else ''}",)
            raise
        if observe is not None:
            observe(t, h)
    return h


def pairnorm_step(h: np.ndarray, op: NormalizedOperator) -> np.ndarray:
    """Center the aggregate and rescale it to Frobenius norm sqrt(n)."""
    hp = _centered_aggregate(op, h)
    norm = float(np.linalg.norm(hp))
    if norm < 1e-300:
        raise ZeroActivationError("centered activation collapsed to zero")
    n = h.shape[0]
    return (math.sqrt(n) / norm) * hp
