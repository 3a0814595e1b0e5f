"""Layer dynamics: the skip-connection mix, the Pairnorm baseline step, and
the one deep forward pass that runs all three variants.  Every whitening
step, hard whitening included, is ``linalg.soft_spectral_filter``.

The forward pass is one flat loop over the layers.  It is non-parametric (no
per-layer weights), which keeps arbitrarily deep runs cheap and exactly
analyzable; relu, when chosen, follows the soft filter in the rsoft pass
only.  The fuzzy residual and initial accumulators are two arrays and a decay
power held by the loop, each array held scaled by its mixing weight (beta
and gamma), so the skip mix is two adds.  They start as scaled copies of the
first layer and are updated in place, so a layer handed to the observer
never changes.  The loop keeps no layers: each layer is observed as it is
made, so memory stays O(n d) at any depth.

At a run's sizes a layer costs mostly call overhead and allocation, so the
pass allocates its (n, d) workspace once: the operator product writes into
it and is mixed there, and once the filter has read it, it holds each
scaled layer added to an accumulator.  Each layer itself is still a fresh
array, the filter's output.  rsoft and pairnorm multiply by the centred
operator, so the product comes out centred; sgc multiplies by the plain
one.  The product is ``graph.apply_operator``: one BLAS GEMM on the dense
form of a small, well-filled operator (``graph.dense_pays``), scipy's CSC
kernel otherwise.
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
    NonFiniteActivationError,
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
_EPS = float(np.finfo(np.float64).eps)


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
        for name, c in zip(("alpha", "beta", "gamma"), coeffs):
            if c < 0.0 or not math.isfinite(c):
                raise InvalidCoefficientsError(f"{name} must be nonnegative, got {c}")
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


def residual_combine(
    h_t: np.ndarray,
    s_last: np.ndarray,
    s_init: np.ndarray,
    cfg: PropagationConfig,
    op: NormalizedOperator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """alpha op h_t + s_last + s_init: the centred aggregate of h_t mixed
    with the residual and initial accumulators, held scaled by beta and
    gamma.  ``op`` is a centred operator.

    Zero coefficients skip their term entirely, which keeps the degenerate
    mixes (e.g. alpha = 1) bit-exact.  The result is written into ``out``, a
    C-contiguous float64 array of the terms' shape that overlaps none of
    them, a fresh one when None.
    """
    if h_t.shape != s_last.shape or h_t.shape != s_init.shape:
        raise DimensionMismatchError("skip-connection terms must share a shape")
    terms = [t for c, t in ((cfg.beta, s_last), (cfg.gamma, s_init)) if c != 0.0]
    if cfg.alpha != 0.0:
        out = apply_operator(op, h_t, out)
        if cfg.alpha != 1.0:
            out *= cfg.alpha
    else:
        out = np.positive(terms.pop(0), out=out)  # a copy
    for term in terms:
        out += term
    return out


def operator_spec(cfg: PropagationConfig, variant: str) -> tuple:
    """(mode, centered), the ``normalized_adjacency`` arguments of the
    operator ``variant`` multiplies by: rsoft and pairnorm centre, sgc not."""
    return cfg.operator_mode, variant != "sgc"


def run_fuzzy_r_softgraphain(
    g: Graph,
    cfg: PropagationConfig,
    reducer: np.ndarray | None = None,
    variant: str = "rsoft",
    observe: Callable[[int, np.ndarray], None] | None = None,
    op: NormalizedOperator | None = None,
) -> np.ndarray:
    """The deep forward pass of every variant; returns the last layer.

    ``variant`` selects the dynamics.  "rsoft" is the full model: the first
    layer runs without skip connections, and raises as pairnorm does when
    the norm of its centred product is not finite or is zero to rounding
    (``_centred_norm``), since the filter would whiten that rounding noise;
    later layers mix the centered aggregate with the fuzzy accumulators,
    apply the soft filter and the activation, then advance the accumulators.
    "sgc" is plain repeated aggregation, which raises at the first layer
    when the norm of its product is not finite (``_finite_norm``), and
    "pairnorm" the unit-scale centering-and-rescaling step.  ``reducer``
    maps raw features to the working width; without it the feature width
    is used as-is.  ``op`` is the operator of ``g``'s edges that ``variant``
    multiplies by (``operator_spec``), built here when None.
    ``observe(t, H_t)`` is called once per layer t = 1..L.  A GraphainError
    raised in a step carries the failing layer index.

    The accumulators start at the first layer: s_last = p s_last + H_t and
    s_init = s_init + q^(t-1) H_t, the decay power advanced before its sum,
    each held scaled by its weight (beta s_last and gamma s_init).  p == 0
    assigns instead of summing and a vanished decay power adds nothing, so
    p = q = 0 is bit-exactly the vanilla residual (last layer) and initial
    (H_1) terms; an accumulator of weight zero is not kept up.
    """
    if variant not in VARIANTS:
        raise GraphainError(f"unknown variant {variant!r}")
    if op is None:
        op = normalized_adjacency(g, *operator_spec(cfg, variant))
    x = g.features if reducer is None else g.features @ np.asarray(reducer, float)
    if variant == "rsoft" and cfg.filter.d0 > x.shape[1]:
        raise DimensionMismatchError(
            f"filter d0={cfg.filter.d0} exceeds working width {x.shape[1]}"
        )
    relu = cfg.activation == "relu"
    beta, gamma = cfg.beta, cfg.gamma
    h = x
    # the step's workspace: the product, mixed in place, then scratch for the
    # accumulator updates; every layer is a fresh array, as observe may keep it
    agg = np.empty(x.shape)
    q_pow = 1.0
    for t in range(1, cfg.layers + 1):
        try:
            if variant == "sgc":
                h = apply_operator(op, h)
                if t == 1:
                    _finite_norm(h, "activation")
            elif variant == "pairnorm":
                h = pairnorm_step(h, op, agg)
            else:
                if t == 1:
                    b = apply_operator(op, h, agg)
                    _centred_norm(b, h)
                else:
                    b = residual_combine(h, s_last, s_init, cfg, op, agg)
                # the filter's output is a fresh array, so relu may write into it
                h = soft_spectral_filter(b, cfg.filter)
                if relu:
                    np.maximum(h, 0.0, out=h)
                if t == 1:
                    s_last, s_init = h * beta, h * gamma
                else:
                    q_pow *= cfg.q
                    if beta != 0.0 and cfg.p == 0.0:
                        np.multiply(h, beta, out=s_last)
                    elif beta != 0.0:
                        s_last *= cfg.p
                        s_last += np.multiply(h, beta, out=agg)
                    if gamma != 0.0 and q_pow != 0.0:
                        s_init += np.multiply(h, gamma * q_pow, out=agg)
        except GraphainError as err:
            err.args = (f"layer {t}: {err.args[0] if err.args else ''}",)
            raise
        if observe is not None:
            observe(t, h)
    return h


def _finite_norm(hp: np.ndarray, what: str) -> float:
    """The Frobenius norm of hp, the ``what`` of a layer.

    A norm that is not finite, as when the squares of large features
    overflow, raises ``NonFiniteActivationError``.  The norm is an einsum
    reduction, not a BLAS dot product, whose bytes change with the thread
    count.
    """
    with np.errstate(over="ignore"):  # an overflow fails the check below
        norm = math.sqrt(np.einsum("ij,ij->", hp, hp))
    if not math.isfinite(norm):
        raise NonFiniteActivationError(f"norm of the {what} is {norm}, not finite")
    return norm


def _centred_norm(hp: np.ndarray, h: np.ndarray) -> float:
    """The Frobenius norm of hp, the centred product of h, when it is finite
    (``_finite_norm``).  A norm at most n eps |h|_F, the size of the
    product's rounding error, as when the columns of h are constant and the
    exact product is zero, raises ``ZeroActivationError``.
    """
    norm = _finite_norm(hp, "centered activation")
    with np.errstate(over="ignore"):  # a floor of inf rejects any norm
        floor = h.shape[0] * _EPS * math.sqrt(np.einsum("ij,ij->", h, h))
    if norm < 1e-300 or norm <= floor:
        raise ZeroActivationError("centered activation collapsed to zero")
    return norm


def pairnorm_step(
    h: np.ndarray, op: NormalizedOperator, out: np.ndarray | None = None
) -> np.ndarray:
    """The centred aggregate (``op`` is a centred operator) rescaled to
    Frobenius norm sqrt(n), as a fresh array; the aggregate goes to ``out``
    when it is given.  A norm that is not finite or zero to rounding raises
    (``_centred_norm``).
    """
    hp = apply_operator(op, h, out)
    return (math.sqrt(h.shape[0]) / _centred_norm(hp, h)) * hp
