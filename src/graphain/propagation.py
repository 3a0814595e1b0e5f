"""Layer dynamics: residual and fuzzy connections, the Pairnorm baseline
step, and the one deep forward pass that runs all three variants.  Every
whitening step, hard whitening included, is ``linalg.soft_spectral_filter``.

The forward pass is non-parametric (no per-layer weights), which keeps
arbitrarily deep runs cheap and exactly analyzable; relu, when chosen, follows
the soft filter in the rsoft pass only.  It keeps no layers: each layer is
observed as it is made, so memory stays O(n d) at any depth.
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
    apply_centering,
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


@dataclass(frozen=True)
class LayerTrace:
    """Running skip-connection accumulators."""

    s_last: np.ndarray
    s_init: np.ndarray
    q_pow: float


def init_trace(h1: np.ndarray) -> LayerTrace:
    """Both fuzzy accumulators start at the first layer, with unit decay power."""
    return LayerTrace(s_last=h1, s_init=h1, q_pow=1.0)


def fuzzy_update(trace: LayerTrace, h_t: np.ndarray, p: float, q: float) -> LayerTrace:
    """Advance the fuzzy accumulators after a new layer.

    The decay power is updated before the initial-connection sum.  p == 0 and
    a vanished decay power short-circuit to plain assignment so the reduction
    to vanilla residual and initial connections is bit-exact.
    """
    q_pow = trace.q_pow * q
    if p == 0.0:
        s_last = h_t
    else:
        s_last = p * trace.s_last + h_t
    if q_pow == 0.0:
        s_init = trace.s_init
    else:
        s_init = trace.s_init + q_pow * h_t
    return LayerTrace(s_last=s_last, s_init=s_init, q_pow=q_pow)


def residual_combine(
    h_t: np.ndarray,
    s_last: np.ndarray,
    s_init: np.ndarray,
    cfg: PropagationConfig,
    op: NormalizedOperator,
) -> np.ndarray:
    """Mix the centered aggregate with the residual and initial accumulators.

    Zero coefficients skip their term entirely, which keeps the degenerate
    mixes (e.g. alpha = 1) bit-exact.
    """
    if h_t.shape != s_last.shape or h_t.shape != s_init.shape:
        raise DimensionMismatchError("skip-connection terms must share a shape")
    out = None
    terms = (
        (cfg.alpha, lambda: apply_centering(apply_operator(op, h_t))),
        (cfg.beta, lambda: s_last),
        (cfg.gamma, lambda: s_init),
    )
    for coeff, make in terms:
        if coeff == 0.0:
            continue
        term = make()
        part = term if coeff == 1.0 else coeff * term
        out = part.copy() if out is None else out + part
    return out


def _activation_fn(name: str):
    if name == "relu":
        return lambda m: np.maximum(m, 0.0)
    return lambda m: m


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
    """
    if variant not in VARIANTS:
        raise GraphainError(f"unknown variant {variant!r}")
    op = normalized_adjacency(g, cfg.operator_mode)
    x = g.features if reducer is None else g.features @ np.asarray(reducer, float)
    if variant == "rsoft" and cfg.filter.d0 > x.shape[1]:
        raise DimensionMismatchError(
            f"filter d0={cfg.filter.d0} exceeds working width {x.shape[1]}"
        )
    act = _activation_fn(cfg.activation)
    trace = None

    def rsoft(h: np.ndarray, t: int) -> np.ndarray:
        nonlocal trace
        if t == 1:
            b = apply_centering(apply_operator(op, h))
        else:
            b = residual_combine(h, trace.s_last, trace.s_init, cfg, op)
        h = act(soft_spectral_filter(b, cfg.filter))
        trace = init_trace(h) if t == 1 else fuzzy_update(trace, h, cfg.p, cfg.q)
        return h

    step = {
        "rsoft": rsoft,
        "sgc": lambda h, t: apply_operator(op, h),
        "pairnorm": lambda h, t: pairnorm_step(h, op),
    }[variant]
    h = x
    for t in range(1, cfg.layers + 1):
        try:
            h = step(h, t)
        except GraphainError as err:
            err.args = (f"layer {t}: {err.args[0] if err.args else ''}",)
            raise
        if observe is not None:
            observe(t, h)
    return h


def pairnorm_step(h: np.ndarray, op: NormalizedOperator) -> np.ndarray:
    """Center the aggregate and rescale it to Frobenius norm sqrt(n)."""
    hp = apply_centering(apply_operator(op, h))
    norm = float(np.linalg.norm(hp))
    if norm < 1e-300:
        raise ZeroActivationError("centered activation collapsed to zero")
    n = h.shape[0]
    return (math.sqrt(n) / norm) * hp
