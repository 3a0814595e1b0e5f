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

At a run's sizes a layer costs mostly call overhead and allocation, so the
pass allocates its two (n, d) workspaces once: the operator product writes
into one and the aggregate is centred and mixed there, and the other holds
each scaled skip term.  Each layer itself is still a fresh array, the
filter's output.  The product is ``graph.apply_operator``: one BLAS GEMM on
the dense form of a small, well-filled operator (``graph.dense_pays``, as on
3 x 100 nodes at the default degrees), scipy's CSR kernel otherwise; every
variant of one graph takes the same one.
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
# The centering subtract runs over blocks of _BLOCK_ROWS rows from _LONG_ROWS rows on.
_BLOCK_ROWS, _LONG_ROWS = 64, 1024


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


def _centered_aggregate(
    op: NormalizedOperator, h: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``apply_centering(apply_operator(op, h))`` bit for bit, centred in
    place where the operator product wrote it (``out`` when given).

    The column means are ``mean``'s own sum and divide.  On the C-ordered
    product ``einsum`` adds the rows in order, as ``np.add.reduce(axis=0)``
    does, at about a third of its cost at n = 3000, d = 8; a single column is
    one contiguous run, which ``add.reduce`` sums pairwise, so it keeps
    ``add.reduce``.

    Subtracting the d means from rows of d values runs numpy's inner loop d
    values at a time.  From ``_LONG_ROWS`` rows on, the leading rows are
    viewed as blocks of ``_BLOCK_ROWS`` rows and the means tiled to one
    block, so the loop runs over ``_BLOCK_ROWS`` * d values; each element is
    still one subtract of its column's mean, so the bits are those of the
    broadcast subtract.  At n = 3000, d = 8 that halves the subtract; below
    about a thousand rows the extra calls cost more than they save.
    """
    out = apply_operator(op, h, out)
    n, d = out.shape
    if d == 1:
        sums = np.add.reduce(out, axis=0)
    else:
        sums = np.einsum("ij->j", out)
    sums /= n
    if n >= _LONG_ROWS:
        blocked = n - n % _BLOCK_ROWS
        tile = np.empty((_BLOCK_ROWS, d))
        tile[...] = sums
        block = out[:blocked].reshape(-1, _BLOCK_ROWS, d)
        block -= tile
        out[blocked:] -= sums
    else:
        out -= sums
    return out


def residual_combine(
    h_t: np.ndarray,
    s_last: np.ndarray,
    s_init: np.ndarray,
    cfg: PropagationConfig,
    op: NormalizedOperator,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Mix the centered aggregate with the residual and initial accumulators.

    Zero coefficients skip their term entirely, which keeps the degenerate
    mixes (e.g. alpha = 1) bit-exact.  The result is written into ``out`` and
    each scaled term into ``work``: C-contiguous float64 arrays of the terms'
    shape that overlap none of them, fresh ones when None.
    """
    if h_t.shape != s_last.shape or h_t.shape != s_init.shape:
        raise DimensionMismatchError("skip-connection terms must share a shape")
    if out is None:
        out = np.empty(h_t.shape)
    if work is None:
        work = np.empty(h_t.shape)
    first = True
    if cfg.alpha != 0.0:
        _centered_aggregate(op, h_t, out)
        if cfg.alpha != 1.0:
            out *= cfg.alpha
        first = False
    for coeff, term in ((cfg.beta, s_last), (cfg.gamma, s_init)):
        if coeff == 0.0:
            continue
        part = term if coeff == 1.0 else np.multiply(term, coeff, out=work)
        if first:
            np.copyto(out, part)
            first = False
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
    # the step's workspaces: the operator product, centred and mixed in
    # place, and the scaled terms; every layer is a fresh array, as observe
    # may keep it
    agg, work = np.empty(x.shape), np.empty(x.shape)
    s_last = s_init = None
    q_pow = 1.0
    for t in range(1, cfg.layers + 1):
        try:
            if variant == "sgc":
                h = apply_operator(op, h)
            elif variant == "pairnorm":
                h = pairnorm_step(h, op, agg)
            else:
                if t == 1:
                    b = _centered_aggregate(op, h, agg)
                else:
                    b = residual_combine(h, s_last, s_init, cfg, op, agg, work)
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
                        s_init += np.multiply(h, q_pow, out=work)
        except GraphainError as err:
            err.args = (f"layer {t}: {err.args[0] if err.args else ''}",)
            raise
        if observe is not None:
            observe(t, h)
    return h


def pairnorm_step(
    h: np.ndarray, op: NormalizedOperator, out: np.ndarray | None = None
) -> np.ndarray:
    """Center the aggregate and rescale it to Frobenius norm sqrt(n), as a
    fresh array; the centred aggregate goes to ``out`` when it is given.

    A norm that is not finite, as when the squares of large features
    overflow, raises ``NonFiniteActivationError``; a zero one raises
    ``ZeroActivationError``.
    """
    hp = _centered_aggregate(op, h, out)
    with np.errstate(over="ignore"):  # checked next
        norm = float(np.linalg.norm(hp))
    if not math.isfinite(norm):
        raise NonFiniteActivationError(
            f"norm of the centered activation is {norm}, not finite"
        )
    if norm < 1e-300:
        raise ZeroActivationError("centered activation collapsed to zero")
    n = h.shape[0]
    return (math.sqrt(n) / norm) * hp
