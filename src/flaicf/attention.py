"""Attention layers over history items and their embedding features.

Two weighting levels appear here, and one smoothed softmax serves both:
weights are exp(v_j) divided by the sum over the history of exps, raised
to beta, independently in every column of a history x k logit array.
Item-level weights (NAIS, DeepICF and Design 1) are its one-column case
(k = 1): an item weight is a feature weight every feature shares.
Design 2's feature weights are its k = d case, one softmax per feature.
Design 1 scales a per-item feature softmax by the item-level weight.

predictors.forward_block composes the layers below into the forward
pass. They take one target (arrays shaped history x features) or a block
of candidate targets (a leading candidate axis); the *_weights
functions are views of it for one target.

The smoothed softmax is not shift invariant when beta != 1, so its logits
are clamped to [-30, 30] instead of max-subtracted; exp stays finite in
double precision over that range. When every logit lies strictly inside
the clamp (one min and one max; a NaN fails), exp reads the logits
directly and grad_mask is all True; otherwise they are checked for
finiteness (NonFiniteError) and clipped. Design 1's per-item feature
softmax is shift invariant and subtracts each row's max, except in a
ranking block whose logits all lie within ±ROW_LOGIT_BOUND: there it
folds the item weights into one factor per row, A = e * (w / sum e),
which moves the weights only by rounding.

A ranking block may skip even that min and max. ranking_bounds works out
once per model, from its parameters, a bound on every item logit and on
every feature logit any block can compute; a softmax given a bound below
its limit (bound=) reads the logits as inside without looking at them.
The same bounds mark the hidden units that no (candidate, history item)
pair can lift above 0, so ranking can drop them (evaluation.model_scorer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import AttentionMode, Design, ModelConfig, ModelKind
from .params import ParameterSet

LOGIT_CLAMP = 30.0
# Design 1's block row softmax skips its max inside this bound: with item
# weights at most e**LOGIT_CLAMP, w / sum e stays finite and normal.
ROW_LOGIT_BOUND = 600.0


class NonFiniteError(ValueError):
    """A forward pass met a NaN or infinite logit or score."""


@dataclass
class AttentionOutput:
    """Normalized weights plus the retained pre-normalization logits."""

    item_weights: np.ndarray | None = None
    feature_weights: np.ndarray | None = None
    item_logits: np.ndarray | None = None
    feature_logits: np.ndarray | None = None


@dataclass
class SmoothedSoftmax:
    """Weights of a smoothed softmax with the pieces its gradient needs.

    weights, exp and logits are shaped (..., m, k); denom, the sum of the
    exps over the history, is (..., k). weights is None where the caller
    divides by denom ** beta itself (_smoothed_parts).
    """

    weights: np.ndarray | None
    exp: np.ndarray
    denom: np.ndarray
    logits: np.ndarray

    @property
    def grad_mask(self) -> np.ndarray:
        """True where the logit clamp is inactive, so gradients pass."""
        return np.abs(self.logits) < LOGIT_CLAMP


def normalize_features(logits: np.ndarray) -> np.ndarray:
    """Softmax over the feature axis of a single history item's logits."""
    logits = np.asarray(logits, dtype=float)
    if logits.size == 0:
        raise ValueError("cannot normalize an empty logit vector")
    if not np.isfinite(logits).all():
        raise ValueError("feature logits must be finite")
    return _row_softmax(logits)


def smoothed_softmax(logits: np.ndarray, beta: float) -> np.ndarray:
    """exp(v_j) / (sum_j exp(v_j)) ** beta over a history of logits."""
    return _smoothed_parts(np.asarray(logits, dtype=float)[:, None], beta).weights[:, 0]


def _smoothed_parts(
    logits: np.ndarray, beta: float, out=(None, None), weights: bool = True, bound: float = math.inf
) -> SmoothedSoftmax:
    """Smoothed softmax over the history axis (-2) of logits, per column.

    Item logits have one column, Design 2's feature logits one per
    feature. out holds the arrays the exps and the weights are written
    into (fresh arrays where None). With weights False no weights are
    divided out: a ranking block pools the exps first and divides the
    pooled sum by denom ** beta, once per feature instead of once per
    history item. Its c x m x k exps are then summed by einsum, in one
    pass, where ndarray.sum over the middle axis runs one short loop per
    candidate and history item (about 3x slower at k = 16). A bound below
    LOGIT_CLAMP on every |logit| (ranking_bounds) stands in for the min
    and max.
    """
    if logits.shape[-2] == 0:
        raise ValueError("smoothed softmax needs at least one history item")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    clamped = not (bound < LOGIT_CLAMP or -LOGIT_CLAMP < logits.min() and logits.max() < LOGIT_CLAMP)
    if clamped and not np.isfinite(logits).all():
        raise NonFiniteError("logits must be finite")
    e = logits.clip(-LOGIT_CLAMP, LOGIT_CLAMP, out=out[0]) if clamped else logits
    e = np.exp(e, out=e if clamped else out[0])
    denom = e.sum(axis=-2) if weights else np.einsum("...jk->...k", e)
    w = np.divide(e, denom[..., None, :] ** beta, out=out[1]) if weights else None
    return SmoothedSoftmax(weights=w, exp=e, denom=denom, logits=logits)


# Design 2's column softmax, under its own name so a tracer that wraps
# predictors' names can time item and feature softmaxes apart.
_col_smoothed_parts = _smoothed_parts


def _row_softmax(a_hat: np.ndarray, out: np.ndarray | None = None, scale: np.ndarray | None = None,
                 bound: float = math.inf):
    """Shifted softmax over the last (feature) axis, written into out when given.

    With scale (a ranking block's item weights, c x m x 1) it returns the
    rows times their scale; within ±ROW_LOGIT_BOUND it skips the row max
    and multiplies by one c x m factor, scale / (row sums by einsum). A
    bound below ROW_LOGIT_BOUND on every |logit| stands in for the
    block's min and max.
    """
    if scale is not None and (bound < ROW_LOGIT_BOUND
                              or -ROW_LOGIT_BOUND < a_hat.min() and a_hat.max() < ROW_LOGIT_BOUND):
        e = np.exp(a_hat, out=out)
        return np.multiply(e, (scale[..., 0] / np.einsum("...t->...", e))[..., None], out=e)
    shifted = np.subtract(a_hat, a_hat.max(axis=-1, keepdims=True), out=out)
    np.exp(shifted, out=shifted)
    s = np.divide(shifted, shifted.sum(axis=-1, keepdims=True), out=shifted)
    return s if scale is None else np.multiply(s, scale, out=s)


def hidden_prod(p: np.ndarray, Q_hist: np.ndarray, W: np.ndarray, b: np.ndarray, out=(None, None), Wq=None):
    """Shared hidden layer over the history, elementwise-product encoding.

    For one target p (d) returns (X, Z, R): the interactions X_j = p * q_j,
    and the pre-activations and ReLU outputs, one row per history item.
    For a block of candidates (p is c x d) returns (None, Z, R) with a
    leading candidate axis, Z and R written into the arrays of out where
    given: Wq, the history and the bias folded into W (row j d' + k is
    (q_j * W_k, b_k), m d' x d+1; predictors.fold_history), makes the
    block's pre-activations one GEMM, [p, 1] @ Wq.T, and the c x m x d
    interactions are never built.
    """
    if p.ndim == 1:
        X = np.multiply(p, Q_hist)
        Z = np.matmul(X, W.T)
        np.add(Z, b, out=Z)
        return X, Z, np.maximum(Z, 0.0)
    c, d = p.shape
    p1 = np.empty((c, d + 1))
    p1[:, :d] = p
    p1[:, d] = 1.0
    Z = None if out[0] is None else out[0].reshape(c, -1)
    Z = np.matmul(p1, Wq.T, out=Z).reshape(c, Q_hist.shape[0], -1)
    return None, Z, np.maximum(Z, 0.0, out=out[1])


def hidden_concat(p: np.ndarray, Q_hist: np.ndarray, W: np.ndarray, b: np.ndarray, out=(None, None)):
    """Shared hidden layer, concatenation encoding (NAIS CONCAT mode).

    Returns (Z, R), written into the arrays of out where given.
    """
    d = p.shape[-1]
    Z = np.add((p @ W[:, :d].T)[..., None, :], Q_hist @ W[:, d:].T, out=out[0])
    np.add(Z, b, out=Z)
    return Z, np.maximum(Z, 0.0, out=out[1])


# ranking_bounds' margin for rounding: a computed sum of n products is
# within n u / (1 - n u) of the exact one, relatively, plus at most half a
# subnormal for each product that underflows; _slack takes both 16 times
# over (u = eps / 2), which covers the rounding of the bounds' own sums.
_REL = 16 * np.finfo(float).eps
_ABS = 16 * np.finfo(float).smallest_subnormal


def _slack(mass, n: int, reach=1.0):
    """How far a computed sum of n products (plus a few roundings) can rise above
    the exact one, given mass, a bound on the sum of the products' magnitudes;
    reach bounds the factor by which a later product multiplies an earlier
    product's underflow (1 where none does)."""
    return (n + 4) * (_REL * mass + _ABS * reach)


def _row_norms(A: np.ndarray) -> np.ndarray:
    """Row 2-norms of A, each row divided by its largest |entry| before it is
    squared, so no square that moves the norm underflows."""
    top = np.abs(A).max(axis=1)
    scaled = A / np.where(top > 0.0, top, 1.0)[:, None]
    return top * np.sqrt(np.einsum("ij,ij->i", scaled, scaled))


def ranking_bounds(params: ParameterSet, config: ModelConfig) -> tuple[np.ndarray, float, float]:
    """(live, item_bound, feature_bound): the hidden units a ranking block can fire, and logit bounds.

    For every candidate row p of P and history row q of Q, unit k's
    pre-activation, as hidden_prod or hidden_concat computes it, is at most
    hi_k = b_k + B_k plus _slack: B_k bounds the sum of the magnitudes of
    the dot product's terms, min(max|p| max|q| max_t |W_kt|,
    sum_t max|P_.t| max|Q_.t| |W_kt|) for PROD and
    max|p| |W_k,:d| + max|q| |W_k,d:| for CONCAT (2-norms, by
    Cauchy-Schwarz). PROD's bounds multiply in the fold's order, q by W
    before p (predictors.fold_history), so a product that underflows in
    the fold underflows no less here, and its error, which the later
    factor p scales, enters the absolute margin at most sum_t max|P_.t|
    times. A unit with hi_k <= 0 never fires; one whose row of W
    is exactly 0 reads b_k exactly, so it is dead if and only if b_k <= 0.
    live marks the other units, or, when every unit is dead, the one with
    the largest hi_k. With r = max(hi, 0) bounding the ReLU outputs, no
    item logit exceeds sum_k r_k |h_k| in magnitude, and no logit of
    feature t exceeds sum_k r_k |H_kt|: item_bound is the first and
    feature_bound the largest of the second over t, each plus _slack, and
    inf for a kind without such logits. A NaN or an infinity in P, Q, W,
    b, H or h keeps every unit live and makes both bounds nan, so every
    block checks its logits itself.
    """
    P, Q, W, b, H, h = params.P, params.Q, params.W, params.b, params.H, params.h
    if not all(np.isfinite(a).all() for a in (P, Q, W, b, H, h) if a is not None):
        return np.ones(b.size, dtype=bool), math.nan, math.nan
    d = P.shape[1]
    # a bound that overflows reads inf (or nan, as inf * 0), which keeps its units and checks
    with np.errstate(over="ignore", invalid="ignore"):
        p_norm, q_norm = _row_norms(P).max(), _row_norms(Q).max()
        if config.attention_mode is AttentionMode.CONCAT:
            mass = p_norm * _row_norms(W[:, :d]) + q_norm * _row_norms(W[:, d:])
            reach = 1.0
        else:
            absW, p_max = np.abs(W), np.abs(P).max(axis=0)
            mass = np.minimum(p_norm * (q_norm * absW.max(axis=1)), (np.abs(Q).max(axis=0) * absW) @ p_max)
            reach = 1.0 + p_max.sum()
        hi = b + np.where(W.any(axis=1), mass + _slack(mass + np.abs(b), W.shape[1], reach), 0.0)
        live = ~(hi <= 0.0)
        if not live.any():
            live[np.argmax(hi)] = True
        r = np.maximum(hi, 0.0)
        bounds = []
        for weights in (h, H):
            mass = math.inf if weights is None else (r @ np.abs(weights)).max()
            bounds.append(float(mass + _slack(mass, b.size)))
    return live, *bounds


def design1_weights(p: np.ndarray, Q_hist: np.ndarray, params: ParameterSet, beta: float) -> AttentionOutput:
    """Feature weights scaled per item by a smoothed item-level softmax.

    Row j of feature_weights is the softmax of that item's feature logits
    multiplied by the item weight b_j, so the row sums to b_j exactly.
    """
    return _block(Design.DESIGN1, p, Q_hist, params, beta).attention()


def design2_weights(p: np.ndarray, Q_hist: np.ndarray, params: ParameterSet, beta: float) -> AttentionOutput:
    """Feature weights from per-feature smoothed softmaxes over the history."""
    return _block(Design.DESIGN2, p, Q_hist, params, beta).attention()


def _block(design, p, Q_hist, params: ParameterSet, beta: float):
    """FLA_NAIS forward_block of one target p against the history rows Q_hist."""
    from .predictors import forward_block  # predictors builds on this module

    Q_hist = np.asarray(Q_hist, dtype=float)
    if Q_hist.ndim != 2 or Q_hist.shape[0] == 0:
        raise ValueError("attention weights need a nonempty history matrix")
    config = ModelConfig(model_kind=ModelKind.FLA_NAIS, design=design, d=Q_hist.shape[1], beta=beta)
    # user and target index only the deep family's biases, unused here
    return forward_block(config, params, 0, 0, np.asarray(p, dtype=float), Q_hist)
