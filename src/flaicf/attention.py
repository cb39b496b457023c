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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Design, ModelConfig, ModelKind
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
    logits: np.ndarray, beta: float, out=(None, None), weights: bool = True
) -> SmoothedSoftmax:
    """Smoothed softmax over the history axis (-2) of logits, per column.

    Item logits have one column, Design 2's feature logits one per
    feature. out holds the arrays the exps and the weights are written
    into (fresh arrays where None). With weights False no weights are
    divided out: a ranking block pools the exps first and divides the
    pooled sum by denom ** beta, once per feature instead of once per
    history item. Its c x m x k exps are then summed by einsum, in one
    pass, where ndarray.sum over the middle axis runs one short loop per
    candidate and history item (about 3x slower at k = 16).
    """
    if logits.shape[-2] == 0:
        raise ValueError("smoothed softmax needs at least one history item")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    clamped = not (-LOGIT_CLAMP < logits.min() and logits.max() < LOGIT_CLAMP)
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


def _row_softmax(a_hat: np.ndarray, out: np.ndarray | None = None, scale: np.ndarray | None = None):
    """Shifted softmax over the last (feature) axis, written into out when given.

    With scale (a ranking block's item weights, c x m x 1) it returns the
    rows times their scale; within ±ROW_LOGIT_BOUND it skips the row max
    and multiplies by one c x m factor, scale / (row sums by einsum).
    """
    if scale is not None and -ROW_LOGIT_BOUND < a_hat.min() and a_hat.max() < ROW_LOGIT_BOUND:
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
