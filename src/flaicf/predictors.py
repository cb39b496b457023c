"""Forward passes for every model kind.

All five models score a (user, target item) pair against the user's
training history, and forward_block scores every kind, for one target or
for a block of candidate targets: an empty history's constant fallback,
FISM's closed form, or the attentive chain. Every attentive kind is one
chain: the shared hidden layer over the interactions X_j = p * q_j, then
the weights, then the head.

- Weights: item weights w from the smoothed softmax of the logits R h
  (NAIS, DeepICF), kept as one column (history x 1) that every feature
  shares, or feature weights A from H (FLA: Design 2's per-feature
  smoothed softmax, or Design 1's row softmax scaled by w). Both
  smoothed softmaxes are one function over the history axis.
- Head: a sum, score = sum_j sum_t weights_jt X_jt (NAIS, FLA_NAIS), or
  the deep tower over e = sum_j weights_j * X_j plus the user's and the
  target's bias (DeepICF, FLA_DICF).

So NAIS and DeepICF are their FLA variants with weights shared by every
feature: acceptance 3 checks that uniform feature weights reduce FLA to
the item-weighted model. ModelConfig decides once which weights a kind
has (item_attention, feature_attention), and deep_layers marks the tower.

Training runs forward_block with one target (forward_cache, which
gathers the P/Q rows and keeps every intermediate the exact backward
pass needs), ranking with blocks of items (evaluation.model_scorer,
blocks of block_rows items), and the attention views read its weights.

A block of c candidates runs the same chain without building X. The
hidden layer's pre-activations are one GEMM against the user's history
folded into W (fold_history, built once per user); every kind pools one
c x d term u_c = sum_j A_cj * q_j from its weights A, so Design 2
divides by its smoothed-softmax denominators once per feature, not once
per history item; and the head is p . u (sum) or the tower over
e = p * u. A block's intermediates are c x m x d' (Z, R) and c x m x d
(feature logits and exps). Ranking budgets its blocks (BLOCK) and writes
every such intermediate into one BlockWorkspace that it reuses from
block to block, so the fields of a cache built on a workspace are valid
only until the next block. Without a workspace every array is fresh, and
a one-target cache never shares memory with another.

Empty histories fall back to a constant: 0 for FISM, NAIS and FLA_NAIS,
and the user-plus-item bias for the DeepICF family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attention import (
    AttentionOutput,
    SmoothedSoftmax,
    _col_smoothed_parts,
    _row_softmax,
    _smoothed_parts,
    hidden_concat,
    hidden_prod,
)
from .config import AttentionMode, ModelConfig, ModelKind
from .params import PQ, ParameterSet


@dataclass
class PredictionContext:
    """One scoring instance: user index, target item, history item indices.

    The history is the user's training positives with the target removed;
    a target appearing in its own history is a construction bug.
    """

    user: int
    target: int
    history: np.ndarray

    def __post_init__(self) -> None:
        self.history = np.asarray(self.history, dtype=np.int64)
        if self.history.ndim != 1:
            raise ValueError("history must be a 1-d index array")
        if np.any(self.history == self.target):
            raise ValueError(f"target item {self.target} appears in its own history")


@dataclass
class ForwardCache:
    """Every intermediate of one forward pass, along the attentive chain.

    X, Z and R are the shared hidden layer's interactions, pre-activations
    and outputs. The weights are item (item_logits, item: NAIS, DeepICF,
    Design 1; one column, history x 1) and/or feature ones (a_hat, then
    row_s for Design 1 or cols for Design 2, giving A); the fields of the
    weights a kind lacks stay None. The tower head keeps its pooled
    interaction e and its layers' deep_z and deep_u. For a block of
    candidate targets every array has a leading candidate axis and score
    holds one value per candidate; a block builds no X, Design 1's block
    no row_s, and Design 2's block keeps the exps (cols) but no weights A.
    forward_cache adds the target's and the history's rows of the P/Q
    table (pq) and their indices.
    """

    config: ModelConfig
    ctx: PredictionContext | None = None
    score: float | np.ndarray = 0.0
    empty: bool = False
    X: np.ndarray | None = None
    Z: np.ndarray | None = None
    R: np.ndarray | None = None
    item_logits: np.ndarray | None = None
    item: SmoothedSoftmax | None = None
    a_hat: np.ndarray | None = None
    row_s: np.ndarray | None = None
    cols: SmoothedSoftmax | None = None
    A: np.ndarray | None = None
    e: np.ndarray | None = None
    idx: np.ndarray | None = None
    pq: np.ndarray | None = None
    deep_z: list[np.ndarray] = field(default_factory=list)
    deep_u: list[np.ndarray] = field(default_factory=list)

    @property
    def M(self) -> np.ndarray | None:
        """The shared hidden layer's ReLU mask."""
        return None if self.Z is None else self.Z > 0.0

    def attention(self) -> AttentionOutput:
        """The attention weights and logits of a one-target cache."""
        return AttentionOutput(
            item_weights=None if self.item is None else self.item.weights[:, 0],
            feature_weights=self.A,
            item_logits=None if self.item_logits is None else self.item_logits[:, 0],
            feature_logits=self.a_hat,
        )


def fla_score(p: np.ndarray, Q_hist: np.ndarray, feature_weights: np.ndarray) -> float:
    """sum_j p . (a_j * q_j), the feature-attentive inner-product score."""
    return float(np.sum(feature_weights * (p[None, :] * Q_hist)))


def deepicf_pool(p: np.ndarray, Q_hist: np.ndarray, item_weights: np.ndarray) -> np.ndarray:
    """e = sum_j w_j (p * q_j), the scalar-attention pooled interaction."""
    return (item_weights[:, None] * (p[None, :] * Q_hist)).sum(axis=0)


def fla_pool(p: np.ndarray, Q_hist: np.ndarray, feature_weights: np.ndarray) -> np.ndarray:
    """e = sum_j p * (a_j * q_j), the feature-attention pooled interaction."""
    return (feature_weights * (p[None, :] * Q_hist)).sum(axis=0)


def deep_tower(cache: ForwardCache, e: np.ndarray, params: ParameterSet) -> float | np.ndarray:
    """ReLU tower over the pooled interaction, then the final regression."""
    u = e
    cache.deep_u = [e]
    for Wl, bl in zip(params.deep_W, params.deep_b):
        z = u @ Wl.T + bl
        u = np.maximum(z, 0.0)
        cache.deep_z.append(z)
        cache.deep_u.append(u)
    return u @ params.V


# Elements in each candidates x history x max(d, d') intermediate of one
# scoring block (Z and R are c x m x d', the feature logits and exps
# c x m x d; no c x m x d interaction tensor is built). At d = d' = 16 a
# block's (c x d+1) @ (d+1 x m*d') GEMM (fold_history) then has at most
# 2**14 * 17 multiply-adds, which OpenBLAS 0.3.31 runs on one thread (it
# split GEMMs of 435k multiply-adds and more over two threads, which ran
# 20-100x slower while the other CPU was busy), so two ranking processes
# do not run four BLAS threads on two CPUs, and each intermediate
# (128 KB) stays in cache. Against one fresh
# block of all 150 items, on the benchmark's `long` workload (FLA_NAIS
# Design 2, median history 39; 2 CPUs, OpenBLAS 0.3.31), medians of 10
# runs: pooled ranking 131 -> 347 users/s, serial 380 -> 440 users/s.
# The blocks must share one BlockWorkspace: glibc returns freed
# temporaries of this size to the OS, so a fresh set per block is faulted
# in again every block. Ranking that split in a fresh process (glibc 2.36)
# took 27-44 ms with the workspace, 56-72 ms without it, and 31-40 ms
# without it under MALLOC_TRIM_THRESHOLD_=64MB.
BLOCK = 2**14


def block_rows(config: ModelConfig, m: int, n_items: int) -> int:
    """Candidates per ranking block for a history of m items.

    FISM, which sums the history first (O(n d) for n items), and an empty
    history's constant score take all n_items in one block; an attentive
    kind takes max(1, BLOCK // (m * max(d, d'))). Never below 1, so a
    step over no items is still a step.
    """
    if config.model_kind is ModelKind.FISM or m == 0:
        return max(1, n_items)
    return max(1, min(n_items, BLOCK // (m * max(config.d, config.d_prime))))


class BlockWorkspace:
    """Arrays that forward_block writes a block's intermediates into.

    One flat buffer per intermediate, allocated on its first use, grown
    when a later block needs more and otherwise reused by every later
    block, whatever its shape. A cache built on a workspace holds views of
    these buffers, valid only until the next block. Reuse is what keeps
    ranking fast: glibc gives freed block-sized temporaries back to the
    OS, so fresh ones are faulted in again every block (BLOCK).

    item_bound and feature_bound bound the magnitude of every item and
    feature logit a block run on the workspace computes
    (attention.ranking_bounds, set by evaluation.model_scorer). Where a
    bound lies inside a softmax's limit, that softmax skips its per-block
    min and max; where it does not (inf, the default, or nan), the block
    checks its logits itself.
    """

    def __init__(self, item_bound: float = math.inf, feature_bound: float = math.inf):
        self.buffers: dict[str, np.ndarray] = {}
        self.item_bound, self.feature_bound = item_bound, feature_bound

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A view of name's buffer with the given shape."""
        n = math.prod(shape)
        buf = self.buffers.get(name)
        if buf is None or buf.size < n:
            buf = self.buffers[name] = np.empty(n)
        return buf[:n].reshape(shape)


def fold_history(
    config: ModelConfig,
    params: ParameterSet,
    Q_hist: np.ndarray,
    workspace: BlockWorkspace | None = None,
) -> np.ndarray | None:
    """The PROD hidden layer folded over one user's history, for ranking.

    Row j d' + k of Wq is (q_j * W_k, b_k) (m d' x d+1), so a block's
    pre-activations, bias included, are one GEMM, [p, 1] @ Wq.T
    (hidden_prod). Built once per user, it serves every block of that
    user's items; with a workspace it is written into the workspace's "Wq"
    buffer. None where a block needs no fold: FISM, CONCAT and an empty
    history.
    """
    m, d = Q_hist.shape
    if config.model_kind is ModelKind.FISM or config.attention_mode is AttentionMode.CONCAT or m == 0:
        return None
    d_prime = params.W.shape[0]
    shape = (m, d_prime, d + 1)
    Wq = np.empty(shape) if workspace is None else workspace.take("Wq", shape)
    np.multiply(Q_hist[:, None, :], params.W, out=Wq[..., :d])
    Wq[..., d] = params.b
    return Wq.reshape(m * d_prime, d + 1)


def forward_block(
    config: ModelConfig,
    params: ParameterSet,
    user: int,
    target: int | slice | np.ndarray,
    p: np.ndarray,
    Q_hist: np.ndarray,
    workspace: BlockWorkspace | None = None,
    Wq: np.ndarray | None = None,
) -> ForwardCache:
    """Forward pass of config's kind for one user: one target, or a block of them.

    target is the target item (an int) with p its row of P (d), or a
    slice or index array of c candidate items with p their rows (c x d);
    Q_hist holds the history's rows of Q (m x d). The deep family adds the
    user's and the target's bias. An empty history (m = 0) gives the
    kind's constant fallback. Training runs one target (forward_cache)
    and ranking a block of items (_block_chain); a candidate's score in a
    block equals its one-target score up to rounding.

    For a block, Wq is the user's fold_history (built here when not
    given), and with a workspace every candidate x history intermediate
    is written into its buffers, so the cache's fields are valid only
    until the next block run on it; the score is always a fresh array,
    bitwise equal to the one computed without a workspace.
    """
    m = Q_hist.shape[0]
    tower = config.deep_layers is not None
    bias = params.b_user[user] + params.b_item[target] if tower else None
    if m == 0:
        return ForwardCache(config, score=np.zeros(p.shape[:-1]) if bias is None else bias, empty=True)
    if config.model_kind is ModelKind.FISM:
        # one target sums the m products, as training always has; a block
        # sums the history first, O(c d) instead of O(c m d)
        summed = (Q_hist @ p).sum() if p.ndim == 1 else p @ Q_hist.sum(axis=0)
        return ForwardCache(config, score=m ** (-config.alpha) * summed)
    if p.ndim == 2:
        return _block_chain(config, params, p, Q_hist, workspace or BlockWorkspace(), Wq, bias)

    cache = ForwardCache(config=config)
    if config.attention_mode is AttentionMode.CONCAT:
        cache.Z, cache.R = hidden_concat(p, Q_hist, params.W, params.b)
        # the head reads the interactions that PROD's hidden layer builds
        cache.X = np.multiply(p[None, :], Q_hist)
    else:
        cache.X, cache.Z, cache.R = hidden_prod(p, Q_hist, params.W, params.b)

    if config.item_attention:
        cache.item_logits = np.matmul(cache.R, params.h[:, None])
        cache.item = _smoothed_parts(cache.item_logits, config.beta)
    if config.feature_attention:
        cache.a_hat = np.matmul(cache.R, params.H)
        if config.item_attention:
            cache.row_s = _row_softmax(cache.a_hat)
            cache.A = np.multiply(cache.item.weights, cache.row_s)
        else:
            cache.cols = _col_smoothed_parts(cache.a_hat, config.beta)
            cache.A = cache.cols.weights
    weights = cache.item.weights if cache.A is None else cache.A

    if tower:
        cache.e = np.einsum("...md,...md->...d", weights, cache.X)
        cache.score = deep_tower(cache, cache.e, params) + bias
    else:
        cache.score = np.multiply(weights, cache.X).sum(axis=(-2, -1))
    return cache


def _block_chain(
    config: ModelConfig,
    params: ParameterSet,
    p: np.ndarray,
    Q_hist: np.ndarray,
    ws: BlockWorkspace,
    Wq: np.ndarray | None,
    bias: np.ndarray | None,
) -> ForwardCache:
    """The attentive chain for a block of c candidates, without X.

    Every kind pools one c x d term, u_c = sum_j A_cj * q_j, with A its
    weights: the item weights (u = w @ Q_hist), Design 1's w * row
    softmax (one factor w / row sum per row, _row_softmax), or Design 2's
    exps, whose pooled sum is divided by denom ** beta once per feature.
    The sum head is then p . u and the tower reads e = p * u, both equal
    to the one-target head on X_j = p * q_j. The block's intermediates are
    c x m x d' (Z, R) and c x m x d (feature logits, exps, weights), all
    in ws.
    """
    cm = (p.shape[0], Q_hist.shape[0])
    cm1, cmd, cmdp = cm + (1,), cm + (Q_hist.shape[1],), cm + (params.W.shape[0],)
    cache = ForwardCache(config=config)
    out = (ws.take("Z", cmdp), ws.take("R", cmdp))
    if config.attention_mode is AttentionMode.CONCAT:
        cache.Z, cache.R = hidden_concat(p, Q_hist, params.W, params.b, out)
    else:
        if Wq is None:
            Wq = fold_history(config, params, Q_hist, ws)
        _, cache.Z, cache.R = hidden_prod(p, Q_hist, params.W, params.b, out, Wq)

    if config.item_attention:
        cache.item_logits = np.matmul(cache.R, params.h[:, None], out=ws.take("item_logits", cm1))
        out = (ws.take("item_exp", cm1), ws.take("item_weights", cm1))
        cache.item = _smoothed_parts(cache.item_logits, config.beta, out, bound=ws.item_bound)
    if config.feature_attention:
        cache.a_hat = ws.take("a_hat", cmd)  # one GEMM, faster than c batched ones at small m
        np.matmul(cache.R.reshape(-1, cmdp[-1]), params.H, out=cache.a_hat.reshape(-1, cmd[-1]))
        if config.item_attention:
            cache.A = _row_softmax(cache.a_hat, ws.take("A", cmd), cache.item.weights, ws.feature_bound)
            pooled = np.einsum("cjt,jt->ct", cache.A, Q_hist)
        else:
            out = (ws.take("col_exp", cmd), None)
            cache.cols = _col_smoothed_parts(cache.a_hat, config.beta, out, weights=False,
                                             bound=ws.feature_bound)
            pooled = np.einsum("cjt,jt->ct", cache.cols.exp, Q_hist)
            pooled /= cache.cols.denom ** config.beta
    else:
        pooled = cache.item.weights[..., 0] @ Q_hist

    if config.deep_layers is not None:
        cache.e = p * pooled
        cache.score = deep_tower(cache, cache.e, params) + bias
    else:
        cache.score = np.einsum("ct,ct->c", p, pooled)
    return cache


def forward_cache(
    ctx: PredictionContext,
    params: ParameterSet,
    config: ModelConfig,
    pq: np.ndarray | None = None,
) -> ForwardCache:
    """Run one forward pass of config's kind, retaining intermediates for backward.

    The target's and the history's rows are gathered with one index into
    the P/Q table pq (params' PQ segment when not given).
    """
    if pq is None:
        pq = params.get(PQ)
    hist = ctx.history
    idx = np.empty(hist.size + 1, dtype=np.int64)
    idx[0] = ctx.target
    np.add(hist, pq.shape[0] // 2, out=idx[1:])
    rows = pq.take(idx, axis=0)
    cache = forward_block(config, params, ctx.user, ctx.target, rows[0], rows[1:])
    cache.score = float(cache.score)
    cache.ctx, cache.idx, cache.pq = ctx, idx, rows
    return cache


def predict_fism(ctx: PredictionContext, params: ParameterSet, alpha: float) -> float:
    """History-length-normalized sum of target-history inner products."""
    config = ModelConfig(model_kind=ModelKind.FISM, d=params.P.shape[1], alpha=alpha)
    return forward_cache(ctx, params, config).score


def predict_nais(ctx: PredictionContext, params: ParameterSet, config: ModelConfig) -> float:
    return predict(ModelKind.NAIS, ctx, params, config)


def predict_fla(ctx: PredictionContext, params: ParameterSet, config: ModelConfig) -> float:
    return predict(ModelKind.FLA_NAIS, ctx, params, config)


def deepicf_forward(ctx: PredictionContext, params: ParameterSet, config: ModelConfig) -> float:
    return predict(ModelKind.DEEPICF, ctx, params, config)


def fla_dicf_forward(ctx: PredictionContext, params: ParameterSet, config: ModelConfig) -> float:
    return predict(ModelKind.FLA_DICF, ctx, params, config)


def predict(
    model_kind: ModelKind,
    ctx: PredictionContext,
    params: ParameterSet,
    config: ModelConfig,
) -> float:
    """The score of model_kind, with config's other hyperparameters."""
    return forward_cache(ctx, params, config.for_kind(model_kind)).score


def attention_for(
    ctx: PredictionContext,
    params: ParameterSet,
    config: ModelConfig,
) -> AttentionOutput:
    """Attention weights a trained model assigns to one context's history."""
    if config.model_kind is ModelKind.FISM:
        raise ValueError("FISM assigns no attention weights")
    cache = forward_cache(ctx, params, config)
    if cache.empty:
        raise ValueError("attention is undefined for an empty history")
    return cache.attention()
