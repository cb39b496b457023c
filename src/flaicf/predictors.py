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

A block of c candidates is scored for a group of users at once, without
building X. Every (candidate, history item) pair's hidden layer, logits
and exps depend only on the two items; only the smoothed softmax's sums
over a history depend on the user. So a block runs the chain once
against the m history rows the group shares (the union of its users'
histories, folded into W once per group by fold_history, so the hidden
layer is one GEMM) and then pools each pair term per user with one
sparse product by the group's g x m history indicator: a numerator
sum_j T_j and a denominator sum_j B_j per (user, candidate), with
pooled = num / den ** beta. One user's block is the same chain, whose
pair terms are summed over the rows instead. A block's intermediates are
c x m x d' (Z, R) and c x m x d (feature logits and exps). Ranking
budgets its blocks (BLOCK), runs a block's chain over a long shared
history in runs of rows within that budget, and writes every such
intermediate into one BlockWorkspace that it reuses from block to block,
so the fields of a cache built on a workspace are valid only until the
next block. Without a workspace every array is fresh, and a one-target
cache never shares memory with another.

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
    candidate targets every pair array has a leading candidate axis, and
    score holds one value per candidate (users x candidates for a group).
    A block builds no X and no weights: item keeps its exps only, Design
    1's A is its row softmax scaled by the item exps (no row_s), Design
    2's cols keeps its exps, and the tower's e is (users * candidates) x d.
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
# c x m x d; no c x m x d interaction tensor is built), m being the
# history rows a group of users shares. At d = d' = 16 a block's
# (c x d+1) @ (d+1 x m*d') GEMM (fold_history) then has at most
# 2**14 * 17 multiply-adds, which OpenBLAS 0.3.31 runs on one thread (it
# split GEMMs of 435k multiply-adds and more over two threads, which ran
# 20-100x slower while the other CPU was busy), so two ranking processes
# do not run four BLAS threads on two CPUs, and each intermediate
# (128 KB) stays in cache. The same budget caps the users x candidates x
# 2d sums a group's block pools (block_rows). Where even one candidate
# exceeds it against a group's shared history (more than BLOCK / max(d, d')
# rows, as at ML-1M's shape), _block_chain runs the chain over the history
# in runs of rows within it and pools once. Without the runs, ranking two
# ML-1M-shaped groups of 1131 users (NAIS, 2 CPUs) took 8.5 s serially and
# 30.8 s with 2 workers, whose 1 x 17 @ 17 x 59296 products each went to
# two BLAS threads (5.9 s with OPENBLAS_NUM_THREADS=1); with the runs,
# 10.6 s and 6.1 s. Against one fresh
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
    """Candidates per ranking block for m rows: a history's length, or for
    a group the larger of its shared history's length and its user count.

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
    """The PROD hidden layer folded over the history rows Q_hist, for ranking.

    Row j d' + k of Wq is (q_j * W_k, b_k) (m d' x d+1), so a block's
    pre-activations, bias included, are one GEMM, [p, 1] @ Wq.T
    (hidden_prod). Built once per group of users over the history rows
    they share, it serves every block of items; with a workspace it is
    written into the workspace's "Wq" buffer. None where a block needs no
    fold: FISM, CONCAT and an empty history.
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
    user: int | np.ndarray,
    target: int | slice | np.ndarray,
    p: np.ndarray,
    Q_hist: np.ndarray,
    workspace: BlockWorkspace | None = None,
    Wq: np.ndarray | None = None,
    ind=None,
) -> ForwardCache:
    """Forward pass of config's kind for one user: one target, or a block of them.

    target is the target item (an int) with p its row of P (d), or a
    slice or index array of c candidate items with p their rows (c x d);
    Q_hist holds the history's rows of Q (m x d). The deep family adds the
    user's and the target's bias. An empty history (m = 0) gives the
    kind's constant fallback. Training runs one target (forward_cache)
    and ranking a block of items (_block_chain); a candidate's score in a
    block equals its one-target score up to rounding.

    A block may score a group of g users at once: ind, a g x m CSR
    indicator with no empty row, marks each user's own rows of Q_hist,
    user is the users as a column (g x 1) and the score is g x c. Without
    ind the block is one user's, whose history is every row. Wq is
    fold_history of Q_hist (built here when not given), and with a
    workspace every candidate x history intermediate is written into its
    buffers, so the cache's fields are valid only until the next block
    run on it; the score is always a fresh array, bitwise equal to the
    one computed without a workspace.
    """
    m = Q_hist.shape[0]
    tower = config.deep_layers is not None
    bias = params.b_user[user] + params.b_item[target] if tower else None
    if m == 0:
        return ForwardCache(config, score=np.zeros(p.shape[:-1]) if bias is None else bias, empty=True)
    if p.ndim == 2:
        cache = _block_chain(config, params, p, Q_hist, ind, workspace or BlockWorkspace(), Wq, bias)
        if ind is None:
            cache.score = cache.score[0]
        return cache
    if config.model_kind is ModelKind.FISM:
        return ForwardCache(config, score=m ** (-config.alpha) * (Q_hist @ p).sum())

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
    ind,
    ws: BlockWorkspace,
    Wq: np.ndarray | None,
    bias: np.ndarray | None,
) -> ForwardCache:
    """A block of c candidates for a group of users, without X or weights.

    ind is the group's g x m CSR history indicator over the rows of
    Q_hist, or None for one user whose history is every row. FISM scores
    the group as m_u ** -alpha (ind @ Q_hist) @ p.T. An attentive kind
    computes each (candidate, history item) pair term once (_pair_terms),
    then pools it per user: a numerator sum_j T_j and a denominator
    sum_j B_j, and pooled = num / den ** beta.
    - NAIS, DeepICF: B is the item exps, T the exps times q_j.
    - Design 1: B is the item exps, T its row softmax scaled by those
      exps (_row_softmax) times q_j.
    - Design 2: B is the column exps, one per feature, T those times q_j.
    A sum head whose denominator is one per (user, candidate), NAIS and
    Design 1, folds p into the numerator first, so T is one column
    (T_j . p) and pooled is the score; otherwise the sum head is p . pooled
    and the tower reads e = p * pooled, both equal to the one-target head
    on X_j = p * q_j. The terms are written history-major, m x c x k,
    into one workspace buffer (_write_pairs), so one sparse product by ind
    pools them all, or for one user one sum over the rows. The chain runs
    over the history rows in runs that keep its c x run x d' (Z, R) and
    c x run x d (feature logits and exps) intermediates within BLOCK
    elements, so a group's long shared history keeps every BLAS call on
    one thread; the cache's pair fields hold the last run's.
    """
    if config.model_kind is ModelKind.FISM:
        if ind is None:  # one user: sum the history first, O(c d) instead of O(c m d)
            summed = p @ Q_hist.sum(axis=0)
            return ForwardCache(config, score=(Q_hist.shape[0] ** (-config.alpha) * summed)[None])
        m_u = np.diff(ind.indptr)
        return ForwardCache(config, score=(m_u ** (-config.alpha))[:, None] * ((ind @ Q_hist) @ p.T))
    c, (m, d) = p.shape[0], Q_hist.shape
    d_prime = params.W.shape[0]
    if Wq is None and config.attention_mode is AttentionMode.PROD:
        Wq = fold_history(config, params, Q_hist, ws)
    tower = config.deep_layers is not None
    kd = d if config.feature_attention and not config.item_attention else 1
    kn = d if tower or kd > 1 else 1
    pair = ws.take("pair", (m, c, kn + kd))
    run = max(1, BLOCK // (c * max(d, d_prime)))  # history rows per pass of the chain
    for lo in range(0, m, run):
        rows = slice(lo, lo + run)
        Wq_rows = None if Wq is None else Wq[lo * d_prime:(lo + run) * d_prime]
        cache, terms, den = _pair_terms(config, params, p, Q_hist[rows], ws, Wq_rows)
        _write_pairs(terms, den, Q_hist[rows], p, kn, pair[rows], ws)
    pair = pair.reshape(m, -1)
    # one user's indicator is one all-ones row: its product adds the rows in order, as sum does
    sums = (pair.sum(axis=0) if ind is None else ind @ pair).reshape(-1, c, kn + kd)
    pooled = sums[..., :kn] / sums[..., kn:] ** config.beta

    if tower:
        cache.e = (p * pooled).reshape(-1, d)
        cache.score = deep_tower(cache, cache.e, params).reshape(-1, c) + bias
    elif kn == 1:
        cache.score = pooled[..., 0]
    else:
        cache.score = np.einsum("gct,ct->gc", pooled, p)
    return cache


def _pair_terms(
    config: ModelConfig,
    params: ParameterSet,
    p: np.ndarray,
    Q_hist: np.ndarray,
    ws: BlockWorkspace,
    Wq: np.ndarray | None,
) -> tuple[ForwardCache, np.ndarray, np.ndarray]:
    """The chain of _block_chain over history rows Q_hist (Wq their fold):
    the cache of its intermediates, and each pair's weight terms and
    denominator terms (c x m x k)."""
    c, (m, d) = p.shape[0], Q_hist.shape
    cm1, cmd, cmdp = (c, m, 1), (c, m, d), (c, m, params.W.shape[0])
    cache = ForwardCache(config=config)
    out = (ws.take("Z", cmdp), ws.take("R", cmdp))
    if config.attention_mode is AttentionMode.CONCAT:
        cache.Z, cache.R = hidden_concat(p, Q_hist, params.W, params.b, out)
    else:
        _, cache.Z, cache.R = hidden_prod(p, Q_hist, params.W, params.b, out, Wq)

    if config.item_attention:
        cache.item_logits = np.matmul(cache.R, params.h[:, None], out=ws.take("item_logits", cm1))
        cache.item = _smoothed_parts(cache.item_logits, config.beta, (ws.take("item_exp", cm1), None),
                                     weights=False, bound=ws.item_bound)
        terms = den = cache.item.exp
    if config.feature_attention:
        cache.a_hat = ws.take("a_hat", cmd)  # one GEMM, faster than c batched ones at small m
        np.matmul(cache.R.reshape(-1, cmdp[-1]), params.H, out=cache.a_hat.reshape(-1, d))
        if config.item_attention:
            terms = cache.A = _row_softmax(cache.a_hat, ws.take("A", cmd), den, ws.feature_bound)
        else:
            cache.cols = _col_smoothed_parts(cache.a_hat, config.beta, (ws.take("col_exp", cmd), None),
                                             weights=False, bound=ws.feature_bound)
            terms = den = cache.cols.exp
    return cache, terms, den


def _write_pairs(terms, den, Q_hist, p, kn, pair, ws):
    """A group's pair terms history-major into pair (m x c x k): the
    numerator's kn columns, times q_j (and p where kn is 1), then den."""
    if kn == 1 and terms.shape[-1] == 1:  # NAIS: exps times p . q_j
        np.multiply(terms[..., 0].T, Q_hist @ p.T, out=pair[..., 0])
    elif kn == 1:  # Design 1: sum_t A_t q_jt p_t
        np.einsum("cjt,jt,ct->jc", terms, Q_hist, p, out=pair[..., 0])
    else:  # multiplied into a contiguous buffer, then transposed: faster than one strided pass
        T = np.multiply(terms, Q_hist, out=ws.take("T", terms.shape[:2] + Q_hist.shape[1:]))
        pair[..., :kn] = T.transpose(1, 0, 2)
    pair[..., kn:] = den.transpose(1, 0, 2)


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
