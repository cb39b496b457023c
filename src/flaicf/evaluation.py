"""Full-ranking evaluation: HR@n, NDCG@n, baselines, batched model scoring.

Every candidate item (all items minus the user's excluded positives) is
scored and ranked; ties break toward the smaller item index so rankings
are deterministic. HR@n is the per-user any-hit indicator averaged over
users; NDCG@n uses binary relevance with DCG = sum 1/log2(pos + 1) over
hit positions and IDCG the best arrangement of min(n, |test|) hits.
Users whose evaluated split is empty are skipped.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .config import DEEP_KINDS, ConfigError, ModelConfig, ModelKind
from .data import SplitDataset
from .params import ParameterSet
from .predictors import BlockWorkspace, forward_block

BASELINES = ("RANDOM", "POP", "ITEMKNN")


@dataclass
class MetricsRecord:
    """Aggregated metrics for one split, optionally tagged with an epoch."""

    split: str
    hr: float
    ndcg: float
    n: int
    epoch: int | None = None
    loss: float | None = None
    users_evaluated: int = 0

    def to_line(self) -> str:
        parts = []
        if self.epoch is not None:
            parts.append(f"epoch={self.epoch}")
        if self.loss is not None:
            parts.append(f"loss={self.loss:.6f}")
        parts.append(f"split={self.split}")
        parts.append(f"hr@{self.n}={self.hr:.6f}")
        parts.append(f"ndcg@{self.n}={self.ndcg:.6f}")
        return " ".join(parts)

    def to_dict(self) -> dict:
        out = {
            "split": self.split,
            "n": self.n,
            "hr": self.hr,
            "ndcg": self.ndcg,
            "users_evaluated": self.users_evaluated,
        }
        if self.epoch is not None:
            out["epoch"] = self.epoch
        if self.loss is not None:
            out["loss"] = self.loss
        return out


@dataclass
class RankingResult:
    """One user's top-n ranking against their held-out items."""

    user: int
    ranked: np.ndarray
    hit: bool
    ndcg: float


def rank_items(scorer, user: int, excluded: np.ndarray, n: int) -> np.ndarray:
    """Top-n item indices by score, excluded items removed, ties by index."""
    scores = np.asarray(scorer(user), dtype=float)
    candidates = np.arange(scores.size, dtype=np.int64)
    if len(excluded):
        mask = np.ones(scores.size, dtype=bool)
        mask[np.asarray(excluded, dtype=np.int64)] = False
        candidates = candidates[mask]
    order = np.argsort(-scores[candidates], kind="stable")
    return candidates[order[:n]]


def hr_at_n(ranked: np.ndarray, test_items) -> float:
    """1.0 when any held-out item appears in the ranked list."""
    test = set(int(x) for x in np.asarray(test_items).ravel())
    return 1.0 if any(int(x) in test for x in ranked) else 0.0


def ndcg_at_n(ranked: np.ndarray, test_items, n: int | None = None) -> float:
    """Binary-relevance NDCG of a ranked list against the held-out items."""
    if n is None:
        n = len(ranked)
    test = set(int(x) for x in np.asarray(test_items).ravel())
    if not test:
        raise ValueError("NDCG needs at least one held-out item")
    dcg = sum(
        1.0 / math.log2(pos + 1.0)
        for pos, item in enumerate(ranked[:n], start=1)
        if int(item) in test
    )
    ideal = sum(1.0 / math.log2(pos + 1.0) for pos in range(1, min(n, len(test)) + 1))
    return dcg / ideal


def _eval_users(split: SplitDataset, on: str) -> np.ndarray:
    view = getattr(split, on)
    return np.array(
        [u for u in range(view.user_count) if view.items_by_user[u].size > 0],
        dtype=np.int64,
    )


def _excluded_for(split: SplitDataset, on: str, user: int) -> np.ndarray:
    train_items = split.train.items_by_user[user]
    if on == "test":
        return np.concatenate([train_items, split.valid.items_by_user[user]])
    return train_items


def rank_users(scorer, split: SplitDataset, on: str = "test", n: int = 10, users=None):
    """Yield a RankingResult for each user (default: every user with items in the split)."""
    view = getattr(split, on)
    for user in _eval_users(split, on) if users is None else users:
        user = int(user)
        held_out = view.items_by_user[user]
        ranked = rank_items(scorer, user, _excluded_for(split, on, user), n)
        yield RankingResult(
            user=user,
            ranked=ranked,
            hit=bool(hr_at_n(ranked, held_out)),
            ndcg=ndcg_at_n(ranked, held_out, n),
        )


def evaluate(scorer, split: SplitDataset, on: str = "test", n: int = 10) -> MetricsRecord:
    """Average HR@n and NDCG@n of a scorer over one split."""
    return _mean_metrics(rank_users(scorer, split, on, n), on, n)


def _mean_metrics(results, on: str, n: int) -> MetricsRecord:
    """Mean HR and NDCG of per-user results, summed with math.fsum so the
    aggregate is independent of how the users were grouped (see evaluate_model)."""
    hits, gains = [], []
    for result in results:
        hits.append(float(result.hit))
        gains.append(result.ndcg)
    if not hits:
        return MetricsRecord(split=on, hr=0.0, ndcg=0.0, n=n, users_evaluated=0)
    count = len(hits)
    return MetricsRecord(
        split=on,
        hr=math.fsum(hits) / count,
        ndcg=math.fsum(gains) / count,
        n=n,
        users_evaluated=count,
    )


# Elements in each candidates x history x max(d, d') intermediate of one
# scoring block. At d = d' = 16 a block's (c*m x d) @ (d x d') GEMM then
# stays at OpenBLAS's 2**18 multiply-add limit for running it on one
# thread, so two pool workers no longer run four BLAS threads on two
# CPUs, and each intermediate (128 KB) stays in cache. Against one fresh
# block of all 150 items, on the benchmark's `long` workload (FLA_NAIS
# Design 2, median history 39; 2 CPUs, OpenBLAS 0.3.31), medians of 10
# runs: pooled ranking 131 -> 347 users/s, serial 380 -> 440 users/s.
# The blocks must share one BlockWorkspace: glibc returns freed
# temporaries of this size to the OS, so a fresh set per block is faulted
# in again every block. Ranking that split in a fresh process (glibc 2.36)
# took 27-44 ms with the workspace, 56-72 ms without it, and 31-40 ms
# without it under MALLOC_TRIM_THRESHOLD_=64MB.
BLOCK = 2**14


def model_scorer(params: ParameterSet, config: ModelConfig, split: SplitDataset):
    """Score every item for a user, block by block of items.

    The history is the user's training positives; eval candidates are never
    in it, so no per-candidate exclusion is needed. An attentive model runs
    predictors.forward_block over each block of items (_score_chunk), which
    matches the instance forward pass up to rounding. A user with m history
    items gets blocks of max(1, BLOCK // (m * max(d, d'))) items.
    Every block writes its intermediates into one BlockWorkspace, made once
    per scorer and sized to the largest block, so they live only until the
    next block and a scorer is not safe to call from two threads at once;
    the scores returned are a fresh array per user. FISM sums the history
    first, costing O(n d) instead of O(n m d).
    """
    kind = config.model_kind
    P, Q = params.P, params.Q
    n_items = P.shape[0]
    hist_by_user = split.train.items_by_user
    width = max(config.d, config.d_prime)

    def rows_for(m: int) -> int:
        return max(1, min(n_items, BLOCK // (m * width)))

    workspace = BlockWorkspace(
        max((rows_for(h.size) * h.size * width for h in hist_by_user if h.size), default=0)
    )

    def score(user: int) -> np.ndarray:
        hist = hist_by_user[user]
        if hist.size == 0:
            if kind in DEEP_KINDS:
                return params.b_user[user] + params.b_item
            return np.zeros(n_items)
        Qh = Q[hist]
        if kind is ModelKind.FISM:
            return hist.size ** (-config.alpha) * (P @ Qh.sum(axis=0))
        rows = rows_for(hist.size)
        out = np.empty(n_items)
        for lo in range(0, n_items, rows):
            hi = min(lo + rows, n_items)
            out[lo:hi] = _score_chunk(kind, config, params, P[lo:hi], Qh, user, lo, hi, workspace)
        return out

    return score


def _score_chunk(
    kind: ModelKind,
    config: ModelConfig,
    params: ParameterSet,
    Pc: np.ndarray,
    Qh: np.ndarray,
    user: int,
    lo: int,
    hi: int,
    workspace: BlockWorkspace,
) -> np.ndarray:
    """Scores of items lo..hi-1 (rows Pc of P) for one user with history rows Qh."""
    bias = params.b_user[user] + params.b_item[lo:hi] if kind in DEEP_KINDS else 0.0
    return forward_block(kind, config, params, Pc, Qh, bias, workspace).score


def baseline_scores(kind: str, split: SplitDataset, seed: int = 0, knn_k: int | None = None):
    """Scorer for one of the RANDOM, POP or ITEMKNN baselines (knn_k neighbours, None for all)."""
    kind = kind.upper()
    if kind not in BASELINES:
        raise ConfigError(f"unknown baseline {kind!r}; expected one of {BASELINES}")
    if knn_k is not None and knn_k < 1:
        raise ConfigError(f"knn_k must be >= 1, got {knn_k}")
    train = split.train
    n_items = train.item_count

    if kind == "RANDOM":

        def score(user: int) -> np.ndarray:
            return np.random.default_rng((seed, user)).uniform(size=n_items)

        return score

    if kind == "POP":
        counts = np.zeros(n_items)
        for items in train.items_by_user:
            counts[items] += 1.0

        def score(user: int) -> np.ndarray:
            return counts

        return score

    # ITEMKNN: cosine similarity between binary user-vector columns.
    from scipy import sparse

    pairs = train.pairs()
    mat = sparse.csr_matrix(
        (np.ones(pairs.shape[0]), (pairs[:, 0], pairs[:, 1])),
        shape=(train.user_count, n_items),
    )
    deg = np.asarray(mat.sum(axis=0)).ravel()
    norm = np.divide(1.0, np.sqrt(deg), out=np.zeros_like(deg), where=deg > 0)
    normalized = mat.multiply(norm[None, :]).tocsc()

    if knn_k is None:

        def score(user: int) -> np.ndarray:
            hist = train.items_by_user[user]
            if hist.size == 0:
                return np.zeros(n_items)
            profile = np.asarray(normalized[:, hist].sum(axis=1)).ravel()
            return normalized.T @ profile

        return score

    # Truncated neighborhoods: keep each target's knn_k most similar items.
    sim = (normalized.T @ normalized).toarray()
    np.fill_diagonal(sim, 0.0)
    if knn_k < n_items:
        for i in range(n_items):
            row = sim[i]
            drop = np.argsort(-row, kind="stable")[knn_k:]
            row[drop] = 0.0

    def score(user: int) -> np.ndarray:
        hist = train.items_by_user[user]
        if hist.size == 0:
            return np.zeros(n_items)
        return sim[:, hist].sum(axis=1)

    return score


_WORKER_STATE: dict = {}


def _init_worker(params, config, split, on, n):
    _WORKER_STATE["args"] = (model_scorer(params, config, split), split, on, n)


def _rank_chunk(users: np.ndarray) -> list[RankingResult]:
    return list(rank_users(*_WORKER_STATE["args"], users=users))


def evaluate_model(
    params: ParameterSet,
    config: ModelConfig,
    split: SplitDataset,
    on: str = "test",
    n: int = 10,
    workers: int = 1,
) -> MetricsRecord:
    """Evaluate a model on a split, optionally fanning out across users.

    Per-user computations are independent and identical regardless of the
    worker count; chunks come back in user order and are reduced like the
    serial path's, so the result is bitwise equal to it.
    """
    users = _eval_users(split, on)
    if workers <= 1 or users.size < 4 or os.name == "nt":
        return evaluate(model_scorer(params, config, split), split, on, n)
    chunks = [c for c in np.array_split(users, workers * 4) if c.size]
    # a fork-started pool starts all max_workers processes at the first submit
    with ProcessPoolExecutor(
        max_workers=min(workers, len(chunks)),
        initializer=_init_worker,
        initargs=(params, config, split, on, n),
    ) as pool:
        return _mean_metrics(chain.from_iterable(pool.map(_rank_chunk, chunks)), on, n)
