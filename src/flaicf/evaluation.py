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
import pickle
import signal
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .config import ConfigError, ModelConfig
from .data import SplitDataset
from .params import ParameterSet
from .predictors import BlockWorkspace, block_rows, fold_history, forward_block

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
    return np.flatnonzero(np.diff(getattr(split, on).indptr))


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


def model_scorer(params: ParameterSet, config: ModelConfig, split: SplitDataset, on: str | None = None):
    """Score a user's items, block by block of items.

    With on (valid or test) only the candidates a ranking of that split
    can return are scored (the items _excluded_for leaves), and the other
    entries read -inf; with on None every item is scored. The history is
    the user's training positives, which no candidate is in. Each block
    (a run of the candidates, as an index array) is scored by
    predictors.forward_block (_score_chunk), which matches the instance
    forward pass up to rounding; predictors.block_rows sizes the blocks
    for the user's history length, and predictors.fold_history folds the
    history into the hidden layer once per user. Every block writes its
    intermediates into one BlockWorkspace, made once per scorer, so they
    live only until the next block and a scorer is not safe to call from
    two threads at once; the scores returned are a fresh array per user.
    """
    Q, n_items = params.Q, params.P.shape[0]
    hist_by_user = split.train.items_by_user
    workspace = BlockWorkspace()

    def score(user: int) -> np.ndarray:
        Qh = Q[hist_by_user[user]]
        Wq = fold_history(config, params, Qh, workspace)
        keep = np.ones(n_items, dtype=bool)
        if on is not None:
            keep[_excluded_for(split, on, user)] = False
        candidates = np.flatnonzero(keep)
        rows = block_rows(config, Qh.shape[0], candidates.size)
        scores = np.full(n_items, -np.inf)
        for lo in range(0, candidates.size, rows):
            items = candidates[lo:lo + rows]
            scores[items] = _score_chunk(config, params, user, items, Qh, workspace, Wq)
        return scores

    return score


def _score_chunk(
    config: ModelConfig,
    params: ParameterSet,
    user: int,
    items: np.ndarray,
    Qh: np.ndarray,
    workspace: BlockWorkspace,
    Wq: np.ndarray | None,
) -> np.ndarray:
    """Scores of a block of items (an index array) for one user, history rows Qh folded into Wq."""
    return forward_block(config, params, user, items, params.P[items], Qh, workspace, Wq).score


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
        counts = np.bincount(train.items, minlength=n_items).astype(float)

        def score(user: int) -> np.ndarray:
            return counts

        return score

    # ITEMKNN: cosine similarity between binary user-vector columns.
    from scipy import sparse

    mat = sparse.csr_matrix(
        (np.ones(train.items.size), train.items, train.indptr),
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
        drop = np.argsort(-sim, axis=1, kind="stable")[:, knn_k:]
        np.put_along_axis(sim, drop, 0.0, axis=1)

    def score(user: int) -> np.ndarray:
        hist = train.items_by_user[user]
        if hist.size == 0:
            return np.zeros(n_items)
        return sim[:, hist].sum(axis=1)

    return score


def _shares(split: SplitDataset, users: np.ndarray, workers: int) -> list[np.ndarray]:
    """`users` cut into min(workers, users.size) non-empty contiguous runs of
    about equal summed training-history length (plus one per user, so an
    empty history still counts), the work of scoring them."""
    count = min(workers, users.size)
    if count < 1:
        return []
    weight = np.cumsum(np.diff(split.train.indptr)[users] + 1)
    bounds = [0]
    for k in range(1, count):
        cut = int(np.searchsorted(weight, weight[-1] * k / count)) + 1
        bounds.append(min(max(cut, bounds[-1] + 1), users.size - count + k))
    return np.split(users, bounds[1:])


def _rank_share(params: ParameterSet, config: ModelConfig, split: SplitDataset, on: str, n: int,
                users: np.ndarray) -> list[RankingResult]:
    """The RankingResults of `users`, from a scorer of their own. model_scorer and
    rank_users are looked up when this runs, so a replacement of either is used."""
    return list(rank_users(model_scorer(params, config, split, on), split, on, n, users=users))


class _ForkedCall:
    """fn(*args) called in an os.fork()ed child, which pickles the value (or
    the exception raised; one that cannot make the pickle round trip as
    RuntimeError("Type: message")) into a pipe and leaves with os._exit, so
    nothing the parent set up to run on exit runs there. It exits 0 only once
    the payload is written. result() reads the pipe, reaps the child and returns
    the value or raises the exception sent. close() kills and reaps a child whose
    result was never read and closes the pipe; every handle must be closed."""

    def __init__(self, fn, *args):
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                try:
                    payload = pickle.dumps((True, fn(*args)))
                except BaseException as exc:
                    try:
                        payload = pickle.dumps((False, exc))
                        pickle.loads(payload)
                    except Exception:
                        payload = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(payload)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        self.fd = read_fd

    def result(self):
        with open(self.fd, "rb", closefd=False) as pipe:
            payload = pipe.read()
        status = os.waitpid(self.pid, 0)[1]
        os.close(self.fd)
        self.fd = None
        if status != 0 or not payload:
            code = os.waitstatus_to_exitcode(status)
            how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
            raise RuntimeError(f"evaluation child {self.pid} ended without a result "
                               f"(wait status {status}, {how})")
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        return value

    def close(self) -> None:
        if self.fd is not None:  # the result was never read: the child is not reaped
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            os.close(self.fd)
            self.fd = None


def evaluate_model(
    params: ParameterSet,
    config: ModelConfig,
    split: SplitDataset,
    on: str = "test",
    n: int = 10,
    workers: int = 1,
) -> MetricsRecord:
    """Evaluate a model on a split in `workers` processes, this one included.

    The users are cut into at most `workers` contiguous shares of about equal
    summed history length (_shares); where os.fork is missing there is one
    share. Every share after the first is ranked by _rank_share in a child
    (_ForkedCall), with its own scorer, while this process ranks the first
    share, so one share is serial ranking with no child. Per-user results
    do not depend on the share, and they are collected in share order and
    reduced with _mean_metrics, so the result is bitwise equal to the
    serial one. A child's exception is raised here when its result is
    collected; every handle is closed before this returns or raises, which
    kills and reaps each child not yet collected.
    """
    shares = _shares(split, _eval_users(split, on), workers if hasattr(os, "fork") else 1)
    children: list[_ForkedCall] = []
    try:
        for share in shares[1:]:
            children.append(_ForkedCall(_rank_share, params, config, split, on, n, share))
        results = [_rank_share(params, config, split, on, n, share) for share in shares[:1]]
        results += [child.result() for child in children]
    finally:
        for child in children:
            child.close()
    return _mean_metrics(chain.from_iterable(results), on, n)
