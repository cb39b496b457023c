"""Full-ranking evaluation: HR@n, NDCG@n, baselines, batched model scoring.

Every candidate item (all items minus the user's excluded positives) is
ranked; ties break toward the smaller item index so rankings are
deterministic. HR@n is the per-user any-hit indicator averaged over
users; NDCG@n uses binary relevance with DCG = sum 1/log2(pos + 1) over
hit positions and IDCG the best arrangement of min(n, |test|) hits.
Users whose evaluated split is empty are skipped. A model scores the
evaluated users in consecutive groups, each in one pass that computes
every (candidate, history item) pair once for all its users
(model_scorer); users whose histories overlap little are groups of one
(_groups, SHARED). Users are ranked SORT_ROWS at a time, by one stable
argsort of their scores, with hits and NDCG as arrays (rank_users).
Worker processes rank runs of whole groups (evaluate_model).
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .attention import ranking_bounds
from .config import ConfigError, ModelConfig
from .data import SplitDataset
from .params import ParameterSet
from .predictors import BlockWorkspace, block_rows, fold_history, forward_block

BASELINES = ("RANDOM", "POP", "ITEMKNN")
# Scores of one group of users that model_scorer computes at once: a
# group holds at most max(1, GROUP_SCORES // items) users, so its users x
# items scores stay within 32 MB.
GROUP_SCORES = 2**22
# A run of users (GROUP_SCORES) is one group only where its summed history
# length is at least SHARED times the rows its histories share (their
# union); otherwise each of its users is a group of one, scored over their
# own candidates. With little overlap a group's pass computes about as
# many pairs as its users alone, over a longer history in blocks of fewer
# candidates, and it scores the items each user excludes. Eight users with
# 100 of 3706 items each, drawn from a pool sized for the overlap (2 CPUs,
# the best of 3 calls per kind, the four probe kinds): one group took
# 1.4-1.7x as long as the users alone at overlap 1.1, 1.1-1.4x at 1.4,
# 0.93-0.97x at 1.7, 0.77-0.81x at 2.2 and 0.37-0.45x at 3.2.
SHARED = 2
# Rows of the users x items scores that ranking sorts at a time, and of the
# items x items similarity that ITEMKNN builds and truncates at a time.
SORT_ROWS = 256
# The parts of a split whose items a ranking of valid or test cannot return.
EXCLUDED = {"valid": ("train",), "test": ("train", "valid")}


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


def rank_items(scorer, user, excluded, n: int) -> np.ndarray:
    """Top-n item indices by score, excluded items removed, ties by index.

    One user: excluded is an index array, and the result their top-n
    (fewer if fewer items are left). An int array of users: excluded is a
    users x items bool mask, and the result users x min(n, items), each
    row a top-n padded with -1. The users' scorer rows get one stable
    argsort, and each row keeps its first n positions not excluded. A
    stable sort restricted to a subset keeps the subset's order, so a row
    is the stable sort of that user's candidates alone: ties go to the
    smaller index and NaN sorts last."""
    one = np.ndim(user) == 0
    scores = np.array([scorer(u) for u in np.atleast_1d(user).tolist()], dtype=float)
    if one:
        mask = np.zeros(scores.shape, dtype=bool)
        mask[0, np.asarray(excluded, dtype=np.int64)] = True
        excluded = mask
    order = np.argsort(np.negative(scores, out=scores), axis=1, kind="stable")
    keep = ~np.take_along_axis(excluded, order, axis=1)
    place = np.cumsum(keep, axis=1, dtype=np.int32)  # each candidate's 1-based rank
    rows, cols = np.nonzero(keep & (place <= n))
    top = np.full((len(scores), min(n, scores.shape[1])), -1, dtype=np.int64)
    top[rows, place[rows, cols] - 1] = order[rows, cols]
    return top[0][top[0] >= 0] if one else top


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


def _user_items(view, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each user's item count in a view, and their items concatenated (one gather)."""
    starts = view.indptr[users]
    sizes = view.indptr[users + 1] - starts
    shift = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    return sizes, view.items[shift + np.arange(shift.size)]


def _item_mask(split: SplitDataset, parts, users: np.ndarray) -> np.ndarray:
    """users x items, True at each item a user has in any of the split's parts (one scatter each)."""
    mask = np.zeros((users.size, split.train.item_count), dtype=bool)
    for part in parts:
        sizes, items = _user_items(getattr(split, part), users)
        mask[np.repeat(np.arange(users.size), sizes), items] = True
    return mask


def rank_users(scorer, split: SplitDataset, on: str = "test", n: int = 10, users=None):
    """Yield a RankingResult for each user (default: every user with items in the split).

    Users are ranked SORT_ROWS at a time, one rank_items call per chunk.
    Hits are the held-out mask read at the ranked items, HR their any.
    DCG is a row-wise cumsum of hits times 1/log2(pos + 1), computed as
    ndcg_at_n does, and IDCG the cumsum of the discounts at
    min(n, |held-out|). A cumsum adds in position order and adding 0.0 is
    exact, so hit and ndcg equal hr_at_n's and ndcg_at_n's bit for bit."""
    users = _eval_users(split, on) if users is None else np.asarray(users, dtype=np.int64)
    for lo in range(0, users.size, SORT_ROWS):
        chunk = users[lo:lo + SORT_ROWS]
        top = rank_items(scorer, chunk, _item_mask(split, EXCLUDED[on], chunk), n)
        held = _item_mask(split, (on,), chunk)
        count = held.sum(axis=1)
        if not count.all():
            raise ValueError("NDCG needs at least one held-out item")
        disc = np.array([1.0 / math.log2(pos + 1.0) for pos in range(1, top.shape[1] + 1)])
        hits = np.take_along_axis(held, top, axis=1) & (top >= 0)
        dcg = np.cumsum(hits * disc, axis=1)[:, -1]
        ndcg = dcg / np.cumsum(disc)[np.minimum(count, top.shape[1]) - 1]
        for user, ranked, size, hit, gain in zip(chunk.tolist(), top, (top >= 0).sum(axis=1).tolist(),
                                                 hits.any(axis=1).tolist(), ndcg.tolist()):
            yield RankingResult(user=user, ranked=ranked[:size], hit=hit, ndcg=gain)


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


def model_scorer(params: ParameterSet, config: ModelConfig, split: SplitDataset, on: str | None = None,
                 users: np.ndarray | None = None):
    """Score users' items, a group of users at a time.

    Given users (a group), score(user) scores the whole group on its first
    call and returns that user's row after; without users every call is a
    group of one. A group's pass (_score_group) scores every item for all
    its users at once: the history is each user's training positives, J
    the sorted union of the group's, and each block of items
    (predictors.block_rows) is scored by predictors.forward_block
    (_score_chunk) against Q[J], folded into the hidden layer once per
    group (predictors.fold_history), with each user's pair terms pooled
    through the group's history indicator. So every (candidate, history
    item) pair is computed once per group, not once per user, and a score
    matches the instance forward pass up to rounding. With on (valid or
    test) the items a ranking of that split cannot return
    (EXCLUDED) read -inf: a group of one user never scores them, a
    larger group scores them with the rest; with on None every score is
    kept. A user with an empty history gets the kind's constant fallback.
    Every block writes its intermediates into one BlockWorkspace, made
    once per scorer, so a scorer is not safe to call from two threads at
    once; a group's scores are one fresh users x items array.

    Before the first block, attention.ranking_bounds works out from the
    parameters which hidden units no (candidate, history item) pair can
    lift above 0, and bounds every item and feature logit. The blocks run
    the model without those units (_live_units: their rows of W, b, H and
    h dropped, at least one kept), which reads every dead unit's ReLU as
    the 0 it is, so scores move only by rounding; the workspace carries the
    logit bounds, so a block's softmax skips its min and max where a bound
    lies inside its limit. A NaN or an infinity in those arrays keeps every
    unit and every check.
    """
    bounds = ()
    if params.W is not None:  # every kind but FISM
        live, *bounds = ranking_bounds(params, config)
        params = _live_units(params, live)
    workspace = BlockWorkspace(*bounds)
    group = None if users is None else np.asarray(users, dtype=np.int64)
    rows: dict[int, np.ndarray] = {}

    def score(user: int) -> np.ndarray:
        if group is None:
            return _score_group(config, params, split, on, np.array([user]), workspace)[0]
        if not rows:
            rows.update(zip(group.tolist(), _score_group(config, params, split, on, group, workspace)))
        return rows[user]

    return score


def _score_group(config: ModelConfig, params: ParameterSet, split: SplitDataset, on: str | None,
                 users: np.ndarray, workspace: BlockWorkspace) -> np.ndarray:
    """Every item's score for each of users (users x items), in one pass
    over the group's pairs. A group of one user is scored on its own
    candidates only; a larger group's excluded items are scored, then set
    to -inf."""
    from scipy import sparse

    sizes, hist, J, cols = _group_history(split, users)
    n_items = params.P.shape[0]
    candidates = np.arange(n_items)
    excluded = None if on is None else _item_mask(split, EXCLUDED[on], users)
    if excluded is not None and users.size == 1:
        candidates = np.flatnonzero(~excluded[0])
    kept = sizes > 0
    scores = np.full((users.size, n_items), -np.inf)
    if not kept.all():  # the constant fallback of an empty history
        fallback = forward_block(config, params, users[~kept][:, None], candidates, params.P[candidates],
                                 params.Q[:0]).score
        scores[np.ix_(~kept, candidates)] = fallback
    if kept.any():
        members = users[kept]
        ind = None  # one user's history is every row of J
        if members.size > 1:
            indptr = np.concatenate([[0], np.cumsum(sizes[kept])])
            ind = sparse.csr_matrix((np.ones(hist.size), cols, indptr), shape=(members.size, J.size))
        QJ = params.Q[J]
        Wq = fold_history(config, params, QJ, workspace)
        whole = kept.all() and candidates.size == n_items
        part = scores if whole else np.empty((members.size, candidates.size))
        rows = block_rows(config, max(J.size, members.size), candidates.size)
        for lo in range(0, candidates.size, rows):
            items = candidates[lo:lo + rows]
            part[:, lo:lo + rows] = _score_chunk(config, params, members[:, None], items, QJ, workspace,
                                                 Wq, ind)
        if not whole:
            scores[np.ix_(kept, candidates)] = part
    if excluded is not None and users.size > 1:
        scores[excluded] = -np.inf
    return scores


def _group_history(split: SplitDataset, users: np.ndarray):
    """Each user's history length, their histories concatenated, J the
    sorted union of those items (the rows of Q they share) and each item's
    column in J, from one gather and one scatter."""
    sizes, hist = _user_items(split.train, users)
    seen = np.zeros(split.train.item_count, dtype=bool)
    seen[hist] = True
    return sizes, hist, np.flatnonzero(seen), (np.cumsum(seen) - 1)[hist]


def _live_units(params: ParameterSet, live: np.ndarray) -> ParameterSet:
    """params with only the hidden units live marks: their rows of W, b, H and h."""
    if live.all():
        return params
    return ParameterSet.from_arrays(params.n_users, **{
        name: array[live] if name in ("W", "b", "H", "h") else array for name, array in params.arrays()})


def _score_chunk(
    config: ModelConfig,
    params: ParameterSet,
    users: np.ndarray,
    items: np.ndarray,
    Q_hist: np.ndarray,
    workspace: BlockWorkspace,
    Wq: np.ndarray | None,
    ind,
) -> np.ndarray:
    """Scores of a block of items (an index array) for a group (users as a column), users x items.

    Q_hist holds the rows the group's histories share, folded into Wq,
    and ind marks each user's own (None for one user, whose history is
    every row; the scores are then one row, items)."""
    return forward_block(config, params, users, items, params.P[items], Q_hist, workspace, Wq, ind).score


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
    # The dense similarity is built and truncated a block of rows at a time,
    # so the sparse product and the argsort's temporaries stay block-sized.
    sim = np.empty((n_items, n_items))
    left, right = normalized.T.tocsr(), normalized.tocsr()
    for lo in range(0, n_items, SORT_ROWS):
        rows = sim[lo:lo + SORT_ROWS]
        (left[lo:lo + SORT_ROWS] @ right).toarray(out=rows)
        np.fill_diagonal(rows[:, lo:], 0.0)
        if knn_k < n_items:
            drop = np.argsort(-rows, axis=1, kind="stable")[:, knn_k:]
            np.put_along_axis(rows, drop, 0.0, axis=1)

    def score(user: int) -> np.ndarray:
        hist = train.items_by_user[user]
        if hist.size == 0:
            return np.zeros(n_items)
        return sim[:, hist].sum(axis=1)

    return score


def _groups(split: SplitDataset, users: np.ndarray) -> list[np.ndarray]:
    """`users` cut into consecutive runs of GROUP_SCORES // items users (at
    least one), the last one shorter. A run is one group where its users'
    histories overlap (SHARED), and a group of one user each otherwise."""
    size = max(1, GROUP_SCORES // split.train.item_count)
    groups = []
    for lo in range(0, users.size, size):
        run = users[lo:lo + size]
        _, hist, J, _ = _group_history(split, run)
        if run.size > 1 and hist.size < SHARED * J.size:
            groups += np.split(run, run.size)
        else:
            groups.append(run)
    return groups


def _shares(split: SplitDataset, users: np.ndarray, workers: int) -> list[list[np.ndarray]]:
    """The groups of `users` (_groups) dealt out as min(workers, groups)
    non-empty contiguous runs of about equal summed training-history length
    (plus one per user, so an empty history still counts)."""
    groups = _groups(split, users)
    count = min(workers, len(groups))
    if count < 1:
        return []
    sizes = np.diff(split.train.indptr)
    weight = np.cumsum([sizes[group].sum() + group.size for group in groups])
    bounds = [0]
    for k in range(1, count):
        cut = int(np.searchsorted(weight, weight[-1] * k / count)) + 1
        bounds.append(min(max(cut, bounds[-1] + 1), len(groups) - count + k))
    return [groups[lo:hi] for lo, hi in zip(bounds, bounds[1:] + [len(groups)])]


def _rank_share(params: ParameterSet, config: ModelConfig, split: SplitDataset, on: str, n: int,
                groups: list[np.ndarray]) -> list[RankingResult]:
    """The RankingResults of a run of groups, from one scorer per group.
    model_scorer and rank_users are looked up when this runs, so a
    replacement of either is used."""
    results = []
    for group in groups:
        results += rank_users(model_scorer(params, config, split, on, users=group), split, on, n, users=group)
    return results


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

    The evaluated users are cut into consecutive groups (_groups), which
    depend only on the split, `on` and the catalogue size: runs of users
    whose histories overlap, or single users. Each group is scored in one
    pass (model_scorer). The groups are dealt out as at
    most `workers` contiguous shares of whole groups, of about equal summed
    history length (_shares); where os.fork is missing there is one share.
    Every share after the first is ranked by _rank_share in a child
    (_ForkedCall) while this process ranks the first share, so one share
    is serial ranking with no child. Every worker count scores the same
    groups, and the per-user results are collected in share order and
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
