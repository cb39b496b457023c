"""Ranking metrics against brute-force oracles; batch scorer consistency."""

import math
import os
import signal
import time
from fractions import Fraction

import numpy as np
import pytest

from flaicf import evaluation, predictors
from flaicf.attention import NonFiniteError, hidden_concat, hidden_prod, ranking_bounds
from flaicf.cli import main
from flaicf.config import DEEP_KINDS, AttentionMode, ConfigError, Design, ModelConfig, ModelKind
from flaicf.data import save_split, split_per_user
from flaicf.evaluation import (
    MetricsRecord,
    baseline_scores,
    evaluate,
    evaluate_model,
    hr_at_n,
    model_scorer,
    ndcg_at_n,
    rank_items,
)
from flaicf.params import save_checkpoint
from flaicf.predictors import (
    BlockWorkspace,
    PredictionContext,
    block_rows,
    fold_history,
    forward_block,
    forward_cache,
    predict,
)
from tests.conftest import make_dataset, random_dataset, random_params


def const_scorer(scores):
    arr = np.asarray(scores, dtype=float)
    return lambda user: arr.copy()


# ----------------------------------------------------------------- ranking


def test_rank_ties_break_by_ascending_index():
    ranked = rank_items(const_scorer([0.1, 0.9, 0.9, 0.2]), 0, np.array([], dtype=np.int64), 2)
    np.testing.assert_array_equal(ranked, [1, 2])


def test_rank_never_returns_excluded():
    scorer = const_scorer([9.0, 8.0, 7.0, 6.0, 5.0])
    ranked = rank_items(scorer, 0, np.array([0, 2]), 3)
    np.testing.assert_array_equal(ranked, [1, 3, 4])


def test_rank_vs_brute_force_oracle():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n_items = int(rng.integers(3, 200))
        scores = rng.normal(size=n_items)
        n_excl = int(rng.integers(0, n_items - 1))
        excluded = rng.choice(n_items, size=n_excl, replace=False)
        n = int(rng.integers(1, 12))
        ranked = rank_items(const_scorer(scores), 0, excluded, n)
        # oracle: stable sort-and-scan over (score desc, index asc)
        banned = set(excluded.tolist())
        order = sorted(range(n_items), key=lambda j: (-scores[j], j))
        expect = [j for j in order if j not in banned][:n]
        np.testing.assert_array_equal(ranked, expect)


# ----------------------------------------------------------------- metrics


def test_hr_any_hit():
    assert hr_at_n(np.array([3, 1, 4]), [9]) == 0.0
    assert hr_at_n(np.array([3, 1, 4]), [1]) == 1.0
    assert hr_at_n(np.array([3, 1, 4]), [1, 4]) == 1.0


def test_ndcg_single_hit_position_3():
    ranked = np.arange(10)  # test item 2 sits at rank position 3 (1-based)
    assert ndcg_at_n(ranked, [2], 10) == pytest.approx(1.0 / math.log2(4.0))
    assert ndcg_at_n(ranked, [2], 10) == pytest.approx(0.5)


def test_ndcg_two_hits_positions_2_and_5():
    ranked = np.array([7, 3, 8, 9, 5, 6, 0, 1, 2, 4])
    got = ndcg_at_n(ranked, [3, 5], 10)
    expect = (1 / math.log2(3) + 1 / math.log2(6)) / (1 + 1 / math.log2(3))
    assert got == pytest.approx(expect, rel=1e-12)


def test_ndcg_perfect_ranking_is_one():
    assert ndcg_at_n(np.array([4, 2, 9]), [4, 2, 9], 3) == pytest.approx(1.0)
    assert ndcg_at_n(np.array([4]), [4], 1) == pytest.approx(1.0)


def test_ndcg_idcg_caps_at_n():
    # more held-out items than list positions: ideal DCG uses only n slots
    ranked = np.array([0, 1])
    got = ndcg_at_n(ranked, [0, 1, 2], 2)
    assert got == pytest.approx(1.0)


def test_ndcg_vs_brute_force_oracle():
    rng = np.random.default_rng(32)
    for _ in range(300):
        n_items = int(rng.integers(3, 200))
        n = int(rng.integers(1, 12))
        ranked = rng.choice(n_items, size=min(n, n_items), replace=False)
        test_items = rng.choice(n_items, size=int(rng.integers(1, 6)), replace=False)
        dcg = sum(
            1.0 / math.log2(pos + 2)
            for pos, item in enumerate(ranked)
            if item in set(test_items.tolist())
        )
        idcg = sum(1.0 / math.log2(pos + 2) for pos in range(min(len(ranked), test_items.size)))
        assert ndcg_at_n(ranked, test_items, n) == pytest.approx(dcg / idcg, rel=1e-12)
        assert ndcg_at_n(ranked, test_items, n) <= hr_at_n(ranked, test_items) + 1e-12


def test_ndcg_empty_test_rejected():
    with pytest.raises(ValueError):
        ndcg_at_n(np.array([1, 2]), [])


def test_metrics_line_format():
    rec = MetricsRecord(split="valid", hr=0.5, ndcg=0.25, n=10, epoch=3, loss=0.125)
    assert rec.to_line() == "epoch=3 loss=0.125000 split=valid hr@10=0.500000 ndcg@10=0.250000"
    bare = MetricsRecord(split="test", hr=1.0, ndcg=1.0, n=5)
    assert bare.to_line() == "split=test hr@5=1.000000 ndcg@5=1.000000"


# ---------------------------------------------------------------- evaluate


def test_evaluate_aggregates_means():
    # 2 users; scorer ranks items in fixed descending-index order
    ds = make_dataset({0: [0, 1, 2, 3], 1: [0, 1, 2, 3]}, 6)
    split = split_per_user(ds, seed=1)
    scorer = const_scorer(np.arange(6, dtype=float))
    rec = evaluate(scorer, split, on="test", n=6)
    assert rec.users_evaluated == 2
    assert 0.0 <= rec.ndcg <= rec.hr <= 1.0


def test_evaluate_excludes_train_and_valid_on_test():
    # train items must never occupy ranking slots during test evaluation
    ds = make_dataset({0: list(range(10))}, 12)
    split = split_per_user(ds, seed=2)
    test_items = split.test.items_by_user[0]
    # adversarial scorer: training items get the highest scores
    scores = np.zeros(12)
    scores[split.train.items_by_user[0]] = 100.0
    scores[test_items] = 1.0
    rec = evaluate(const_scorer(scores), split, on="test", n=len(test_items))
    assert rec.hr == 1.0  # with train excluded, test items fill the slots
    assert rec.ndcg > 0.9


def test_evaluate_empty_split_returns_zeros():
    ds = make_dataset({0: [0, 1]}, 3)
    split = split_per_user(ds, seed=0)  # 2 items: valid split is empty
    rec = evaluate(const_scorer(np.zeros(3)), split, on="valid", n=5)
    assert rec.users_evaluated == 0
    assert rec.hr == 0.0 and rec.ndcg == 0.0


# ---------------------------------------------------------------- baselines


def test_pop_scores_are_train_counts():
    ds = make_dataset({0: [0, 2], 1: [2], 2: [1, 2]}, 3)
    split = split_per_user(ds, seed=0)
    # build from train counts, not raw counts
    counts = np.zeros(3)
    for items in split.train.items_by_user:
        counts[items] += 1
    scorer = baseline_scores("POP", split)
    np.testing.assert_array_equal(scorer(0), counts)
    np.testing.assert_array_equal(scorer(1), counts)


def test_random_scorer_deterministic_per_user():
    split = split_per_user(random_dataset(33, n_users=5, n_items=9), seed=3)
    a = baseline_scores("RANDOM", split, seed=7)
    b = baseline_scores("RANDOM", split, seed=7)
    c = baseline_scores("RANDOM", split, seed=8)
    np.testing.assert_array_equal(a(2), b(2))
    assert not np.array_equal(a(2), c(2))
    assert not np.array_equal(a(2), a(3))


def test_itemknn_vs_dense_cosine_oracle():
    split = split_per_user(random_dataset(34, n_users=12, n_items=10, min_items=4), seed=4)
    scorer = baseline_scores("ITEMKNN", split)
    # dense oracle over the binary train matrix
    R = np.zeros((12, 10))
    for u, items in enumerate(split.train.items_by_user):
        R[u, items] = 1.0
    norms = np.linalg.norm(R, axis=0)
    norms[norms == 0] = 1.0
    # the formula sums cosine over all of train(u), self-pair included;
    # only excluded-from-ranking train items are affected by the diagonal
    sim = (R.T @ R) / norms[:, None] / norms[None, :]
    for u in range(12):
        expect = sim[:, split.train.items_by_user[u]].sum(axis=1)
        np.testing.assert_allclose(scorer(u), expect, atol=1e-10)


def test_itemknn_topk_truncation_keeps_strongest():
    split = split_per_user(random_dataset(35, n_users=15, n_items=12, min_items=5), seed=5)
    full = baseline_scores("ITEMKNN", split)
    trunc = baseline_scores("ITEMKNN", split, knn_k=3)
    changed = any(not np.allclose(full(u), trunc(u)) for u in range(15))
    assert changed  # truncation must actually bite on a dense-ish dataset


def test_itemknn_truncation_matches_a_dense_top_k_oracle():
    for seed, n_users, n_items in ((35, 15, 12), (37, 30, 40)):
        split = split_per_user(random_dataset(seed, n_users=n_users, n_items=n_items, min_items=5),
                               seed=seed)
        R = np.zeros((n_users, n_items))
        for u, items in enumerate(split.train.items_by_user):
            R[u, items] = 1.0
        co, deg = R.T @ R, R.sum(axis=0)
        norms = np.sqrt(np.maximum(deg, 1.0))
        sim = co / norms[:, None] / norms[None, :]
        np.fill_diagonal(sim, 0.0)
        for knn_k in (1, 3, n_items - 1, n_items + 5):
            # row i keeps its knn_k largest similarities, ranked exactly (cosine^2 * deg_i
            # = co^2 / deg_j as an integer ratio), ties to the smaller index; the diagonal is 0
            kept = np.zeros_like(sim)
            for i in range(n_items):
                exact = [Fraction(int(co[i, j]) ** 2, int(deg[j])) if j != i and co[i, j] else 0
                         for j in range(n_items)]
                top = sorted(range(n_items), key=lambda j: (-exact[j], j))[:knn_k]
                kept[i, top] = sim[i, top]
            assert not np.diag(kept).any()
            scorer = baseline_scores("ITEMKNN", split, knn_k=knn_k)
            for u in range(n_users):
                expect = kept[:, split.train.items_by_user[u]].sum(axis=1)
                np.testing.assert_allclose(scorer(u), expect, rtol=0, atol=1e-12)


@pytest.mark.parametrize("knn_k", [4, 45])
def test_itemknn_truncation_in_row_blocks_equals_one_block(monkeypatch, knn_k):
    split = split_per_user(random_dataset(37, n_users=30, n_items=40, min_items=5), seed=37)
    whole = baseline_scores("ITEMKNN", split, knn_k=knn_k)
    monkeypatch.setattr(evaluation, "KNN_ROWS", 7)  # 40 rows in 6 blocks, the last one short
    blocked = baseline_scores("ITEMKNN", split, knn_k=knn_k)
    for u in range(30):
        np.testing.assert_array_equal(blocked(u), whole(u))


def test_unknown_baseline_rejected():
    split = split_per_user(random_dataset(36, n_users=4, n_items=8), seed=0)
    with pytest.raises(ValueError):
        baseline_scores("SVD", split)


# ------------------------------------------------------------- batch scorer


SCORER_CONFIGS = [
    ModelConfig(model_kind=ModelKind.FISM, d=5, alpha=0.4),
    ModelConfig(model_kind=ModelKind.NAIS, d=5, d_prime=4),
    ModelConfig(model_kind=ModelKind.NAIS, d=5, d_prime=4, attention_mode=AttentionMode.CONCAT),
    ModelConfig(model_kind=ModelKind.FLA_NAIS, d=5, d_prime=4, design=Design.DESIGN1),
    ModelConfig(model_kind=ModelKind.FLA_NAIS, d=5, d_prime=4, design=Design.DESIGN2),
    ModelConfig(model_kind=ModelKind.DEEPICF, d=5, d_prime=4),
    ModelConfig(model_kind=ModelKind.FLA_DICF, d=5, d_prime=4, design=Design.DESIGN1),
    ModelConfig(model_kind=ModelKind.FLA_DICF, d=5, d_prime=4, design=Design.DESIGN2),
]


def config_id(cfg):
    return f"{cfg.model_kind}-{cfg.design}-{cfg.attention_mode}"


@pytest.mark.parametrize("cfg", SCORER_CONFIGS, ids=config_id)
def test_batch_scorer_matches_instance_predict(cfg, monkeypatch):
    split = split_per_user(random_dataset(37, n_users=8, n_items=14, min_items=4), seed=6)
    params = random_params(cfg, 14, 8, seed=38, scale=0.3)
    monkeypatch.setattr(predictors, "BLOCK", 64)  # at most 12 of the 14 items per block
    scorer = model_scorer(params, cfg, split)
    for u in range(8):
        scores = scorer(u)
        history = split.train.items_by_user[u]
        for i in range(14):
            if i in history:
                continue  # own-history scores are excluded from ranking
            ctx = PredictionContext(user=u, target=i, history=history)
            assert scores[i] == pytest.approx(
                predict(cfg.model_kind, ctx, params, cfg), abs=1e-9
            ), (u, i)


@pytest.mark.parametrize("cfg", SCORER_CONFIGS, ids=config_id)
def test_forward_block_workspace_is_bitwise_and_reused(cfg):
    params = random_params(cfg, 14, 3, seed=42, scale=0.3)
    workspace = BlockWorkspace()
    first = None
    for c, hist in ((6, [7, 8, 9, 10, 11]), (4, [8, 12, 13])):
        args = (cfg, params, 1, slice(0, c), params.P[:c], params.Q[hist])
        fresh = forward_block(*args)
        cache = forward_block(*args, workspace)
        np.testing.assert_array_equal(cache.score, fresh.score)
        assert not any(np.shares_memory(cache.score, buf) for buf in workspace.buffers.values())
        if cfg.model_kind is ModelKind.FISM:
            assert not workspace.buffers  # FISM has no candidates x history intermediate
        else:
            np.testing.assert_array_equal(cache.R, fresh.R)
            assert np.shares_memory(cache.R, workspace.buffers["R"])
        if first is None:
            first = dict(workspace.buffers)
    # the smaller second block reuses every buffer of the first
    assert workspace.buffers.keys() == first.keys()
    assert all(workspace.buffers[name] is buf for name, buf in first.items())


@pytest.mark.parametrize("cfg", SCORER_CONFIGS, ids=config_id)
def test_a_block_matches_forward_cache_at_one_history_item_and_one_candidate(cfg):
    params = random_params(cfg, 14, 3, seed=47, scale=0.3)
    cases = ((2, [5], slice(0, 14)), (1, [3, 6, 9, 12], slice(7, 8)), (0, [13], slice(4, 5)))
    for user, hist, items in cases:
        hist = np.array(hist)
        block = forward_block(cfg, params, user, items, params.P[items], params.Q[hist]).score
        assert block.shape == (len(range(14)[items]),)
        for score, item in zip(block, range(14)[items]):
            if item in hist:
                continue
            one = forward_cache(PredictionContext(user, item, hist), params, cfg).score
            assert score == pytest.approx(one, rel=1e-9, abs=1e-12), (user, item)


SOFTMAX_LOGITS = [(cfg, which) for cfg in SCORER_CONFIGS
                  for which in ("item", "feature")
                  if getattr(cfg, f"{which}_attention")
                  and (which == "item" or cfg.design is Design.DESIGN2)]


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("cfg,which", SOFTMAX_LOGITS,
                         ids=[f"{config_id(c)}-{w}" for c, w in SOFTMAX_LOGITS])
def test_a_nonfinite_logit_in_a_ranking_block_raises(cfg, which, bad):
    split = split_per_user(random_dataset(37, n_users=8, n_items=14, min_items=4), seed=6)
    params = random_params(cfg, 14, 8, seed=48, scale=0.3)
    # hidden unit 0 reads 1 for every (candidate, history item) pair, so
    # its logit weight reaches every item logit, or every logit of feature 2
    params.W[0] = 0.0
    params.b[0] = 1.0
    if which == "item":
        params.h[0] = bad
    else:
        params.H[0, 2] = bad
    user = int(np.argmax([h.size for h in split.train.items_by_user]))
    with pytest.raises(NonFiniteError):
        model_scorer(params, cfg, split)(user)


def long_history_split():
    """6 users with 60-80 of 400 items, so every history forces several scoring blocks."""
    return split_per_user(random_dataset(43, n_users=6, n_items=400, min_items=60, max_items=80), seed=8)


@pytest.mark.parametrize("cfg", SCORER_CONFIGS, ids=config_id)
def test_blocked_scorer_matches_one_block(cfg):
    split = long_history_split()
    params = random_params(cfg, 400, 6, seed=44, scale=0.3)
    scorer = model_scorer(params, cfg, split, users=np.arange(6))
    # the group's blocks are sized for the union of its histories
    rows = block_rows(cfg, np.unique(split.train.items).size, 400)
    # three blocks or more; FISM sums the history first and takes one
    assert rows == 400 if cfg.model_kind is ModelKind.FISM else rows <= 400 // 3
    for user in range(6):
        hist = split.train.items_by_user[user]
        whole = forward_block(cfg, params, user, slice(None), params.P, params.Q[hist]).score
        blocked = scorer(user)
        np.testing.assert_allclose(blocked, whole, rtol=1e-12, atol=0.0)
        top = lambda scores: np.argsort(-scores, kind="stable")[:10]
        np.testing.assert_array_equal(top(blocked), top(whole))


@pytest.mark.parametrize("on", ["valid", "test"])
@pytest.mark.parametrize("cfg", SCORER_CONFIGS, ids=config_id)
def test_candidate_scores_equal_full_scores(cfg, on):
    # not bitwise: BLAS rounds a product's row differently with the number
    # of rows and the row's place among them (a one-row product is a
    # matrix-vector one), and the candidates' blocks are not the catalogue's
    split = long_history_split()
    params = random_params(cfg, 400, 6, seed=49, scale=0.3)
    full = model_scorer(params, cfg, split)
    only = model_scorer(params, cfg, split, on=on)
    for user in range(6):
        excluded = np.unique(evaluation._excluded_for(split, on, user))
        assert excluded.size > split.train.items_by_user[user].size or on == "valid"
        scores = only(user)
        assert scores.shape == (400,)
        np.testing.assert_array_equal(np.flatnonzero(scores == -np.inf), excluded)
        keep = np.ones(400, dtype=bool)
        keep[excluded] = False
        np.testing.assert_allclose(scores[keep], full(user)[keep], rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(rank_items(only, user, excluded, 10),
                                      rank_items(full, user, excluded, 10))


@pytest.mark.parametrize("cfg", SCORER_CONFIGS[:2], ids=config_id)
def test_a_scorer_with_a_split_scores_each_candidate_once(cfg, monkeypatch):
    split = long_history_split()
    params = random_params(cfg, 400, 6, seed=50, scale=0.3)
    blocks = []
    original = evaluation._score_chunk
    monkeypatch.setattr(evaluation, "_score_chunk", lambda *args: blocks.append(args[3]) or original(*args))
    scorer = model_scorer(params, cfg, split, on="test")
    for user in range(6):
        blocks.clear()
        scorer(user)
        keep = np.ones(400, dtype=bool)
        keep[evaluation._excluded_for(split, "test", user)] = False
        np.testing.assert_array_equal(np.concatenate(blocks), np.flatnonzero(keep))


@pytest.mark.parametrize("cfg", SCORER_CONFIGS[:2], ids=config_id)
def test_a_group_scores_each_item_once(cfg, monkeypatch):
    split = long_history_split()
    params = random_params(cfg, 400, 6, seed=50, scale=0.3)
    blocks = []
    original = evaluation._score_chunk
    monkeypatch.setattr(evaluation, "_score_chunk", lambda *args: blocks.append(args[3]) or original(*args))
    scorer = model_scorer(params, cfg, split, on="test", users=np.arange(6))
    for user in range(6):
        keep = np.ones(400, dtype=bool)
        keep[evaluation._excluded_for(split, "test", user)] = False
        np.testing.assert_array_equal(np.isfinite(scorer(user)), keep)
    # one pass for the whole group: its blocks cover every item exactly once
    np.testing.assert_array_equal(np.concatenate(blocks), np.arange(400))


def shared_history_split():
    """6 users with 60-80 of the same 100 of 400 items: histories overlap past SHARED."""
    rng = np.random.default_rng(45)
    by_user = {u: rng.choice(100, size=int(rng.integers(60, 81)), replace=False).tolist() for u in range(6)}
    return split_per_user(make_dataset(by_user, 400), seed=8)


def test_a_run_of_users_that_shares_little_is_cut_into_single_users():
    for split, one_pass in ((shared_history_split(), True), (long_history_split(), False)):
        users = evaluation._eval_users(split, "test")
        summed, union = split.train.items.size, np.unique(split.train.items).size
        assert (summed >= evaluation.SHARED * union) is one_pass
        groups = evaluation._groups(split, users)
        assert [group.size for group in groups] == ([6] if one_pass else [1] * 6)
        np.testing.assert_array_equal(np.concatenate(groups), users)
        # users ranked one at a time are dealt out to every worker
        assert len(evaluation._shares(split, users, 2)) == (1 if one_pass else 2)


@pytest.mark.parametrize("cfg", SCORER_CONFIGS[1:], ids=config_id)
def test_a_block_chain_over_history_runs_equals_one_run(cfg, monkeypatch):
    split = shared_history_split()
    params = random_params(cfg, 400, 6, seed=53, scale=0.3)
    users = np.arange(6)
    whole = model_scorer(params, cfg, split, "test", users=users)
    rows = [whole(user) for user in users.tolist()]
    runs = []
    original = predictors._pair_terms
    monkeypatch.setattr(predictors, "_pair_terms",
                        lambda *args: runs.append(args[3].shape[0]) or original(*args))
    # one candidate per block, and its chain over runs of at most 32 history rows
    monkeypatch.setattr(predictors, "BLOCK", 32 * max(params.W.shape[0], cfg.d))
    union = np.unique(split.train.items).size
    assert predictors.block_rows(cfg, union, 400) == 1
    short = model_scorer(params, cfg, split, "test", users=users)
    for user, row in zip(users.tolist(), rows):
        np.testing.assert_allclose(short(user), row, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(top10(short(user)), top10(row))
    assert 1 < max(runs) < union and sum(runs) == 400 * union


def test_a_user_with_no_candidate_scores_nothing():
    every = np.arange(6)
    parts = [make_dataset({0: items, 1: [0]}, 6) for items in (every, [], [])]
    split = evaluation.SplitDataset(*parts, ratios=(1.0, 0.0, 0.0), seed=0)
    for cfg in SCORER_CONFIGS:
        params = random_params(cfg, 6, 2, seed=51)
        for on in ("valid", "test"):
            np.testing.assert_array_equal(model_scorer(params, cfg, split, on)(0), np.full(6, -np.inf))


@pytest.mark.parametrize("on", ["valid", "test"])
def test_candidate_ranking_gives_the_full_rankings_metrics_with_any_worker_count(on, monkeypatch):
    split = long_history_split()
    real_scorer = evaluation.model_scorer

    def candidates_only(params, config, split, on=None, users=None):
        # raised in a forked child too, and sent back to this process
        assert on is not None, "evaluate_model scored the whole catalogue"
        return real_scorer(params, config, split, on, users)

    for cfg in SCORER_CONFIGS:
        params = random_params(cfg, 400, 6, seed=52, scale=0.3)
        full = evaluate(real_scorer(params, cfg, split), split, on, n=10)
        monkeypatch.setattr(evaluation, "model_scorer", candidates_only)
        for workers in (1, 2, 3):
            record = evaluate_model(params, cfg, split, on, n=10, workers=workers)
            assert_no_child_left()
            assert record == full, (config_id(cfg), workers)


@pytest.mark.parametrize("cfg", SCORER_CONFIGS, ids=config_id)
def test_scores_never_alias_the_workspace(cfg):
    split = long_history_split()
    params = random_params(cfg, 400, 6, seed=45, scale=0.3)
    scorer = model_scorer(params, cfg, split)
    first = scorer(0)
    kept = first.copy()
    other = scorer(1)
    again = scorer(0)
    assert not np.array_equal(other, kept)
    np.testing.assert_array_equal(first, kept)
    np.testing.assert_array_equal(again, kept)


def test_batch_scorer_empty_history_fallbacks():
    # user 1 has no interactions at all -> whole-score fallback
    ds = make_dataset({0: [0, 1, 2], 1: []}, 5)
    split = split_per_user(ds, seed=0)
    history = split.train.items_by_user[1]
    assert history.size == 0
    for cfg in SCORER_CONFIGS:
        params = random_params(cfg, 5, 2, seed=39)
        scores = model_scorer(params, cfg, split)(1)
        expect = [predict(cfg.model_kind, PredictionContext(1, i, history), params, cfg)
                  for i in range(5)]
        np.testing.assert_array_equal(scores, expect, err_msg=config_id(cfg))
        deep = cfg.model_kind in DEEP_KINDS
        np.testing.assert_array_equal(scores, params.b_user[1] + params.b_item if deep else np.zeros(5))


def test_fism_ranks_a_user_in_one_block(monkeypatch):
    """FISM sums the history once and scores every item in one O(n d) product."""
    cfg = SCORER_CONFIGS[0]
    assert cfg.model_kind is ModelKind.FISM
    split = long_history_split()
    params = random_params(cfg, 400, 6, seed=46, scale=0.3)
    calls = []
    original = evaluation._score_chunk
    monkeypatch.setattr(evaluation, "_score_chunk", lambda *args: calls.append(args) or original(*args))
    scorer = model_scorer(params, cfg, split)
    for user in range(6):
        scorer(user)
    assert len(calls) == 6
    assert all(np.array_equal(args[3], np.arange(400)) for args in calls)


def test_fism_ranks_a_group_in_one_block(monkeypatch):
    """FISM sums each history once and scores every item of a group in one O(n d) product."""
    cfg = SCORER_CONFIGS[0]
    assert cfg.model_kind is ModelKind.FISM
    split = long_history_split()
    params = random_params(cfg, 400, 6, seed=46, scale=0.3)
    calls = []
    original = evaluation._score_chunk
    monkeypatch.setattr(evaluation, "_score_chunk", lambda *args: calls.append(args) or original(*args))
    scorer = model_scorer(params, cfg, split, users=np.arange(6))
    for user in range(6):
        scorer(user)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0][3], np.arange(400))


def top10(scores):
    return np.argsort(-scores, kind="stable")[:10]


@pytest.mark.parametrize("per_group", [None, 2, 3], ids=["one-group", "2-users", "3-users"])
@pytest.mark.parametrize("cfg", SCORER_CONFIGS, ids=config_id)
def test_a_group_row_equals_the_users_own_row(cfg, per_group, monkeypatch):
    monkeypatch.setattr(evaluation, "SHARED", 1)  # runs are groups, however little the histories overlap
    split = long_history_split()
    params = random_params(cfg, 400, 6, seed=70, scale=0.3)
    if per_group is not None:
        monkeypatch.setattr(evaluation, "GROUP_SCORES", per_group * 400 + 1)
    users = evaluation._eval_users(split, "test")
    groups = evaluation._groups(split, users)
    assert [group.size for group in groups] == ([6] if per_group is None else [per_group] * (6 // per_group))
    alone = model_scorer(params, cfg, split, "test")
    for group in groups:
        scorer = model_scorer(params, cfg, split, "test", users=group)
        for user in group.tolist():
            grouped, own = scorer(user), alone(user)
            np.testing.assert_array_equal(np.isfinite(grouped), np.isfinite(own))
            np.testing.assert_allclose(grouped, own, rtol=1e-12, atol=0.0)
            np.testing.assert_array_equal(top10(grouped), top10(own))


@pytest.mark.parametrize("cfg", SCORER_CONFIGS, ids=config_id)
def test_a_group_with_an_empty_history_and_no_candidates(cfg):
    # user 0 trained on every item, user 1 on none; users 2 and 3 are ordinary
    parts = (make_dataset({0: range(6), 1: [], 2: [1, 4], 3: [0, 2, 5]}, 6),
             make_dataset({3: [1]}, 6), make_dataset({1: [3], 2: [0], 3: [4]}, 6))
    split = evaluation.SplitDataset(*parts, ratios=(0.8, 0.1, 0.1), seed=0)
    params = random_params(cfg, 6, 4, seed=71)
    fallback = params.b_user[1] + params.b_item if cfg.model_kind in DEEP_KINDS else np.zeros(6)
    for on in ("valid", "test"):
        scorer = model_scorer(params, cfg, split, on, users=np.arange(4))
        np.testing.assert_array_equal(scorer(0), np.full(6, -np.inf))
        np.testing.assert_array_equal(scorer(1), fallback)
        for user in (2, 3):
            own = model_scorer(params, cfg, split, on)(user)
            np.testing.assert_array_equal(np.isfinite(scorer(user)), np.isfinite(own))
            np.testing.assert_allclose(scorer(user), own, rtol=1e-12, atol=0.0)


def test_an_empty_user_set_scores_nothing(monkeypatch):
    split = split_per_user(make_dataset({0: [0, 1], 1: [1, 2]}, 3), seed=0)  # no validation part
    cfg = SCORER_CONFIGS[4]
    params = random_params(cfg, 3, 2, seed=72)
    monkeypatch.setattr(evaluation, "model_scorer", None)  # any call would fail
    for workers in (1, 2):
        assert evaluate_model(params, cfg, split, "valid", workers=workers).users_evaluated == 0
    assert evaluation._shares(split, evaluation._eval_users(split, "valid"), 2) == []


@pytest.mark.parametrize("shared", [1, evaluation.SHARED], ids=["one-pass", "rule"])
@pytest.mark.parametrize("cfg", SCORER_CONFIGS, ids=config_id)
def test_records_and_eval_files_are_equal_for_every_worker_count(cfg, shared, monkeypatch, tmp_path):
    monkeypatch.setattr(evaluation, "GROUP_SCORES", 2 * 400)  # three groups of two users
    monkeypatch.setattr(evaluation, "SHARED", shared)
    split = long_history_split()
    params = random_params(cfg, 400, 6, seed=73, scale=0.3)
    save_split(split, tmp_path / "prep")
    save_checkpoint(params, cfg, tmp_path / "model.ckpt")
    records, files = [], []
    for workers in (1, 2, 3):
        records.append(evaluate_model(params, cfg, split, "test", workers=workers))
        out = tmp_path / f"eval{workers}"
        assert main(["evaluate", "--data_dir", str(tmp_path / "prep"), "--checkpoint",
                     str(tmp_path / "model.ckpt"), "--split", "test", "--eval_workers", str(workers),
                     "--out_dir", str(out)]) == 0
        files.append(next(out.glob("eval_*_test.json")).read_bytes())
        assert_no_child_left()
    assert records[0].users_evaluated == 6
    assert records[1:] == records[:1] * 2
    assert files[1:] == files[:1] * 2


# ------------------------------------------------------- dead hidden units


ATTENTIVE_CONFIGS = [cfg for cfg in SCORER_CONFIGS if cfg.model_kind is not ModelKind.FISM]
# Hidden units 0 and 1 planted (W rows, b); the other units stay random.
PLANTED = {
    "none": None,
    "zero-rows": (0.0, [-0.5, 0.5]),
    "1e-300-rows": (1e-300, [-1e-303, 0.0]),
    "zero-rows-b0": (0.0, [0.0, -1e-300]),
}


def planted_params(cfg, n_items, n_users, seed, scale, planted):
    params = random_params(cfg, n_items, n_users, seed=seed, scale=scale)
    if PLANTED[planted] is not None:
        w, b = PLANTED[planted]
        params.W[:2] *= w / scale
        params.b[:2] = b
    return params


def every_pre_activation(cfg, params):
    """Unit pre-activations of every (candidate P_i, history item Q_j) pair, as a block computes them."""
    P, Q = params.P, params.Q
    if cfg.attention_mode is AttentionMode.CONCAT:
        return hidden_concat(P, Q, params.W, params.b)[0]
    return hidden_prod(P, Q, params.W, params.b, Wq=fold_history(cfg, params, Q))[1]


@pytest.mark.parametrize("planted", PLANTED)
@pytest.mark.parametrize("scale", [0.3, 1e-103], ids=["0.3", "1e-103"])
@pytest.mark.parametrize("cfg", ATTENTIVE_CONFIGS, ids=config_id)
def test_every_unit_a_pair_fires_is_kept(cfg, scale, planted):
    # at 1e-103 the products p_t q_t W_kt are subnormal, below the normal range
    for seed in range(53, 58):
        params = planted_params(cfg, 40, 3, seed, scale, planted)
        live, item_bound, feature_bound = ranking_bounds(params, cfg)
        fired = (every_pre_activation(cfg, params) > 0.0).any(axis=(0, 1))
        assert live[fired].all(), (seed, fired, live)
        assert live.any()
        if PLANTED[planted] is not None and PLANTED[planted][0] == 0.0 and live[2:].any():
            # a zero row of W reads its bias exactly: dead if and only if b <= 0
            np.testing.assert_array_equal(live[:2], params.b[:2] > 0.0)
        for bound in (item_bound, feature_bound):
            assert bound == math.inf or 0.0 <= bound < math.inf


@pytest.mark.parametrize("cfg", ATTENTIVE_CONFIGS[:2], ids=config_id)
def test_a_unit_at_the_edge_of_firing_is_kept(cfg):
    # Candidate 0 and history item 1 hold every coordinate's largest |value|, aligned
    # with W_0 (its signs for PROD, its direction for CONCAT), so their pair's sum
    # reaches the bound exactly; b_0 cancels that sum to the last bit or one ulp
    # less, and the computed pre-activation lands a few ulps either side of 0. Only
    # the rounding margin keeps the unit whenever it fires.
    rng = np.random.default_rng(64)
    fired_some = False
    for _ in range(300):
        params = random_params(cfg, 3, 2, seed=int(rng.integers(2**31)), scale=0.3)
        d = params.P.shape[1]
        W0 = params.W[0]
        params.P[1:] *= 0.01
        params.Q[[0, 2]] *= 0.01
        if cfg.attention_mode is AttentionMode.CONCAT:
            params.P[0], params.Q[1] = rng.uniform(1.0, 2.0) * W0[:d], rng.uniform(1.0, 2.0) * W0[d:]
            total = params.P[0] @ W0[:d] + params.Q[1] @ W0[d:]
        else:
            params.P[0] = rng.uniform(1.0, 2.0, d) * np.sign(W0)
            params.Q[1] = rng.uniform(1.0, 2.0, d)
            total = np.dot(params.P[0] * params.Q[1], W0)
        params.b[0] = -total if rng.random() < 0.5 else np.nextafter(-total, 0.0)
        fired = (every_pre_activation(cfg, params) > 0.0).any(axis=(0, 1))
        fired_some |= bool(fired[0])
        assert ranking_bounds(params, cfg)[0][fired].all()
    assert fired_some


# (P, Q, W) scales: P and Q whose product underflows while a block's fold
# q * W does not; a large p times a fold q * W that is subnormal; both large.
UNEVEN = [(1e-170, 1e-170, 1e170), (1e10, 1e-160, 1e-155), (1e150, 1e-160, 1e-150)]


@pytest.mark.parametrize("scales", UNEVEN, ids=["pq-underflow", "fold-subnormal", "p-large"])
@pytest.mark.parametrize("cfg", ATTENTIVE_CONFIGS, ids=config_id)
def test_every_unit_a_pair_fires_is_kept_when_p_q_and_w_differ_in_scale(cfg, scales):
    for seed in range(65, 70):
        params = random_params(cfg, 40, 3, seed=seed, scale=1.0)
        for name, scale in zip("PQW", scales):
            params.get(name)[...] *= scale
        params.b[:] = 0.0
        params.b[:] = -0.5 * every_pre_activation(cfg, params).max(axis=(0, 1))
        fired = (every_pre_activation(cfg, params) > 0.0).any(axis=(0, 1))
        assert fired.all()
        assert ranking_bounds(params, cfg)[0].all(), seed


PROD_CONFIGS = [cfg for cfg in ATTENTIVE_CONFIGS if cfg.attention_mode is AttentionMode.PROD]


@pytest.mark.parametrize("cfg", PROD_CONFIGS, ids=config_id)
def test_a_unit_fired_by_a_subnormal_fold_rounded_up_is_kept(cfg):
    # Each q_t W_0t is 0.55 of the smallest subnormal, which the fold q * W rounds
    # up to 1 of it, and p = 2**100 carries that error into the pre-activation:
    # the block reads d 2**-974 + b > 0 where the exact value and the
    # Cauchy-Schwarz bound (sqrt(d) 2**-974) lie below 0. Only the absolute
    # margin that max|p| scales keeps the unit.
    params = random_params(cfg, 3, 2, seed=66, scale=0.3)
    d = params.P.shape[1]
    params.W[0] = np.sign(params.W[0]) * 2.0**-600
    params.P[:], params.Q[:] = 0.0, 0.0
    params.P[0] = np.sign(params.W[0]) * 2.0**100
    params.Q[1] = 0.55 * 2.0**-474
    params.b[0] = -0.6 * d * 2.0**-974
    assert (every_pre_activation(cfg, params) > 0.0).any(axis=(0, 1))[0]
    assert ranking_bounds(params, cfg)[0][0]


def test_the_check_finds_dead_units_at_both_scales():
    cfg = ModelConfig(model_kind=ModelKind.NAIS, d=5, d_prime=8)
    for scale in (0.3, 1e-103):
        params = random_params(cfg, 40, 3, seed=59, scale=scale)
        params.b[:4] = -10 * scale  # beyond any pair's reach at either scale
        live = ranking_bounds(params, cfg)[0]
        assert not live[:4].any() and live.sum() <= 4


def bounded_scorer_logits(monkeypatch):
    """Record, per ranking block, the workspace's bounds and the largest |item| and |feature| logit."""
    seen = []
    original = evaluation.forward_block

    def recording(*args):
        cache = original(*args)
        ws = args[6]
        largest = [0.0 if a is None else float(np.abs(a).max()) for a in (cache.item_logits, cache.a_hat)]
        seen.append((ws.item_bound, ws.feature_bound, *largest))
        return cache

    monkeypatch.setattr(evaluation, "forward_block", recording)
    return seen


@pytest.mark.parametrize("planted", PLANTED)
@pytest.mark.parametrize("scale", [0.3, 3.0], ids=["0.3", "3"])
@pytest.mark.parametrize("cfg", ATTENTIVE_CONFIGS, ids=config_id)
def test_each_logit_bound_covers_every_block(cfg, scale, planted, monkeypatch):
    split = long_history_split()
    params = planted_params(cfg, 400, 6, 60, scale, planted)
    seen = bounded_scorer_logits(monkeypatch)
    scorer = model_scorer(params, cfg, split)
    for user in range(6):
        scorer(user)
    assert len(seen) >= 6 * 3
    item_bound, feature_bound = seen[0][:2]
    assert math.isfinite(item_bound if cfg.item_attention else feature_bound)
    for item_b, feature_b, item_max, feature_max in seen:
        assert (item_b, feature_b) == (item_bound, feature_bound)
        assert item_max <= item_bound and feature_max <= feature_bound


def assert_scores_match_the_full_block(cfg, params, split):
    scorer = model_scorer(params, cfg, split)
    for user in range(split.train.user_count):
        hist = split.train.items_by_user[user]
        whole = forward_block(cfg, params, user, slice(None), params.P, params.Q[hist]).score
        pruned = scorer(user)
        np.testing.assert_allclose(pruned, whole, rtol=1e-12, atol=0.0)
        top = lambda scores: np.argsort(-scores, kind="stable")[:10]
        np.testing.assert_array_equal(top(pruned), top(whole))


@pytest.mark.parametrize("planted", [name for name in PLANTED if name != "none"])
@pytest.mark.parametrize("cfg", ATTENTIVE_CONFIGS, ids=config_id)
def test_a_pruned_scorer_equals_the_full_forward_block(cfg, planted):
    split = long_history_split()
    params = planted_params(cfg, 400, 6, 61, 0.3, planted)
    params.b[2] = -10.0  # a random row that cannot reach 10
    live = ranking_bounds(params, cfg)[0]
    assert not live[2] and live.sum() < live.size
    assert_scores_match_the_full_block(cfg, params, split)


@pytest.mark.parametrize("cfg", ATTENTIVE_CONFIGS, ids=config_id)
def test_a_model_whose_units_are_all_dead_still_ranks(cfg):
    split = long_history_split()
    params = random_params(cfg, 400, 6, seed=62, scale=0.3)
    params.b[:] = -50.0
    live, item_bound, feature_bound = ranking_bounds(params, cfg)
    assert live.sum() == 1
    # every ReLU reads 0, so every logit is 0
    assert min(item_bound, feature_bound) < 1e-300
    assert_scores_match_the_full_block(cfg, params, split)
    record = evaluate_model(params, cfg, split, on="test")
    assert record.users_evaluated == 6


@pytest.mark.parametrize("name", ["P", "Q", "W", "b", "h", "H"])
@pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "-inf"])
def test_a_nonfinite_parameter_keeps_every_unit_and_bounds_nothing(bad, name):
    for cfg in ATTENTIVE_CONFIGS:
        params = random_params(cfg, 14, 3, seed=63, scale=0.3)
        params.b[:] = -10.0
        array = params.get(name) if name in params.shapes() else None
        if array is None:
            continue
        array.flat[-1] = bad
        live, item_bound, feature_bound = ranking_bounds(params, cfg)
        assert live.all()
        assert math.isnan(item_bound) and math.isnan(feature_bound)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children os.fork starts while the test runs."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def test_forks_are_capped_at_the_share_count(monkeypatch, forks):
    cfg = ModelConfig(model_kind=ModelKind.NAIS, d=4, d_prime=4)
    split = split_per_user(random_dataset(43, n_users=6, n_items=12, min_items=4), seed=7)
    params = random_params(cfg, 12, 6, seed=44, scale=0.2)
    monkeypatch.setattr(evaluation, "GROUP_SCORES", 12)  # groups of one user
    cut = []
    real_shares = evaluation._shares
    monkeypatch.setattr(evaluation, "_shares", lambda *args: cut.append(real_shares(*args)) or cut[-1])
    serial = evaluate_model(params, cfg, split, on="test", n=5, workers=1)
    assert forks == []
    pooled = evaluate_model(params, cfg, split, on="test", n=5, workers=500)
    assert_no_child_left()
    shares = cut[-1]
    # 6 users make at most 6 shares: this process ranks one, 5 children the rest
    assert len(forks) == len(shares) - 1 == 5
    assert all(shares)
    np.testing.assert_array_equal(np.concatenate(sum(shares, [])), evaluation._eval_users(split, "test"))
    assert (pooled.hr, pooled.ndcg, pooled.users_evaluated) == (serial.hr, serial.ndcg, 6)


def test_shares_are_contiguous_cover_every_user_and_balance_the_history(monkeypatch):
    monkeypatch.setattr(evaluation, "GROUP_SCORES", 200)  # groups of one user at 200 items
    for seed, n_users, workers in ((1, 1, 1), (2, 2, 5), (3, 7, 3), (4, 30, 2), (5, 30, 7), (6, 9, 9)):
        split = split_per_user(random_dataset(seed, n_users=n_users, n_items=200, min_items=3,
                                              max_items=150), seed=seed)
        users = evaluation._eval_users(split, "test")
        shares = [np.concatenate(share) for share in evaluation._shares(split, users, workers)]
        assert len(shares) == min(workers, users.size)
        assert all(share.size for share in shares)
        np.testing.assert_array_equal(np.concatenate(shares), users)
        weights = [sum(split.train.items_by_user[u].size + 1 for u in share) for share in shares]
        if len(shares) == 2:  # the cut falls on the user whose history crosses the middle
            heaviest = max(split.train.items_by_user[u].size + 1 for u in users)
            assert abs(weights[0] - weights[1]) < 2 * heaviest


def test_shares_are_runs_of_whole_groups(monkeypatch):
    monkeypatch.setattr(evaluation, "GROUP_SCORES", 3 * 200)  # groups of three users
    monkeypatch.setattr(evaluation, "SHARED", 1)
    split = split_per_user(random_dataset(5, n_users=30, n_items=200, min_items=3, max_items=150), seed=5)
    users = evaluation._eval_users(split, "test")
    groups = evaluation._groups(split, users)
    assert [group.size for group in groups] == [3] * 10
    for workers in (2, 3, 7, 10, 40):
        shares = evaluation._shares(split, users, workers)
        assert len(shares) == min(workers, 10) and all(shares)
        # the shares, in order, hold the groups of the whole user list
        assert all(np.array_equal(a, b) for a, b in zip(sum(shares, []), groups, strict=True))


def test_parallel_evaluation_matches_serial():
    cfg = ModelConfig(model_kind=ModelKind.FLA_NAIS, d=4, d_prime=4)
    # 5-12 of 18 items fit one scoring block; 60-80 of 400 items force several
    for n_items, min_items, max_items in ((18, 5, 12), (400, 60, 80)):
        dataset = random_dataset(40, n_users=16, n_items=n_items, min_items=min_items,
                                 max_items=max_items)
        split = split_per_user(dataset, seed=7)
        params = random_params(cfg, n_items, 16, seed=41, scale=0.2)
        serial = evaluate_model(params, cfg, split, on="test", n=5, workers=1)
        for workers in (2, 3, 40):
            parallel = evaluate_model(params, cfg, split, on="test", n=5, workers=workers)
            assert_no_child_left()
            assert serial.hr == parallel.hr
            assert serial.ndcg == parallel.ndcg
            assert serial.users_evaluated == parallel.users_evaluated == 16


def failure_case():
    cfg = ModelConfig(model_kind=ModelKind.NAIS, d=4, d_prime=4)
    split = split_per_user(random_dataset(46, n_users=9, n_items=20, min_items=5), seed=7)
    return random_params(cfg, 20, 9, seed=47, scale=0.2), cfg, split


def rank_users_where(monkeypatch, parent_share, child_share):
    """Replace rank_users with parent_share() in this process, child_share() in forked children,
    and rank failure_case's users in groups of two, so up to 5 workers all get a share."""
    monkeypatch.setattr(evaluation, "GROUP_SCORES", 2 * 20)
    parent = os.getpid()
    monkeypatch.setattr(
        evaluation, "rank_users",
        lambda *args, **kwargs: parent_share() if os.getpid() == parent else child_share(),
    )


def test_a_child_exception_is_raised_with_its_type_and_message(monkeypatch, forks):
    def fail():
        raise ConfigError("no such share")

    rank_users_where(monkeypatch, parent_share=lambda: [], child_share=fail)
    with pytest.raises(ConfigError) as raised:
        evaluate_model(*failure_case(), on="test", n=5, workers=3)
    assert type(raised.value) is ConfigError
    assert str(raised.value) == "no such share"
    assert len(forks) == 2
    assert_no_child_left()


class TwoArgumentError(Exception):
    """Pickles, but unpickling calls __init__ with its one stored argument."""

    def __init__(self, what, why):
        super().__init__(f"{what} {why}")


class UnpicklableError(Exception):
    """Holds a lambda, so it does not pickle."""

    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


@pytest.mark.parametrize("error, text", [
    (TwoArgumentError("no such", "share"), "TwoArgumentError: no such share"),
    (UnpicklableError("no such share"), "UnpicklableError: no such share"),
], ids=["unpickles-badly", "does-not-pickle"])
def test_a_child_exception_that_cannot_make_the_pickle_round_trip_arrives_as_runtime_error(
        monkeypatch, forks, error, text):
    def fail():
        raise error

    rank_users_where(monkeypatch, parent_share=lambda: [], child_share=fail)
    with pytest.raises(RuntimeError) as raised:
        evaluate_model(*failure_case(), on="test", n=5, workers=2)
    assert type(raised.value) is RuntimeError
    assert str(raised.value) == text
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("end, status", [
    (lambda: os._exit(7), "wait status 1792, exit code 7"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "wait status 9, killed by signal 9"),
], ids=["exit", "signal"])
def test_a_child_that_sends_nothing_is_named_with_its_wait_status(monkeypatch, forks, end, status):
    rank_users_where(monkeypatch, parent_share=lambda: [], child_share=end)
    with pytest.raises(RuntimeError) as raised:
        evaluate_model(*failure_case(), on="test", n=5, workers=2)
    assert str(raised.value) == f"evaluation child {forks[0]} ended without a result ({status})"
    assert_no_child_left()


def test_an_exception_in_this_process_kills_and_reaps_the_children(monkeypatch, forks):
    def fail():
        raise KeyError("own share")

    rank_users_where(monkeypatch, parent_share=fail, child_share=lambda: time.sleep(30))
    start = time.perf_counter()
    with pytest.raises(KeyError, match="own share"):
        evaluate_model(*failure_case(), on="test", n=5, workers=3)
    assert time.perf_counter() - start < 15  # not the children's 30 s
    assert len(forks) == 2
    assert_no_child_left()


def test_evaluation_is_serial_without_fork(monkeypatch):
    params, cfg, split = failure_case()
    serial = evaluate_model(params, cfg, split, on="test", n=5, workers=1)
    monkeypatch.delattr(os, "fork")
    assert evaluate_model(params, cfg, split, on="test", n=5, workers=3) == serial
