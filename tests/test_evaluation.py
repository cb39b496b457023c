"""Ranking metrics against brute-force oracles; batch scorer consistency."""

import math
import os
import signal
import time

import numpy as np
import pytest

from flaicf import evaluation
from flaicf.config import DEEP_KINDS, AttentionMode, ConfigError, Design, ModelConfig, ModelKind
from flaicf.data import split_per_user
from flaicf.evaluation import (
    BLOCK,
    MetricsRecord,
    baseline_scores,
    evaluate,
    evaluate_model,
    hr_at_n,
    model_scorer,
    ndcg_at_n,
    rank_items,
)
from flaicf.predictors import BlockWorkspace, PredictionContext, forward_block, predict
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


ATTENTIVE_CONFIGS = [c for c in SCORER_CONFIGS if c.model_kind is not ModelKind.FISM]


def config_id(cfg):
    return f"{cfg.model_kind}-{cfg.design}-{cfg.attention_mode}"


@pytest.mark.parametrize("cfg", SCORER_CONFIGS, ids=config_id)
def test_batch_scorer_matches_instance_predict(cfg, monkeypatch):
    split = split_per_user(random_dataset(37, n_users=8, n_items=14, min_items=4), seed=6)
    params = random_params(cfg, 14, 8, seed=38, scale=0.3)
    monkeypatch.setattr(evaluation, "BLOCK", 64)  # at most 12 of the 14 items per block
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


def block_bias(cfg, params, user, items):
    return params.b_user[user] + params.b_item[items] if cfg.model_kind in DEEP_KINDS else 0.0


@pytest.mark.parametrize("cfg", ATTENTIVE_CONFIGS, ids=config_id)
def test_forward_block_workspace_is_bitwise_and_reused(cfg):
    params = random_params(cfg, 14, 3, seed=42, scale=0.3)
    workspace = BlockWorkspace()
    first = None
    for c, hist in ((6, [7, 8, 9, 10, 11]), (4, [8, 12, 13])):
        args = (cfg.model_kind, cfg, params, params.P[:c], params.Q[hist],
                block_bias(cfg, params, 1, slice(0, c)))
        fresh = forward_block(*args)
        cache = forward_block(*args, workspace)
        np.testing.assert_array_equal(cache.score, fresh.score)
        np.testing.assert_array_equal(cache.R, fresh.R)
        assert np.shares_memory(cache.R, workspace.buffers["R"])
        assert not any(np.shares_memory(cache.score, buf) for buf in workspace.buffers.values())
        if first is None:
            first = dict(workspace.buffers)
    # the smaller second block reuses every buffer of the first
    assert workspace.buffers.keys() == first.keys()
    assert all(workspace.buffers[name] is buf for name, buf in first.items())


def long_history_split():
    """6 users with 60-80 of 400 items, so every history forces several scoring blocks."""
    return split_per_user(random_dataset(43, n_users=6, n_items=400, min_items=60, max_items=80), seed=8)


@pytest.mark.parametrize("cfg", ATTENTIVE_CONFIGS, ids=config_id)
def test_blocked_scorer_matches_one_block(cfg):
    split = long_history_split()
    params = random_params(cfg, 400, 6, seed=44, scale=0.3)
    scorer = model_scorer(params, cfg, split)
    for user in range(6):
        hist = split.train.items_by_user[user]
        assert BLOCK // (hist.size * max(cfg.d, cfg.d_prime)) <= 400 // 3  # three blocks or more
        whole = forward_block(cfg.model_kind, cfg, params, params.P, params.Q[hist],
                              block_bias(cfg, params, user, slice(None))).score
        blocked = scorer(user)
        np.testing.assert_allclose(blocked, whole, rtol=1e-12, atol=0.0)
        top = lambda scores: np.argsort(-scores, kind="stable")[:10]
        np.testing.assert_array_equal(top(blocked), top(whole))


@pytest.mark.parametrize("cfg", ATTENTIVE_CONFIGS, ids=config_id)
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
    assert split.train.items_by_user[1].size == 0
    cfg = ModelConfig(model_kind=ModelKind.DEEPICF, d=4, d_prime=4)
    params = random_params(cfg, 5, 2, seed=39)
    scores = model_scorer(params, cfg, split)(1)
    np.testing.assert_allclose(scores, params.b_user[1] + params.b_item, atol=1e-12)
    nais_cfg = ModelConfig(model_kind=ModelKind.NAIS, d=4, d_prime=4)
    nais_params = random_params(nais_cfg, 5, 2, seed=40)
    np.testing.assert_array_equal(model_scorer(nais_params, nais_cfg, split)(1), np.zeros(5))


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
    cut = []
    real_shares = evaluation._shares
    monkeypatch.setattr(evaluation, "_shares", lambda *args: cut.append(real_shares(*args)) or cut[-1])
    serial = evaluate_model(params, cfg, split, on="test", n=5, workers=1)
    assert forks == []
    pooled = evaluate_model(params, cfg, split, on="test", n=5, workers=500)
    assert_no_child_left()
    shares = cut[-1]
    # 6 users make at most 6 shares: this process ranks one, 5 children the rest
    assert len(forks) == len(shares) - 1 <= 5
    assert all(share.size for share in shares)
    np.testing.assert_array_equal(np.concatenate(shares), evaluation._eval_users(split, "test"))
    assert (pooled.hr, pooled.ndcg, pooled.users_evaluated) == (serial.hr, serial.ndcg, 6)


def test_shares_are_contiguous_cover_every_user_and_balance_the_history():
    for seed, n_users, workers in ((1, 1, 1), (2, 2, 5), (3, 7, 3), (4, 30, 2), (5, 30, 7), (6, 9, 9)):
        split = split_per_user(random_dataset(seed, n_users=n_users, n_items=200, min_items=3,
                                              max_items=150), seed=seed)
        users = evaluation._eval_users(split, "test")
        shares = evaluation._shares(split, users, workers)
        assert len(shares) == min(workers, users.size)
        assert all(share.size for share in shares)
        np.testing.assert_array_equal(np.concatenate(shares), users)
        weights = [sum(split.train.items_by_user[u].size + 1 for u in share) for share in shares]
        if len(shares) == 2:  # the cut falls on the user whose history crosses the middle
            heaviest = max(split.train.items_by_user[u].size + 1 for u in users)
            assert abs(weights[0] - weights[1]) < 2 * heaviest


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
    """Replace rank_users with parent_share() in this process, child_share() in forked children."""
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
