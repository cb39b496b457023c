"""Objective, optimizer, sampling, and full training-loop behavior."""

import math

import numpy as np
import pytest
from scipy import stats

from flaicf.config import ModelConfig, ModelKind, TrainConfig
from flaicf.evaluation import evaluate_model
from flaicf.gradients import GradientSet, backward, instance_data_loss, touched_parameters
from flaicf.params import init_parameters, params_equal
from flaicf.training import (
    adagrad_step,
    epoch_instances,
    history_for,
    sample_negatives,
    train,
    train_fism,
)
from flaicf.predictors import PredictionContext, forward_cache
from tests.conftest import random_dataset, random_params
from tests.test_checkpoint import ALL_CONFIGS
from flaicf.data import split_per_user


# ----------------------------------------------------------------- Adagrad


def one_param_setup(value: float):
    cfg = ModelConfig(model_kind=ModelKind.FISM, d=1)
    params = init_parameters(cfg, 1, 1, seed=0)
    params.P[:] = value
    params.Q[:] = 0.0
    state = params.zeros_like()
    return params, state


def grad_of(params, value: float) -> GradientSet:
    return GradientSet([("P", ..., np.array([[value]]), params.P)])


def test_adagrad_first_step_normalizes_to_lr():
    # g=3, lr=0.1, eps=0: acc=9, update = 0.1*3/3 = 0.1
    params, state = one_param_setup(1.0)
    adagrad_step(params, grad_of(params, 3.0), state, learning_rate=0.1, epsilon=0.0)
    assert params.P[0, 0] == pytest.approx(0.9, rel=1e-12)
    assert state.get("P")[0, 0] == pytest.approx(9.0)


def test_adagrad_two_unit_steps():
    # g=1 twice, lr=1, eps=0: steps of 1 then 1/sqrt(2)
    params, state = one_param_setup(0.0)
    adagrad_step(params, grad_of(params, 1.0), state, learning_rate=1.0, epsilon=0.0)
    assert params.P[0, 0] == pytest.approx(-1.0)
    adagrad_step(params, grad_of(params, 1.0), state, learning_rate=1.0, epsilon=0.0)
    assert params.P[0, 0] == pytest.approx(-1.0 - 1.0 / math.sqrt(2.0), rel=1e-12)


def test_adagrad_accumulator_never_decreases():
    cfg = ModelConfig(model_kind=ModelKind.NAIS, d=4, d_prime=4)
    params = random_params(cfg, 6, 1, seed=1)
    state = params.zeros_like()
    rng = np.random.default_rng(1)
    prev = {k: v.copy() for k, v in state.arrays()}
    for _ in range(20):
        grads = GradientSet([
            ("W", ..., rng.normal(size=params.W.shape), params.W),
            ("h", ..., rng.normal(size=params.h.shape), params.h),
            ("P", np.array([0]), rng.normal(size=(1, 4)), params.P[[0]]),
        ])
        adagrad_step(params, grads, state, 0.01)
        for name in ("W", "h", "P"):
            assert np.all(state.get(name) >= prev[name] - 1e-15)
            prev[name] = state.get(name).copy()


def test_adagrad_sparse_rows_only_touch_their_rows():
    cfg = ModelConfig(model_kind=ModelKind.FISM, d=3)
    params = init_parameters(cfg, 5, 1, seed=2)
    before = params.Q.copy()
    state = params.zeros_like()
    rows = np.array([1, 3])
    grads = GradientSet([("Q", rows, np.ones((2, 3)), params.Q[rows])])
    adagrad_step(params, grads, state, 0.5)
    assert not np.array_equal(params.Q[1], before[1])
    assert not np.array_equal(params.Q[3], before[3])
    np.testing.assert_array_equal(params.Q[[0, 2, 4]], before[[0, 2, 4]])


def test_pure_regularization_step_shrinks_parameters():
    # zero data gradient, lambda > 0: one small-lr update moves every
    # nonzero theta strictly toward zero
    cfg = ModelConfig(model_kind=ModelKind.FISM, d=4)
    params = random_params(cfg, 6, 1, seed=3)
    l2, lr = 0.1, 1e-3
    state = params.zeros_like()
    before_p = params.P.copy()
    grads = GradientSet([("P", np.arange(6), 2 * l2 * params.P, params.P.copy())])
    adagrad_step(params, grads, state, lr)
    assert np.all(np.abs(params.P) < np.abs(before_p))
    assert np.all(np.sign(params.P) == np.sign(before_p))  # no overshoot at this lr


# ---------------------------------------------------------------- sampling


def test_negatives_disjoint_from_positives():
    rng = np.random.default_rng(4)
    positives = np.array([2, 5, 9])
    for _ in range(200):
        negs = sample_negatives(0, positives, 4, 20, rng)
        assert negs.size == 12
        assert not np.isin(negs, positives).any()


def test_negatives_uniform_over_candidates():
    # chi-squared goodness of fit over the 90 allowed items
    rng = np.random.default_rng(5)
    positives = np.arange(10)
    draws = sample_negatives(0, positives, 4, 100, rng)
    while draws.size < 100_000:
        draws = np.concatenate([draws, sample_negatives(0, positives, 4, 100, rng)])
    counts = np.bincount(draws, minlength=100)[10:]
    chi2 = float(((counts - counts.mean()) ** 2 / counts.mean()).sum())
    assert chi2 < stats.chi2.ppf(0.999, df=89)


def test_no_negative_candidates_rejected():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        sample_negatives(0, np.arange(5), 4, 5, rng)


def test_epoch_instances_counts_and_labels():
    rng = np.random.default_rng(7)
    pos = [np.array([0, 1]), np.array([4]), np.array([], dtype=np.int64)]
    users, items, labels = epoch_instances(pos, 4, 10, rng)
    assert users.size == 2 * 5 + 1 * 5
    for u in (0, 1):
        mask = users == u
        pos_items = items[mask][labels[mask] == 1.0]
        np.testing.assert_array_equal(np.sort(pos_items), pos[u])
        neg_items = items[mask][labels[mask] == 0.0]
        assert not np.isin(neg_items, pos[u]).any()
        assert neg_items.size == 4 * pos[u].size


def test_history_excludes_target_for_positives_only():
    pos = np.array([1, 4, 7])
    np.testing.assert_array_equal(history_for(pos, 4, 1.0), [1, 7])
    np.testing.assert_array_equal(history_for(pos, 2, 0.0), [1, 4, 7])


# ------------------------------------------------------------ training loop


def quick_train_config(**kw) -> TrainConfig:
    base = dict(learning_rate=0.05, l2=1e-6, neg_ratio=2, epochs=3,
                seed=11, early_stop_patience=10, eval_n=5)
    base.update(kw)
    return TrainConfig(**base)


def test_training_reduces_loss_on_toy_data():
    split = split_per_user(random_dataset(8, n_users=12, n_items=15, min_items=5), seed=1)
    cfg = ModelConfig(model_kind=ModelKind.FISM, d=8)
    _, records = train(ModelKind.FISM, split, cfg, quick_train_config(epochs=8))
    assert records[-1].loss < records[0].loss


def test_epoch_records_count_the_validation_users():
    split = split_per_user(random_dataset(8, n_users=12, n_items=15, min_items=5), seed=1)
    users = sum(1 for items in split.valid.items_by_user if items.size)
    assert users > 0
    cfg = ModelConfig(model_kind=ModelKind.FISM, d=4)
    _, records = train(ModelKind.FISM, split, cfg, quick_train_config(epochs=2))
    assert [r.to_dict()["users_evaluated"] for r in records] == [users, users]


def test_training_bitwise_deterministic():
    split = split_per_user(random_dataset(9, n_users=10, n_items=14, min_items=4), seed=2)
    cfg = ModelConfig(model_kind=ModelKind.FLA_NAIS, d=4, d_prime=4)
    tc = quick_train_config(epochs=2)
    params_a, recs_a = train(ModelKind.FLA_NAIS, split, cfg, tc)
    params_b, recs_b = train(ModelKind.FLA_NAIS, split, cfg, tc)
    assert params_equal(params_a, params_b)
    assert [r.loss for r in recs_a] == [r.loss for r in recs_b]
    assert [r.hr for r in recs_a] == [r.hr for r in recs_b]


def test_training_seed_changes_output():
    split = split_per_user(random_dataset(9, n_users=10, n_items=14, min_items=4), seed=2)
    cfg = ModelConfig(model_kind=ModelKind.FISM, d=4)
    a, _ = train(ModelKind.FISM, split, cfg, quick_train_config(epochs=1, seed=1))
    b, _ = train(ModelKind.FISM, split, cfg, quick_train_config(epochs=1, seed=2))
    assert not params_equal(a, b)


def test_early_stopping_caps_epochs():
    split = split_per_user(random_dataset(10, n_users=8, n_items=12, min_items=4), seed=3)
    cfg = ModelConfig(model_kind=ModelKind.FISM, d=4)
    # lr=0 freezes the model, so validation HR never improves after epoch 1
    tc = TrainConfig(learning_rate=1e-12, l2=0.0, neg_ratio=1, epochs=50,
                     seed=0, early_stop_patience=2, eval_n=5)
    _, records = train(ModelKind.FISM, split, cfg, tc)
    assert len(records) == 4  # best at 1, patience 2 exhausted at epoch 4


def test_best_validation_params_returned():
    split = split_per_user(random_dataset(11, n_users=12, n_items=16, min_items=5), seed=4)
    cfg = ModelConfig(model_kind=ModelKind.NAIS, d=4, d_prime=4)
    tc = quick_train_config(epochs=5)
    params, records = train(ModelKind.NAIS, split, cfg, tc)
    best = max(records, key=lambda r: r.hr)
    from flaicf.evaluation import evaluate_model
    again = evaluate_model(params, cfg, split, on="valid", n=5)
    assert again.hr == pytest.approx(best.hr)


def test_all_kinds_survive_one_epoch():
    split = split_per_user(random_dataset(12, n_users=8, n_items=12, min_items=4), seed=5)
    tc = quick_train_config(epochs=1)
    for kind in ModelKind:
        cfg = ModelConfig(model_kind=kind, d=4, d_prime=4)
        params, records = train(kind, split, cfg, tc)
        assert params.all_finite(), kind
        assert len(records) == 1


def test_pretrain_fism_shapes_and_determinism():
    split = split_per_user(random_dataset(13, n_users=8, n_items=12, min_items=4), seed=6)
    cfg = ModelConfig(model_kind=ModelKind.FLA_NAIS, d=5, d_prime=3, alpha=0.3, beta=0.6)
    tc = quick_train_config(epochs=5)
    fism_config, first, records = train_fism(split, cfg, tc, epochs=2)
    _, second, _ = train_fism(split, cfg, tc, epochs=2)
    assert fism_config == ModelConfig(model_kind=ModelKind.FISM, d=5, alpha=0.3, beta=0.6)
    # a nonzero epochs overrides the train config's
    assert len(records) == 2
    assert first.P.shape == (12, 5) and first.Q.shape == (12, 5)
    assert params_equal(first, second)
    direct, _ = train(ModelKind.FISM, split, fism_config, quick_train_config(epochs=2))
    assert params_equal(first, direct)


def test_pretrained_init_propagates_into_training():
    split = split_per_user(random_dataset(14, n_users=8, n_items=12, min_items=4), seed=7)
    cfg = ModelConfig(model_kind=ModelKind.FLA_NAIS, d=4, d_prime=4)
    tc = quick_train_config(epochs=1)
    _, fism, _ = train_fism(split, cfg, tc)
    with_pre, _ = train(ModelKind.FLA_NAIS, split, cfg, tc, pretrained=(fism.P, fism.Q))
    without, _ = train(ModelKind.FLA_NAIS, split, cfg, tc)
    assert not params_equal(with_pre, without)


@pytest.mark.parametrize(
    "kind,l2",
    [(ModelKind.FLA_NAIS, 0.1), (ModelKind.FLA_DICF, 0.01)],
    ids=["FLA_NAIS-D2", "FLA_DICF-D2"],
)
def test_training_leaves_no_subnormal_parameter(kind, l2):
    # l2 decays the weights of dead ReLU units, dense arrays and Q rows
    # alike, below the smallest normal float unless the update flushes them
    split = split_per_user(random_dataset(12, n_users=10, n_items=14, min_items=5), seed=1)
    cfg = ModelConfig(model_kind=kind, d=4)
    tc = quick_train_config(l2=l2, epochs=10, seed=3, early_stop_patience=100)
    params, _ = train(kind, split, cfg, tc)
    tiny = np.finfo(np.float64).tiny
    subnormal = {
        name: int(np.count_nonzero((arr != 0) & (np.abs(arr) < tiny)))
        for name, arr in params.arrays()
    }
    assert not any(subnormal.values()), subnormal


def per_array_adagrad(params, grads: GradientSet, ctx, cfg, acc: dict, lr: float,
                      eps: float = 1e-8) -> None:
    """Adagrad array by array over the arrays and rows ctx touches, flushing below tiny."""
    tiny = np.finfo(np.float64).tiny
    by_array = grads.by_array(params)
    for name, idx in touched_parameters(ctx, cfg):
        theta, grad = params.get(name), by_array[name]
        if idx is None:
            acc[name] += grad * grad
            theta -= lr * grad / (np.sqrt(acc[name]) + eps)
            theta[np.abs(theta) < tiny] = 0.0
        else:
            total = acc[name][idx] + grad[idx] * grad[idx]
            acc[name][idx] = total
            new = theta[idx] - lr * grad[idx] / (np.sqrt(total) + eps)
            new[np.abs(new) < tiny] = 0.0
            theta[idx] = new


@pytest.mark.parametrize(
    "cfg",
    ALL_CONFIGS,
    ids=["FISM", "NAIS", "NAIS-CONCAT", "FLA_NAIS-D1", "FLA_NAIS-D2", "DEEPICF",
         "FLA_DICF-D1", "FLA_DICF-D2"],
)
def test_segment_update_equals_per_array_update(cfg):
    # adagrad_step over backward's segment entries and the reference
    # above, over the same gradients array by array on the rows the
    # contract names, must move the parameters and the accumulators bit
    # for bit alike
    n_items, n_users = 9, 3
    flat = init_parameters(cfg, n_items, n_users, seed=1)
    flat.flat()[:] = np.random.default_rng(2).normal(0.0, 0.5, size=flat.flat().size)
    split = flat.copy()
    state_flat = flat.zeros_like()
    acc_split = {name: np.zeros_like(arr) for name, arr in split.arrays()}
    rng = np.random.default_rng(3)
    for _ in range(40):
        items = rng.permutation(n_items)
        ctx = PredictionContext(int(rng.integers(n_users)), int(items[0]),
                                np.sort(items[1 : 1 + int(rng.integers(1, 6))]))
        label = float(rng.integers(2))
        grads = backward(forward_cache(ctx, flat, cfg), label, flat, cfg, l2=1e-3)
        adagrad_step(flat, grads, state_flat, 0.05)
        grads = backward(forward_cache(ctx, split, cfg), label, split, cfg, l2=1e-3)
        per_array_adagrad(split, grads, ctx, cfg, acc_split, 0.05)
    assert flat.flat().tobytes() == split.flat().tobytes()
    for name, _ in flat.arrays():
        assert state_flat.get(name).tobytes() == acc_split[name].tobytes(), name


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"{c.model_kind}-{c.attention_mode}-{c.design}")
def test_train_equals_a_loop_of_the_public_steps(cfg):
    # train() runs its steps on a workspace built once; the plain loop
    # below builds everything per instance and must give the same bits
    split = split_per_user(random_dataset(15, n_users=9, n_items=13, min_items=4), seed=3)
    tc = quick_train_config(epochs=1, l2=1e-3)
    params, records = train(cfg.model_kind, split, cfg, tc)

    n_items, n_users = split.train.item_count, split.train.user_count
    ref = init_parameters(cfg, n_items, n_users, tc.seed)
    state = ref.zeros_like()
    rng = np.random.default_rng(tc.seed)
    pos_by_user = split.train.items_by_user
    users, items, labels = epoch_instances(pos_by_user, tc.neg_ratio, n_items, rng)
    loss_sum = 0.0
    for idx in rng.permutation(users.size):
        u, i, y = int(users[idx]), int(items[idx]), float(labels[idx])
        ctx = PredictionContext(u, i, history_for(pos_by_user[u], i, y))
        cache = forward_cache(ctx, ref, cfg)
        loss_sum += instance_data_loss(cache.score, y)
        grads = backward(cache, y, ref, cfg, tc.l2)
        adagrad_step(ref, grads, state, tc.learning_rate, tc.adagrad_epsilon)
    val = evaluate_model(ref, cfg, split, on="valid", n=tc.eval_n)

    assert params.flat().tobytes() == ref.flat().tobytes()
    [record] = records
    assert record.loss == loss_sum / users.size + tc.l2 * ref.sum_squares()
    assert (record.hr, record.ndcg) == (val.hr, val.ndcg)


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: f"{c.model_kind}-{c.attention_mode}-{c.design}")
def test_backward_without_a_workspace_never_reuses_memory(cfg):
    # gradcheck keeps one call's gradients while it makes the next
    params = init_parameters(cfg, 9, 3, seed=5)
    params.flat()[:] = np.random.default_rng(5).normal(0.0, 0.5, size=params.flat().size)
    ctx = PredictionContext(user=1, target=0, history=np.array([2, 5, 7]))
    cache = forward_cache(ctx, params, cfg)
    first, second = (backward(cache, label, params, cfg, l2=1e-3) for label in (1.0, 0.0))

    def arrays(grads):
        return [grad for _, _, grad, _ in grads.segments]

    assert arrays(first) and arrays(second)
    for a in arrays(first):
        for b in arrays(second):
            assert not np.shares_memory(a, b)
