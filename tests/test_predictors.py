"""Forward-pass oracles and reduction identities between model families."""

import numpy as np
import pytest

from flaicf.attention import design2_weights, smoothed_softmax
from flaicf.config import AttentionMode, Design, ModelConfig, ModelKind
from flaicf.params import init_parameters
from flaicf.predictors import (
    PredictionContext,
    attention_for,
    deep_tower,
    deepicf_forward,
    deepicf_pool,
    fla_dicf_forward,
    fla_pool,
    fla_score,
    forward_cache,
    predict,
    predict_fism,
    predict_fla,
    predict_nais,
)
from tests.conftest import random_params


def ctx_for(m: int, target: int = 0, user: int = 0) -> PredictionContext:
    history = np.array([t for t in range(1, m + 1)], dtype=np.int64)
    return PredictionContext(user=user, target=target, history=history)


def test_context_rejects_target_in_history():
    with pytest.raises(ValueError):
        PredictionContext(user=0, target=3, history=np.array([1, 3]))
    with pytest.raises(ValueError):
        PredictionContext(user=0, target=0, history=np.array([[1, 2]]))


# ------------------------------------------------------------------- FISM


def test_fism_single_item_alpha_zero():
    cfg = ModelConfig(model_kind=ModelKind.FISM, d=2, alpha=0.0)
    params = init_parameters(cfg, 3, 1, seed=0)
    params.P[0] = [1.0, 2.0]
    params.Q[1] = [3.0, 4.0]
    ctx = PredictionContext(user=0, target=0, history=np.array([1]))
    assert predict_fism(ctx, params, alpha=0.0) == pytest.approx(11.0)


def test_fism_alpha_one_is_mean():
    cfg = ModelConfig(model_kind=ModelKind.FISM, d=3)
    params = init_parameters(cfg, 4, 1, seed=1)
    params.Q[2] = params.Q[1]  # two identical history items
    ctx = PredictionContext(user=0, target=0, history=np.array([1, 2]))
    single = float(params.P[0] @ params.Q[1])
    assert predict_fism(ctx, params, alpha=1.0) == pytest.approx(single, rel=1e-12)


def test_fism_vs_naive():
    cfg = ModelConfig(model_kind=ModelKind.FISM, d=8)
    params = random_params(cfg, 12, 2, seed=2)
    ctx = ctx_for(5)
    for alpha in (0.0, 0.4, 1.0):
        expect = sum(float(params.P[0] @ params.Q[j]) for j in ctx.history) / 5 ** alpha
        assert predict_fism(ctx, params, alpha) == pytest.approx(expect, rel=1e-12)


def test_fism_empty_history_is_zero():
    cfg = ModelConfig(model_kind=ModelKind.FISM, d=4)
    params = random_params(cfg, 5, 1, seed=3)
    ctx = PredictionContext(user=0, target=0, history=np.array([], dtype=np.int64))
    assert predict_fism(ctx, params, 0.5) == 0.0


# ------------------------------------------------------------------- NAIS


def test_nais_singleton_beta1_is_inner_product():
    cfg = ModelConfig(model_kind=ModelKind.NAIS, d=4, d_prime=3, beta=1.0)
    params = random_params(cfg, 5, 1, seed=4)
    ctx = PredictionContext(user=0, target=0, history=np.array([2]))
    assert predict_nais(ctx, params, cfg) == pytest.approx(float(params.P[0] @ params.Q[2]), rel=1e-12)


def test_nais_h_zero_reduces_to_beta_normalized_sum():
    cfg = ModelConfig(model_kind=ModelKind.NAIS, d=4, d_prime=3, beta=0.7)
    params = random_params(cfg, 8, 1, seed=5)
    params.h[:] = 0.0
    ctx = ctx_for(5)
    plain = sum(float(params.P[0] @ params.Q[j]) for j in ctx.history)
    assert predict_nais(ctx, params, cfg) == pytest.approx(plain * 5.0 ** -0.7, rel=1e-12)


def test_nais_vs_naive_both_modes():
    for mode in (AttentionMode.PROD, AttentionMode.CONCAT):
        cfg = ModelConfig(model_kind=ModelKind.NAIS, attention_mode=mode, d=5, d_prime=4, beta=0.6)
        params = random_params(cfg, 9, 1, seed=6)
        ctx = ctx_for(4)
        w = attention_for(ctx, params, cfg).item_weights
        expect = sum(w[k] * float(params.P[0] @ params.Q[j]) for k, j in enumerate(ctx.history))
        assert predict_nais(ctx, params, cfg) == pytest.approx(expect, rel=1e-12)


# -------------------------------------------------------------------- FLA


def test_fla_hand_example():
    # one history item, a=[0.5,0.5], p=[1,2], q=[3,4] -> 1*1.5 + 2*2 = 5.5
    p = np.array([1.0, 2.0])
    Q = np.array([[3.0, 4.0]])
    a = np.array([[0.5, 0.5]])
    assert fla_score(p, Q, a) == pytest.approx(5.5)


def test_fla_uniform_rows_reduce_to_nais_form():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m, d = int(rng.integers(1, 7)), 6
        p, Q = rng.normal(size=d), rng.normal(size=(m, d))
        w = rng.uniform(0.1, 2.0, size=m)
        a = w[:, None] * np.ones((m, d))
        expect = sum(w[j] * float(p @ Q[j]) for j in range(m))
        assert fla_score(p, Q, a) == pytest.approx(expect, abs=1e-9)


def test_fla_linear_in_weights():
    rng = np.random.default_rng(8)
    p, Q = rng.normal(size=5), rng.normal(size=(4, 5))
    a = rng.uniform(0, 1, size=(4, 5))
    assert fla_score(p, Q, 2.0 * a) == pytest.approx(2.0 * fla_score(p, Q, a), rel=1e-12)


def test_predict_fla_vs_naive_design2():
    cfg = ModelConfig(model_kind=ModelKind.FLA_NAIS, design=Design.DESIGN2, d=6, d_prime=4, beta=0.7)
    params = random_params(cfg, 9, 1, seed=9)
    ctx = ctx_for(5)
    A = design2_weights(params.P[0], params.Q[ctx.history], params, 0.7).feature_weights
    expect = sum(
        float(params.P[0] @ (A[k] * params.Q[j])) for k, j in enumerate(ctx.history)
    )
    assert predict_fla(ctx, params, cfg) == pytest.approx(expect, rel=1e-12)


# ------------------------------------------------------------- deep family


def test_deepicf_identity_layer_sums_pool():
    cfg = ModelConfig(model_kind=ModelKind.DEEPICF, d=3, d_prime=3, deep_layers=(3,))
    params = random_params(cfg, 6, 2, seed=10)
    params.P[...] = np.abs(params.P) + 0.1  # keep e_ui nonnegative through ReLU
    params.Q[...] = np.abs(params.Q) + 0.1
    params.deep_W[0][...] = np.eye(3)
    params.deep_b[0][:] = 0.0
    params.V[...] = 1.0
    params.b_user[:] = 0.0
    params.b_item[:] = 0.0
    ctx = ctx_for(4)
    w = attention_for(ctx, params, cfg).item_weights
    e = deepicf_pool(params.P[0], params.Q[ctx.history], w)
    assert np.all(e >= 0)
    assert deepicf_forward(ctx, params, cfg) == pytest.approx(float(e.sum()), rel=1e-12)


def test_deepicf_v_zero_gives_biases():
    cfg = ModelConfig(model_kind=ModelKind.DEEPICF, d=4, d_prime=4)
    params = random_params(cfg, 7, 3, seed=11)
    params.V[:] = 0.0
    ctx = ctx_for(3, user=2)
    expect = float(params.b_user[2] + params.b_item[0])
    assert deepicf_forward(ctx, params, cfg) == pytest.approx(expect, rel=1e-12)


def test_deepicf_vs_naive_two_layers():
    cfg = ModelConfig(model_kind=ModelKind.DEEPICF, d=5, d_prime=4, deep_layers=(5, 2))
    params = random_params(cfg, 8, 2, seed=12)
    ctx = ctx_for(4, user=1)
    w = attention_for(ctx, params, cfg).item_weights
    e = np.zeros(5)
    for k, j in enumerate(ctx.history):
        e += w[k] * (params.P[0] * params.Q[j])
    x = e
    for W, b in zip(params.deep_W, params.deep_b):
        x = np.maximum(W @ x + b, 0.0)
    expect = float(params.V @ x + params.b_user[1] + params.b_item[0])
    assert deepicf_forward(ctx, params, cfg) == pytest.approx(expect, rel=1e-12)


def test_fla_dicf_unit_weights_match_deepicf_pool():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m, d = int(rng.integers(1, 7)), 5
        p, Q = rng.normal(size=d), rng.normal(size=(m, d))
        unit = np.ones((m, d))
        np.testing.assert_allclose(
            fla_pool(p, Q, unit),
            deepicf_pool(p, Q, np.ones(m)),
            atol=1e-9,
        )


def test_fla_dicf_hand_example():
    p = np.array([1.0, 2.0])
    Q = np.array([[3.0, 4.0]])
    a = np.array([[0.5, 0.25]])
    np.testing.assert_allclose(fla_pool(p, Q, a), [1.5, 2.0], atol=1e-12)


def test_fla_dicf_vs_naive():
    cfg = ModelConfig(model_kind=ModelKind.FLA_DICF, design=Design.DESIGN2, d=4, d_prime=3, deep_layers=(4, 2))
    params = random_params(cfg, 8, 2, seed=14)
    ctx = ctx_for(3, user=1)
    A = design2_weights(params.P[0], params.Q[ctx.history], params, cfg.beta).feature_weights
    e = np.zeros(4)
    for k, j in enumerate(ctx.history):
        e += params.P[0] * (A[k] * params.Q[j])
    x = e
    for W, b in zip(params.deep_W, params.deep_b):
        x = np.maximum(W @ x + b, 0.0)
    expect = float(params.V @ x + params.b_user[1] + params.b_item[0])
    assert predict(ModelKind.FLA_DICF, ctx, params, cfg) == pytest.approx(expect, rel=1e-12)


# -------------------------------------------------------------- dispatcher


def test_dispatch_matches_direct_calls():
    ctx = ctx_for(4)
    cfg = ModelConfig(model_kind=ModelKind.FISM, d=4, alpha=0.3)
    params = random_params(cfg, 7, 1, seed=15)
    assert predict(ModelKind.FISM, ctx, params, cfg) == predict_fism(ctx, params, 0.3)

    views = {
        ModelKind.NAIS: predict_nais,
        ModelKind.FLA_NAIS: predict_fla,
        ModelKind.DEEPICF: deepicf_forward,
        ModelKind.FLA_DICF: fla_dicf_forward,
    }
    for seed, (kind, view) in enumerate(views.items(), start=16):
        cfg = ModelConfig(model_kind=kind, d=4, d_prime=3)
        params = random_params(cfg, 7, 1, seed=seed)
        assert predict(kind, ctx, params, cfg) == view(ctx, params, cfg), kind


def test_views_resolve_their_kind_from_another_config():
    ctx = ctx_for(4)
    cfg = ModelConfig(model_kind=ModelKind.FLA_NAIS, design=Design.DESIGN1, d=4, d_prime=3)
    params = random_params(cfg, 7, 1, seed=21)
    nais = predict(ModelKind.NAIS, ctx, params, cfg)
    assert predict_nais(ctx, params, cfg) == nais
    assert predict(ModelKind.NAIS, ctx, params, cfg.for_kind(ModelKind.NAIS)) == nais
    assert predict_fla(ctx, params, cfg) == predict(ModelKind.FLA_NAIS, ctx, params, cfg)


def test_empty_history_fallbacks():
    empty = PredictionContext(user=1, target=2, history=np.array([], dtype=np.int64))
    for kind in (ModelKind.NAIS, ModelKind.FLA_NAIS, ModelKind.FISM):
        cfg = ModelConfig(model_kind=kind, d=4, d_prime=4)
        params = random_params(cfg, 5, 3, seed=17)
        assert predict(kind, empty, params, cfg) == 0.0
    for kind in (ModelKind.DEEPICF, ModelKind.FLA_DICF):
        cfg = ModelConfig(model_kind=kind, d=4, d_prime=4)
        params = random_params(cfg, 5, 3, seed=18)
        expect = float(params.b_user[1] + params.b_item[2])
        assert predict(kind, empty, params, cfg) == pytest.approx(expect)


def test_forward_cache_exposes_score_and_pool():
    cfg = ModelConfig(model_kind=ModelKind.DEEPICF, d=4, d_prime=4)
    params = random_params(cfg, 7, 2, seed=19)
    ctx = ctx_for(3)
    cache = forward_cache(ctx, params, cfg)
    assert cache.score == pytest.approx(deepicf_forward(ctx, params, cfg), rel=1e-12)
    assert cache.e is not None
    assert not cache.empty


def test_attention_for_fism_rejected():
    cfg = ModelConfig(model_kind=ModelKind.FISM, d=4)
    params = random_params(cfg, 5, 1, seed=20)
    with pytest.raises(ValueError):
        attention_for(ctx_for(2), params, cfg)
