"""Attention oracles: frozen closed forms, naive recomputation, invariants.

The naive oracles below recompute every quantity with plain Python loops
and math.exp so a vectorization bug in the library cannot hide itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flaicf.attention import (
    LOGIT_CLAMP,
    ROW_LOGIT_BOUND,
    AttentionOutput,
    NonFiniteError,
    _row_softmax,
    _smoothed_parts,
    design1_weights,
    design2_weights,
    normalize_features,
    smoothed_softmax,
)
from flaicf.config import AttentionMode, Design, ModelConfig, ModelKind
from flaicf.gradients import _smoothed_vjp
from flaicf.params import ParameterSet
from flaicf.predictors import PredictionContext, attention_for, forward_block
from tests.conftest import random_params


# ---------------------------------------------------------------- oracles


def naive_feature_logits(p, q, W, b, H):
    d_prime, d = W.shape
    z = [sum(W[r][k] * p[k] * q[k] for k in range(d)) + b[r] for r in range(d_prime)]
    r = [max(0.0, v) for v in z]
    return [sum(H[row][k] * r[row] for row in range(d_prime)) for k in range(d)]


def naive_item_logit(p, q, W, b, h):
    d_prime, d = W.shape
    z = [sum(W[r][k] * p[k] * q[k] for k in range(d)) + b[r] for r in range(d_prime)]
    return sum(h[r] * max(0.0, z[r]) for r in range(d_prime))


def naive_softmax(logits):
    m = max(logits)
    e = [math.exp(v - m) for v in logits]
    s = sum(e)
    return [x / s for x in e]


def naive_smoothed(logits, beta):
    e = [math.exp(v) for v in logits]
    s = sum(e) ** beta
    return [x / s for x in e]


def fla_params(d=8, d_prime=6, seed=0, design=Design.DESIGN1):
    cfg = ModelConfig(model_kind=ModelKind.FLA_NAIS, design=design, d=d, d_prime=d_prime)
    return cfg, random_params(cfg, item_count=10, user_count=2, seed=seed)


def one_pair(kind, p, q, **arrays):
    """forward_block of kind (Design 2, beta 1) for target p against the one-item history q."""
    cfg = ModelConfig(model_kind=kind, d=q.size, d_prime=arrays["W"].shape[0], beta=1.0)
    return forward_block(cfg, ParameterSet.from_arrays(0, **arrays), 0, 0, p, q[None])


def feature_logits(p, q, W, b, H):
    return one_pair(ModelKind.FLA_NAIS, p, q, W=W, b=b, H=H).a_hat[0]


def item_logit(p, q, W, b, h):
    return float(one_pair(ModelKind.NAIS, p, q, W=W, b=b, h=h).item_logits[0, 0])


def nais_attention(params, beta, m, mode=AttentionMode.PROD):
    """attention_for of a NAIS model on target 0 against the history items 1..m."""
    cfg = ModelConfig(model_kind=ModelKind.NAIS, attention_mode=mode, d=params.P.shape[1],
                      d_prime=params.W.shape[0], beta=beta)
    ctx = PredictionContext(user=0, target=0, history=np.arange(1, m + 1))
    return params.P[0], params.Q[1:m + 1], attention_for(ctx, params, cfg)


# ----------------------------------------------------------- feature path


def test_feature_logits_identity_weights():
    W = np.eye(2)
    b = np.zeros(2)
    H = np.eye(2)
    out = feature_logits(np.array([1.0, -1.0]), np.array([1.0, 1.0]), W, b, H)
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)


def test_feature_logits_dead_relu():
    W = np.eye(3)
    b = np.full(3, -100.0)
    H = np.random.default_rng(0).normal(size=(3, 3))
    out = feature_logits(np.ones(3), np.ones(3), W, b, H)
    np.testing.assert_array_equal(out, np.zeros(3))


def test_feature_logits_vs_naive():
    rng = np.random.default_rng(12)
    for _ in range(50):
        d, dp = 8, 6
        p, q = rng.normal(size=d), rng.normal(size=d)
        W, b, H = rng.normal(size=(dp, d)), rng.normal(size=dp), rng.normal(size=(dp, d))
        np.testing.assert_allclose(
            feature_logits(p, q, W, b, H), naive_feature_logits(p, q, W, b, H), atol=1e-12
        )


def test_item_logit_identity_weights():
    W, b, h = np.eye(2), np.zeros(2), np.ones(2)
    assert item_logit(np.array([1.0, -1.0]), np.array([1.0, 1.0]), W, b, h) == pytest.approx(1.0)


def test_item_logit_zero_h():
    rng = np.random.default_rng(3)
    W, b = rng.normal(size=(4, 5)), rng.normal(size=4)
    assert item_logit(rng.normal(size=5), rng.normal(size=5), W, b, np.zeros(4)) == 0.0


def test_item_logit_vs_naive():
    rng = np.random.default_rng(13)
    for _ in range(50):
        p, q = rng.normal(size=5), rng.normal(size=5)
        W, b, h = rng.normal(size=(4, 5)), rng.normal(size=4), rng.normal(size=4)
        assert item_logit(p, q, W, b, h) == pytest.approx(naive_item_logit(p, q, W, b, h), abs=1e-12)


# --------------------------------------------------------------- softmaxes


def test_normalize_features_symmetry():
    np.testing.assert_allclose(normalize_features(np.zeros(2)), [0.5, 0.5], atol=1e-15)


def test_normalize_features_exponent_ratio():
    out = normalize_features(np.array([math.log(2.0), 0.0]))
    np.testing.assert_allclose(out, [2 / 3, 1 / 3], atol=1e-12)


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=16))
def test_normalize_features_matches_naive(logits):
    out = normalize_features(np.array(logits))
    np.testing.assert_allclose(out, naive_softmax(logits), atol=1e-12)
    assert abs(out.sum() - 1.0) < 1e-9
    assert np.all(out > 0)


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=16), st.floats(-500, 500))
def test_normalize_features_shift_invariant(logits, shift):
    base = normalize_features(np.array(logits))
    shifted = normalize_features(np.array(logits) + shift)
    np.testing.assert_allclose(base, shifted, atol=1e-9)


def test_normalize_features_rejects_nonfinite():
    with pytest.raises(ValueError):
        normalize_features(np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        normalize_features(np.array([]))


def test_smoothed_softmax_standard_when_beta_1():
    np.testing.assert_allclose(smoothed_softmax(np.zeros(2), 1.0), [0.5, 0.5], atol=1e-15)


def test_smoothed_softmax_closed_form_beta_half():
    out = smoothed_softmax(np.zeros(2), 0.5)
    np.testing.assert_allclose(out, [1 / math.sqrt(2)] * 2, atol=1e-12)


def test_smoothed_softmax_uniform_logits_closed_form():
    # m equal logits, any beta: each weight is exp(v) / (m exp(v))^beta
    for m in (1, 3, 7):
        for beta in (0.3, 0.7, 1.0):
            out = smoothed_softmax(np.full(m, 0.4), beta)
            expect = math.exp(0.4) / (m * math.exp(0.4)) ** beta
            np.testing.assert_allclose(out, np.full(m, expect), atol=1e-12)


@given(
    st.lists(st.floats(-25, 25), min_size=1, max_size=50),
    st.floats(0.05, 1.0),
)
def test_smoothed_softmax_vs_naive(logits, beta):
    out = smoothed_softmax(np.array(logits), beta)
    np.testing.assert_allclose(out, naive_smoothed(logits, beta), rtol=1e-10, atol=1e-12)
    assert np.all(out > 0)


def test_smoothed_softmax_preserves_order():
    rng = np.random.default_rng(77)
    for _ in range(200):
        logits = rng.normal(0, 3, size=50)
        w = smoothed_softmax(logits, 0.7)
        assert np.argmax(w) == np.argmax(logits)
        order = np.argsort(logits)
        assert np.all(np.diff(w[order]) >= 0)


@pytest.mark.parametrize("k", [1, 8], ids=["item", "feature"])
@pytest.mark.parametrize("beta", [0.5, 0.7, 1.0])
def test_smoothed_parts_of_a_block_equal_each_candidates_bitwise(k, beta):
    # a candidate's weights must not depend on how many candidates share
    # its block; the logits reach past the clamp, and no matmul runs first
    rng = np.random.default_rng(31)
    logits = rng.normal(0.0, 12.0, size=(37, 23, k))
    block = _smoothed_parts(logits, beta)
    assert block.weights.shape == (37, 23, k) and block.denom.shape == (37, k)
    for c in range(37):
        one = _smoothed_parts(logits[c], beta)
        assert np.array_equal(block.weights[c], one.weights), c
        assert np.array_equal(block.exp[c], one.exp) and np.array_equal(block.denom[c], one.denom), c


def test_smoothed_softmax_rejects_bad_input():
    with pytest.raises(ValueError):
        smoothed_softmax(np.array([]), 0.5)
    with pytest.raises(ValueError):
        smoothed_softmax(np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        smoothed_softmax(np.zeros(3), 1.5)
    with pytest.raises(ValueError):
        smoothed_softmax(np.array([0.0, np.inf]), 0.5)


# ----------------------------------------------------------------- designs


def test_design1_singleton_history_row_is_feature_softmax():
    cfg, params = fla_params(seed=4)
    rng = np.random.default_rng(4)
    p, q = rng.normal(size=cfg.d), rng.normal(size=(1, cfg.d))
    out = design1_weights(p, q, params, beta=1.0)
    expect = normalize_features(
        np.array(naive_feature_logits(p, q[0], params.W, params.b, params.H))
    )
    assert out.item_weights[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(out.feature_weights[0], expect, atol=1e-12)


def test_design1_row_sums_equal_item_weights():
    rng = np.random.default_rng(21)
    for trial in range(100):
        cfg, params = fla_params(seed=trial)
        m = int(rng.integers(1, 8))
        p, Q = rng.normal(size=cfg.d), rng.normal(size=(m, cfg.d))
        out = design1_weights(p, Q, params, beta=0.7)
        np.testing.assert_allclose(out.feature_weights.sum(axis=1), out.item_weights, atol=1e-9)


def test_design1_vs_composed_oracle():
    cfg, params = fla_params(seed=8)
    rng = np.random.default_rng(8)
    m = 5
    p, Q = rng.normal(size=cfg.d), rng.normal(size=(m, cfg.d))
    out = design1_weights(p, Q, params, beta=0.7)
    v = [naive_item_logit(p, Q[j], params.W, params.b, params.h) for j in range(m)]
    b_item = naive_smoothed(v, 0.7)
    for j in range(m):
        s = naive_softmax(naive_feature_logits(p, Q[j], params.W, params.b, params.H))
        np.testing.assert_allclose(out.feature_weights[j], np.array(s) * b_item[j], atol=1e-12)
    np.testing.assert_allclose(out.item_weights, b_item, atol=1e-12)


def test_design2_identical_items_symmetric_columns():
    cfg, params = fla_params(seed=9, design=Design.DESIGN2)
    rng = np.random.default_rng(9)
    p = rng.normal(size=cfg.d)
    q = rng.normal(size=cfg.d)
    Q = np.stack([q, q])
    out = design2_weights(p, Q, params, beta=1.0)
    np.testing.assert_allclose(out.feature_weights, np.full((2, cfg.d), 0.5), atol=1e-12)


def test_design2_beta1_columns_sum_to_one():
    rng = np.random.default_rng(22)
    for trial in range(100):
        cfg, params = fla_params(seed=trial, design=Design.DESIGN2)
        m = int(rng.integers(1, 9))
        p, Q = rng.normal(size=cfg.d), rng.normal(size=(m, cfg.d))
        out = design2_weights(p, Q, params, beta=1.0)
        np.testing.assert_allclose(out.feature_weights.sum(axis=0), np.ones(cfg.d), atol=1e-9)


def test_design2_vs_per_column_oracle():
    cfg, params = fla_params(seed=10, design=Design.DESIGN2)
    rng = np.random.default_rng(10)
    m = 6
    p, Q = rng.normal(size=cfg.d), rng.normal(size=(m, cfg.d))
    out = design2_weights(p, Q, params, beta=0.7)
    a_hat = np.array([naive_feature_logits(p, Q[j], params.W, params.b, params.H) for j in range(m)])
    for k in range(cfg.d):
        col = naive_smoothed(a_hat[:, k].tolist(), 0.7)
        np.testing.assert_allclose(out.feature_weights[:, k], col, atol=1e-12)


# -------------------------------------------------------------- item level


def test_nais_prod_vs_naive():
    cfg = ModelConfig(model_kind=ModelKind.NAIS, d=6, d_prime=4)
    params = random_params(cfg, 10, 2, seed=11)
    m = 5
    p, Q, out = nais_attention(params, 0.6, m)
    v = [naive_item_logit(p, Q[j], params.W, params.b, params.h) for j in range(m)]
    np.testing.assert_allclose(out.item_weights, naive_smoothed(v, 0.6), atol=1e-12)
    assert out.feature_weights is None


def test_nais_concat_vs_naive():
    cfg = ModelConfig(model_kind=ModelKind.NAIS, attention_mode=AttentionMode.CONCAT, d=4, d_prime=3)
    params = random_params(cfg, 10, 2, seed=12)
    m = 4
    p, Q, out = nais_attention(params, 0.8, m, AttentionMode.CONCAT)
    v = []
    for j in range(m):
        x = np.concatenate([p, Q[j]])
        z = params.W @ x + params.b
        v.append(float(params.h @ np.maximum(z, 0.0)))
    np.testing.assert_allclose(out.item_weights, naive_smoothed(v, 0.8), atol=1e-12)


def test_nais_uniform_when_h_zero():
    # all logits 0: every weight is m^-beta
    cfg = ModelConfig(model_kind=ModelKind.NAIS, d=4, d_prime=3)
    params = random_params(cfg, 10, 2, seed=13)
    params.h[:] = 0.0
    _, _, out = nais_attention(params, 0.7, 5)
    np.testing.assert_allclose(out.item_weights, np.full(5, 5.0 ** -0.7), atol=1e-12)


def test_empty_history_rejected_everywhere():
    cfg, params = fla_params(seed=1)
    empty = np.zeros((0, cfg.d))
    p = np.zeros(cfg.d)
    for fn in (design1_weights, design2_weights):
        with pytest.raises(ValueError):
            fn(p, empty, params, beta=0.7)
    nais = ModelConfig(model_kind=ModelKind.NAIS, d=cfg.d, d_prime=cfg.d_prime)
    with pytest.raises(ValueError):
        nais_attention(random_params(nais, 10, 2, seed=1), 0.7, 0)


def test_weights_nonnegative_and_shaped():
    rng = np.random.default_rng(30)
    for trial in range(20):
        cfg, params = fla_params(seed=trial)
        m = int(rng.integers(1, 7))
        p, Q = rng.normal(size=cfg.d), rng.normal(size=(m, cfg.d))
        for out in (
            design1_weights(p, Q, params, beta=0.7),
            design2_weights(p, Q, params, beta=0.7),
        ):
            assert out.feature_weights.shape == (m, cfg.d)
            if out.item_weights is not None:
                assert out.item_weights.shape == out.item_logits.shape == (m,)
            assert np.all(out.feature_weights >= 0)
            assert np.all(np.isfinite(out.feature_weights))


# ------------------------------------------------------------ bound guards
#
# The softmaxes skip their per-element passes when one bound check on the
# logits passes. These copies of the unguarded functions are the oracles:
# inside the bounds the guarded results must equal them (the smoothed
# softmax bitwise, Design 1's block weights to rounding), and outside
# them the fallback must give their results bitwise, or raise as they do.


def reference_smoothed_parts(logits, beta, weights=True):
    """_smoothed_parts without its bound check: (weights, exp, denom),
    weights and denom None without weights."""
    if not np.isfinite(logits).all():
        raise NonFiniteError("logits must be finite")
    e = logits.clip(-LOGIT_CLAMP, LOGIT_CLAMP)
    np.exp(e, out=e)
    if not weights:
        return None, e, None
    denom = e.sum(axis=-2)
    return np.divide(e, denom[..., None, :] ** beta), e, denom


def reference_vjp(logits, beta, dw):
    """_smoothed_vjp of the reference parts, masked where the clamp is active."""
    w, e, denom = reference_smoothed_parts(logits, beta)
    wdw = w * dw
    pull = beta * (e / denom) * wdw.sum(axis=0)
    return (wdw - pull) * (np.abs(logits) < LOGIT_CLAMP)


def reference_block_row_weights(a_hat, item_weights):
    """A block's Design 1 weights before the guard: w * the shifted row softmax."""
    shifted = np.subtract(a_hat, a_hat.max(axis=-1, keepdims=True))
    np.exp(shifted, out=shifted)
    row_s = np.divide(shifted, shifted.sum(axis=-1, keepdims=True), out=shifted)
    return np.multiply(item_weights, row_s)


def assert_smoothed_parts_match(logits, beta, clamped):
    for weights in (True, False):
        parts = _smoothed_parts(logits, beta, weights=weights)
        w, e, denom = reference_smoothed_parts(logits, beta, weights)
        assert np.array_equal(parts.exp, e)
        assert denom is None and parts.denom is None or np.array_equal(parts.denom, denom)
        assert w is None and parts.weights is None or np.array_equal(parts.weights, w)
    assert bool(parts.grad_mask.all()) is not clamped


@pytest.mark.parametrize("k", [1, 8], ids=["item", "feature"])
@pytest.mark.parametrize("beta", [0.5, 0.7, 1.0])
def test_smoothed_parts_inside_the_clamp_equal_the_unguarded_ones_bitwise(k, beta):
    rng = np.random.default_rng(60)
    for scale in (0.3, 3.0, 9.0):
        logits = np.clip(rng.normal(0.0, scale, size=(13, 11, k)), -29.99, 29.99)
        assert_smoothed_parts_match(logits, beta, clamped=False)
        one = logits[0]
        dw = rng.normal(size=one.shape)
        parts = _smoothed_parts(one, beta)
        assert np.array_equal(_smoothed_vjp(parts, dw, beta), reference_vjp(one, beta, dw))


@pytest.mark.parametrize("edge", [LOGIT_CLAMP, -LOGIT_CLAMP, 45.0, -45.0, 1e300],
                         ids=["at+30", "at-30", "beyond+30", "beyond-30", "huge"])
@pytest.mark.parametrize("k", [1, 8], ids=["item", "feature"])
def test_smoothed_parts_at_or_past_the_clamp_fall_back_bitwise(edge, k):
    rng = np.random.default_rng(61)
    logits = rng.normal(0.0, 3.0, size=(7, 9, k))
    logits[3, 4, k - 1] = edge
    assert_smoothed_parts_match(logits, 0.7, clamped=True)
    one = logits[3]
    dw = rng.normal(size=one.shape)
    parts = _smoothed_parts(one, 0.7)
    vjp = _smoothed_vjp(parts, dw, 0.7)
    assert vjp[4, k - 1] == 0.0  # the clamped logit passes no gradient
    assert np.array_equal(vjp, reference_vjp(one, 0.7, dw))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_smoothed_parts_of_a_nonfinite_logit_raise_as_unguarded(bad):
    logits = np.zeros((5, 6, 2))
    logits[2, 3, 1] = bad
    with pytest.raises(NonFiniteError):
        reference_smoothed_parts(logits, 0.7)
    with pytest.raises(NonFiniteError):
        _smoothed_parts(logits, 0.7)


def block_row_inputs(seed, scale, c=9, m=14, d=16):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, size=(c, m, d)), rng.uniform(0.01, 3.0, size=(c, m, 1))


@pytest.mark.parametrize("scale", [0.3, 3.0, 10.0])
def test_block_row_weights_inside_the_bound_match_the_shifted_ones(scale):
    a_hat, w = block_row_inputs(62, scale)
    assert np.abs(a_hat).max() < ROW_LOGIT_BOUND
    A = _row_softmax(a_hat, np.empty_like(a_hat), w)
    ref = reference_block_row_weights(a_hat, w)
    # each row sums to its item weight w; the shift moves only the rounding
    assert np.all(np.abs(A - ref) <= 1e-15 * w)
    np.testing.assert_allclose(A.sum(axis=-1, keepdims=True), w, rtol=1e-14)


@pytest.mark.parametrize("edge", [ROW_LOGIT_BOUND, -ROW_LOGIT_BOUND, 700.0, -800.0, np.nan,
                                  np.inf, -np.inf],
                         ids=["at+bound", "at-bound", "+700", "-800", "nan", "inf", "-inf"])
def test_block_row_weights_past_the_bound_fall_back_bitwise(edge):
    a_hat, w = block_row_inputs(63, 3.0)
    # the guarded weights of these logits differ from the shifted ones, so
    # bitwise equality below shows that the row max was taken
    inside = _row_softmax(a_hat, np.empty_like(a_hat), w)
    assert not np.array_equal(inside, reference_block_row_weights(a_hat, w))
    a_hat[4, 5, 6] = edge
    with np.errstate(invalid="ignore"):
        A = _row_softmax(a_hat, np.empty_like(a_hat), w)
        ref = reference_block_row_weights(a_hat, w)
    np.testing.assert_array_equal(A, ref)


def test_one_target_row_softmax_keeps_the_row_max():
    a_hat, _ = block_row_inputs(64, 3.0, c=1)
    a_hat = a_hat[0]
    shifted = np.exp(a_hat - a_hat.max(axis=-1, keepdims=True))
    assert np.array_equal(_row_softmax(a_hat), shifted / shifted.sum(axis=-1, keepdims=True))
    assert np.array_equal(normalize_features(a_hat[0]), _row_softmax(a_hat)[0])
