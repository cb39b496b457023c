"""Parameter initialization: shapes, determinism, distribution, pretraining."""

import numpy as np
import pytest

from flaicf.config import AttentionMode, Design, ModelConfig, ModelKind
from flaicf.params import (
    INIT_STD,
    array_shapes,
    init_parameters,
    params_equal,
)


def test_shapes_fla_nais():
    cfg = ModelConfig(model_kind=ModelKind.FLA_NAIS, d=6, d_prime=4)
    shapes = array_shapes(cfg, item_count=9, user_count=3)
    assert shapes["P"] == (9, 6)
    assert shapes["Q"] == (9, 6)
    assert shapes["W"] == (4, 6)
    assert shapes["b"] == (4,)
    assert shapes["H"] == (4, 6)
    assert "h" not in shapes  # Design 2 has no item-level vector
    assert "V" not in shapes


def test_shapes_design1_adds_item_vector():
    cfg = ModelConfig(model_kind=ModelKind.FLA_NAIS, design=Design.DESIGN1, d=6, d_prime=4)
    shapes = array_shapes(cfg, 9, 3)
    assert shapes["h"] == (4,)
    assert shapes["H"] == (4, 6)


def test_shapes_nais_concat_doubles_input():
    cfg = ModelConfig(model_kind=ModelKind.NAIS, attention_mode=AttentionMode.CONCAT, d=6, d_prime=4)
    shapes = array_shapes(cfg, 9, 3)
    assert shapes["W"] == (4, 12)
    assert shapes["h"] == (4,)
    assert "H" not in shapes


def test_shapes_deep_tower():
    cfg = ModelConfig(model_kind=ModelKind.DEEPICF, d=8, d_prime=8, deep_layers=(8, 4))
    shapes = array_shapes(cfg, 9, 3)
    assert shapes["deep_W.0"] == (8, 8)
    assert shapes["deep_W.1"] == (4, 8)
    assert shapes["deep_b.0"] == (8,)
    assert shapes["deep_b.1"] == (4,)
    assert shapes["V"] == (4,)
    assert shapes["b_user"] == (3,)
    assert shapes["b_item"] == (9,)


def test_fism_has_no_attention_arrays():
    shapes = array_shapes(ModelConfig(model_kind=ModelKind.FISM, d=6), 9, 3)
    assert set(shapes) == {"P", "Q"}


def test_init_deterministic():
    cfg = ModelConfig(model_kind=ModelKind.FLA_DICF, d=6, d_prime=5)
    a = init_parameters(cfg, 20, 7, seed=3)
    b = init_parameters(cfg, 20, 7, seed=3)
    assert params_equal(a, b)
    c = init_parameters(cfg, 20, 7, seed=4)
    assert not params_equal(a, c)


def test_init_gaussian_stats():
    # pooled over >= 1e4 entries: mean within 1e-3, std within 10%
    cfg = ModelConfig(model_kind=ModelKind.FLA_NAIS, d=32, d_prime=32)
    params = init_parameters(cfg, 400, 10, seed=0)
    pooled = np.concatenate([params.P.ravel(), params.Q.ravel(), params.W.ravel(), params.H.ravel()])
    assert pooled.size >= 10_000
    assert abs(pooled.mean()) < 1e-3
    assert abs(pooled.std() - INIT_STD) < 0.1 * INIT_STD


def test_biases_start_at_zero():
    cfg = ModelConfig(model_kind=ModelKind.DEEPICF, d=6, d_prime=6)
    params = init_parameters(cfg, 9, 3, seed=1)
    assert np.all(params.b == 0)
    assert np.all(params.b_user == 0)
    assert np.all(params.b_item == 0)
    for layer_b in params.deep_b:
        assert np.all(layer_b == 0)


def test_pretrained_embeddings_copied():
    cfg = ModelConfig(model_kind=ModelKind.FLA_NAIS, d=4, d_prime=4)
    rng = np.random.default_rng(9)
    P = rng.normal(size=(11, 4))
    Q = rng.normal(size=(11, 4))
    params = init_parameters(cfg, 11, 3, seed=0, pretrained=(P, Q))
    np.testing.assert_array_equal(params.P, P)
    np.testing.assert_array_equal(params.Q, Q)
    P[0, 0] = 99.0  # caller's array must not alias
    assert params.P[0, 0] != 99.0


def test_pretrained_leaves_other_arrays_on_same_stream():
    cfg = ModelConfig(model_kind=ModelKind.FLA_NAIS, d=4, d_prime=4)
    plain = init_parameters(cfg, 11, 3, seed=5)
    pre = init_parameters(cfg, 11, 3, seed=5,
                          pretrained=(np.ones((11, 4)), np.ones((11, 4))))
    np.testing.assert_array_equal(plain.W, pre.W)
    np.testing.assert_array_equal(plain.H, pre.H)


def test_pretrained_shape_mismatch_rejected():
    cfg = ModelConfig(model_kind=ModelKind.FLA_NAIS, d=4, d_prime=4)
    with pytest.raises(ValueError):
        init_parameters(cfg, 11, 3, seed=0,
                        pretrained=(np.ones((11, 8)), np.ones((11, 8))))


def test_sum_squares_and_finite():
    cfg = ModelConfig(model_kind=ModelKind.NAIS, d=4, d_prime=4)
    params = init_parameters(cfg, 6, 2, seed=0)
    manual = sum(float(np.sum(a * a)) for _, a in params.arrays())
    assert params.sum_squares() == pytest.approx(manual, rel=1e-12)
    assert params.all_finite()
    params.W[0, 0] = np.nan
    assert not params.all_finite()


@pytest.mark.parametrize("name", ["P", "V", "deep_W"])
def test_rebinding_an_array_raises(name):
    # every array is a view into the set's one buffer; a rebound array
    # would leave the buffer, the optimizer and checkpoints behind
    cfg = ModelConfig(model_kind=ModelKind.DEEPICF, d=4, deep_layers=(3,))
    params = init_parameters(cfg, 5, 2, seed=0)
    with pytest.raises(AttributeError):
        setattr(params, name, getattr(params, name))
    assert isinstance(params.deep_W, tuple) and isinstance(params.deep_b, tuple)
