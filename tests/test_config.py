"""Configuration validation and derived defaults."""

import pytest

from flaicf.config import (
    AttentionMode,
    ConfigError,
    Design,
    ModelConfig,
    ModelKind,
    TrainConfig,
)


def test_defaults():
    cfg = ModelConfig()
    assert cfg.model_kind is ModelKind.FLA_NAIS
    assert cfg.design is Design.DESIGN2
    assert cfg.d == 16
    assert cfg.d_prime == 16  # defaults to d
    assert cfg.beta == 0.7


def test_d_prime_defaults_to_d():
    assert ModelConfig(d=24).d_prime == 24
    assert ModelConfig(d=24, d_prime=8).d_prime == 8


def test_deep_layers_default_halves():
    cfg = ModelConfig(model_kind=ModelKind.DEEPICF, d=16)
    assert cfg.deep_layers == (16, 8)
    # non-deep kinds carry no tower
    assert ModelConfig(model_kind=ModelKind.NAIS, d=16).deep_layers is None


def test_deep_layers_floor_at_one():
    cfg = ModelConfig(model_kind=ModelKind.FLA_DICF, d=1)
    assert cfg.deep_layers == (1, 1)


@pytest.mark.parametrize("field,value", [
    ("d", 0),
    ("d_prime", 0),
    ("beta", 0.0),
    ("beta", 1.5),
    ("alpha", -0.1),
    ("alpha", 1.1),
])
def test_rejects_out_of_range(field, value):
    with pytest.raises(ConfigError):
        ModelConfig(**{field: value})


def test_beta_boundaries():
    assert ModelConfig(beta=1.0).beta == 1.0
    assert ModelConfig(beta=1e-6).beta == 1e-6
    assert ModelConfig(alpha=0.0).alpha == 0.0
    assert ModelConfig(alpha=1.0).alpha == 1.0


def test_concat_only_for_nais():
    ModelConfig(model_kind=ModelKind.NAIS, attention_mode=AttentionMode.CONCAT)
    for kind in (ModelKind.FLA_NAIS, ModelKind.DEEPICF, ModelKind.FLA_DICF):
        with pytest.raises(ConfigError):
            ModelConfig(model_kind=kind, attention_mode=AttentionMode.CONCAT)


def test_frozen():
    cfg = ModelConfig()
    with pytest.raises(Exception):
        cfg.d = 32


@pytest.mark.parametrize("kind,design,item,feature", [
    (ModelKind.FISM, Design.DESIGN1, False, False),
    (ModelKind.NAIS, Design.DESIGN1, True, False),
    (ModelKind.DEEPICF, Design.DESIGN2, True, False),
    (ModelKind.FLA_NAIS, Design.DESIGN1, True, True),
    (ModelKind.FLA_NAIS, Design.DESIGN2, False, True),
    (ModelKind.FLA_DICF, Design.DESIGN1, True, True),
    (ModelKind.FLA_DICF, Design.DESIGN2, False, True),
])
def test_attention_structure_is_derived_once(kind, design, item, feature):
    cfg = ModelConfig(model_kind=kind, design=design)
    assert (cfg.item_attention, cfg.feature_attention) == (item, feature)
    with pytest.raises(Exception):
        cfg.item_attention = not item
    # derived, not fields: for_kind (dataclasses.replace) derives them again
    nais = cfg.for_kind(ModelKind.NAIS)
    assert (nais.item_attention, nais.feature_attention) == (True, False)
    assert nais.design is design and nais.d == cfg.d
    assert cfg.for_kind(kind) is cfg


@pytest.mark.parametrize("field,value", [
    ("learning_rate", 0.0),
    ("l2", -1e-6),
    ("neg_ratio", 0),
    ("epochs", 0),
    ("early_stop_patience", -1),
    ("eval_n", 0),
])
def test_train_config_rejects(field, value):
    with pytest.raises(ConfigError):
        TrainConfig(**{field: value})


def test_train_config_defaults():
    tc = TrainConfig()
    assert tc.neg_ratio == 4
    assert tc.early_stop_patience == 10
    assert tc.eval_n == 10
