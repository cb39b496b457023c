"""Configuration types shared by the models and the training loop."""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum


class ConfigError(ValueError):
    """A configuration value violates its documented range."""


class ModelKind(str, Enum):
    FISM = "FISM"
    NAIS = "NAIS"
    FLA_NAIS = "FLA_NAIS"
    DEEPICF = "DEEPICF"
    FLA_DICF = "FLA_DICF"

    # str() and format() must both yield the bare value on every Python
    # version; checkpoint headers and metric lines depend on it
    __str__ = str.__str__
    __format__ = str.__format__


class Design(str, Enum):
    DESIGN1 = "DESIGN1"
    DESIGN2 = "DESIGN2"

    __str__ = str.__str__
    __format__ = str.__format__


class AttentionMode(str, Enum):
    PROD = "PROD"
    CONCAT = "CONCAT"

    __str__ = str.__str__
    __format__ = str.__format__


DEEP_KINDS = frozenset({ModelKind.DEEPICF, ModelKind.FLA_DICF})
FLA_KINDS = frozenset({ModelKind.FLA_NAIS, ModelKind.FLA_DICF})


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters that fix a model's architecture.

    d is the embedding size, d_prime the attention hidden-layer size
    (defaults to d), beta the softmax smoothing exponent, alpha the
    history-length normalization exponent (FISM only), design the way
    item-level and feature-level attention are combined (FLA models),
    attention_mode the NAIS interaction encoding, and deep_layers the
    hidden sizes of the deep tower (DeepICF family; None for the kinds
    without one).

    Every attentive kind is one chain: the shared hidden layer, then item
    weights from h or feature weights from H, then the head (predictors).
    Two plain attributes, derived here and not settable, say which
    weights a model has: item_attention (the item softmax over h: NAIS,
    DeepICF and Design 1) and feature_attention (the feature softmax
    over H: FLA_NAIS and FLA_DICF). FISM has neither.
    """

    model_kind: ModelKind = ModelKind.FLA_NAIS
    design: Design = Design.DESIGN2
    attention_mode: AttentionMode = AttentionMode.PROD
    d: int = 16
    d_prime: int | None = None
    beta: float = 0.7
    alpha: float = 0.5
    deep_layers: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        enums = (("model_kind", ModelKind), ("design", Design), ("attention_mode", AttentionMode))
        for name, enum in enums:
            try:
                object.__setattr__(self, name, enum(getattr(self, name)))
            except ValueError as exc:
                raise ConfigError(f"{exc}; expected one of {', '.join(enum)}") from None
        if self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}")
        if self.d_prime is None:
            object.__setattr__(self, "d_prime", self.d)
        if self.d_prime < 1:
            raise ConfigError(f"d_prime must be >= 1, got {self.d_prime}")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError(f"beta must lie in (0, 1], got {self.beta}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        kind = self.model_kind
        if self.attention_mode is AttentionMode.CONCAT and kind is not ModelKind.NAIS:
            raise ConfigError("CONCAT attention is defined for NAIS only")
        feature = kind in FLA_KINDS
        object.__setattr__(self, "feature_attention", feature)
        object.__setattr__(self, "item_attention", kind is not ModelKind.FISM and not (
            feature and self.design is Design.DESIGN2))
        if kind in DEEP_KINDS:
            layers = self.deep_layers
            if layers is None:
                layers = (self.d, max(self.d // 2, 1))
            layers = tuple(int(x) for x in layers)
            if not layers or any(x < 1 for x in layers):
                raise ConfigError(f"deep_layers must be nonempty positive ints, got {layers}")
            object.__setattr__(self, "deep_layers", layers)
        else:
            object.__setattr__(self, "deep_layers", None)

    def for_kind(self, kind: ModelKind | str) -> ModelConfig:
        """This config with its model kind set to kind (itself when it already is)."""
        kind = ModelKind(kind)
        return self if kind is self.model_kind else replace(self, model_kind=kind)


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters for the Adagrad training loop."""

    learning_rate: float = 0.01
    l2: float = 1e-6
    neg_ratio: int = 4
    epochs: int = 100
    seed: int = 0
    early_stop_patience: int = 10
    adagrad_epsilon: float = 1e-8
    eval_n: int = 10
    eval_workers: int = 1

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.l2 < 0:
            raise ConfigError(f"l2 must be nonnegative, got {self.l2}")
        if self.neg_ratio < 1:
            raise ConfigError(f"neg_ratio must be >= 1, got {self.neg_ratio}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.early_stop_patience < 0:
            raise ConfigError(f"early_stop_patience must be >= 0, got {self.early_stop_patience}")
        if self.adagrad_epsilon <= 0:
            raise ConfigError(f"adagrad_epsilon must be positive, got {self.adagrad_epsilon}")
        if self.eval_n < 1:
            raise ConfigError(f"eval_n must be >= 1, got {self.eval_n}")
        if self.eval_workers < 1:
            raise ConfigError(f"eval_workers must be >= 1, got {self.eval_workers}")
