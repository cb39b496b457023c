"""Feature-level attentive item-based collaborative filtering.

Implicit-feedback recommenders that score a target item against a user's
interaction history: FISM, NAIS, feature-level attentive NAIS, DeepICF
and feature-level attentive DeepICF, trained with exact hand-derived
gradients and per-instance Adagrad.
"""

from .config import (
    AttentionMode,
    ConfigError,
    Design,
    ModelConfig,
    ModelKind,
    TrainConfig,
)
from .data import (
    InteractionDataset,
    SplitDataset,
    dataset_stats,
    k_core_filter,
    parse_interactions,
    split_per_user,
)
from .evaluation import (
    MetricsRecord,
    RankingResult,
    baseline_scores,
    evaluate,
    evaluate_model,
    hr_at_n,
    model_scorer,
    ndcg_at_n,
    rank_items,
)
from .gradients import backward, gradcheck
from .params import (
    ParameterSet,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
)
from .predictors import (
    PredictionContext,
    deepicf_forward,
    fla_dicf_forward,
    predict,
    predict_fism,
    predict_fla,
    predict_nais,
)
from .training import sample_negatives, train

__version__ = "0.1.0"

__all__ = [
    "AttentionMode",
    "ConfigError",
    "Design",
    "InteractionDataset",
    "MetricsRecord",
    "ModelConfig",
    "ModelKind",
    "ParameterSet",
    "PredictionContext",
    "RankingResult",
    "SplitDataset",
    "TrainConfig",
    "backward",
    "baseline_scores",
    "dataset_stats",
    "deepicf_forward",
    "evaluate",
    "evaluate_model",
    "fla_dicf_forward",
    "gradcheck",
    "hr_at_n",
    "init_parameters",
    "k_core_filter",
    "load_checkpoint",
    "model_scorer",
    "ndcg_at_n",
    "parse_interactions",
    "predict",
    "predict_fism",
    "predict_fla",
    "predict_nais",
    "rank_items",
    "sample_negatives",
    "save_checkpoint",
    "split_per_user",
    "train",
]
