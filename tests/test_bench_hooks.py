"""The benchmark's span tracer still finds every name it wraps.

bench/tracing.py replaces module attributes of the program (for example
training.forward_cache and predictors.hidden_prod) with timed wrappers.
A refactor that renames one of them, or stops calling through it, would
leave a traced benchmark run without that layer's figures; this test
makes that a tier-1 failure. It trains, which also validates, and then
ranks the test split serially, as the benchmark's ranking phase does.
"""

import importlib.util
from pathlib import Path

from flaicf import evaluation, training
from flaicf.config import Design, ModelConfig, ModelKind, TrainConfig
from flaicf.data import split_per_user
from tests.conftest import random_dataset

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
SPANS = (
    "predictors.forward_cache",
    "gradients.backward",
    "training.adagrad_step",
    "attention.hidden",
    "attention.item_softmax",
    "attention.row_softmax",
    "attention.col_softmax",
    "evaluation.score_chunk",
)
# the spans bench/run.py reads from its ranking phase
RANK_SPANS = ("evaluation.score_user", "evaluation.score_chunk", "evaluation.rank_items")


def test_traced_training_records_every_layer_span():
    spec = importlib.util.spec_from_file_location("flaicf_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    split = split_per_user(random_dataset(4, n_users=8, n_items=12, min_items=5), seed=2)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        for design in (Design.DESIGN1, Design.DESIGN2):
            cfg = ModelConfig(model_kind=ModelKind.FLA_NAIS, design=design, d=4)
            params, _ = training.train(ModelKind.FLA_NAIS, split, cfg, TrainConfig(epochs=1, seed=1))
        tracer.phase = "rank"
        evaluation.evaluate_model(params, cfg, split, on="test")
    finally:
        tracer.uninstall()
    missing = [name for name in SPANS if tracer.calls_of(name) == 0]
    missing += [f"rank:{name}" for name in RANK_SPANS if tracer.calls_of(name, "rank") == 0]
    assert not missing, f"spans never recorded: {missing}"
