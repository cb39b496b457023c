"""Desk-scale experiment harness for the bundled benchmark configurations.

Runs are cached as JSON under the output directory, keyed by their full
configuration, so interrupted sweeps resume instead of recomputing. The
acceptance suite consumes the same cache; scripts/reproduce_*.py are thin
wrappers around run_delicious and run_ml1m.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from pathlib import Path

from .config import ModelConfig, ModelKind, TrainConfig
from .data import atomic_open, load_split
from .evaluation import baseline_scores, evaluate, evaluate_model
from .params import load_checkpoint, save_checkpoint
from .training import train, train_fism

LR_GRID = (0.01, 0.001, 0.0001, 0.00001)
SEEDS = (1, 2, 3)


def _run_key(tag: str, settings: dict) -> str:
    text = tag + json.dumps(settings, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class RunCache:
    def __init__(self, out_dir):
        self.root = Path(out_dir)
        self.root.mkdir(parents=True, exist_ok=True)

    def get(self, tag: str, settings: dict) -> dict | None:
        path = self.root / f"{tag}_{_run_key(tag, settings)}.json"
        if path.exists():
            with open(path) as fh:
                return json.load(fh)
        return None

    def put(self, tag: str, settings: dict, result: dict) -> dict:
        path = self.root / f"{tag}_{_run_key(tag, settings)}.json"
        payload = {"tag": tag, "settings": settings, **result}
        with atomic_open(path) as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return payload


def train_and_test(
    split,
    cache: RunCache,
    tag: str,
    model: str,
    design: str = "DESIGN2",
    d: int = 16,
    beta: float = 0.7,
    alpha: float = 0.5,
    lr: float = 0.01,
    seed: int = 1,
    epochs: int = 100,
    patience: int = 10,
    pretrain: bool = True,
    eval_workers: int = 1,
    verbose: bool = True,
) -> dict:
    """Train one configuration and return its test metrics (cached)."""
    settings = {
        "model": model,
        "design": design,
        "d": d,
        "beta": beta,
        "alpha": alpha,
        "lr": lr,
        "seed": seed,
        "epochs": epochs,
        "patience": patience,
        "pretrain": pretrain,
    }
    hit = cache.get(tag, settings)
    if hit is not None:
        return hit
    model_config = ModelConfig(
        model_kind=ModelKind(model), design=design, d=d, beta=beta, alpha=alpha
    )
    train_config = TrainConfig(
        learning_rate=lr,
        epochs=epochs,
        seed=seed,
        early_stop_patience=patience,
        eval_workers=eval_workers,
    )
    pretrained = None
    if pretrain and model != "FISM":
        pretrained = _pretrained_embeddings(split, cache, tag, model_config, train_config)
    started = time.time()
    log_fn = (lambda rec: print(f"[{tag} {model} seed={seed} lr={lr}] {rec.to_line()}")) if verbose else None
    params, records = train(
        model_config.model_kind, split, model_config, train_config,
        pretrained=pretrained, log_fn=log_fn,
    )
    test = evaluate_model(params, model_config, split, on="test", n=10, workers=eval_workers)
    result = {
        "test_hr": test.hr,
        "test_ndcg": test.ndcg,
        "best_valid_hr": max(r.hr for r in records),
        "epochs_run": len(records),
        "seconds": round(time.time() - started, 1),
    }
    return cache.put(tag, settings, result)


def _pretrained_embeddings(split, cache, tag, model_config: ModelConfig, train_config: TrainConfig):
    """FISM embeddings for initialization, checkpointed per configuration."""
    settings = {"model": "FISM", "d": model_config.d, "alpha": model_config.alpha,
                "lr": train_config.learning_rate, "seed": train_config.seed,
                "epochs": train_config.epochs, "patience": train_config.early_stop_patience}
    ckpt = cache.root / f"fism_{_run_key(tag + '_pre', settings)}.ckpt"
    if ckpt.exists():
        params, _ = load_checkpoint(ckpt)
    else:
        fism_config, params, _ = train_fism(split, model_config, train_config)
        save_checkpoint(params, fism_config, ckpt)
    return params.P, params.Q


def baseline_test_metrics(split, cache: RunCache, tag: str, baseline: str, seed: int = 1) -> dict:
    settings = {"baseline": baseline, "seed": seed}
    hit = cache.get(tag, settings)
    if hit is not None:
        return hit
    scorer = baseline_scores(baseline, split, seed=seed)
    record = evaluate(scorer, split, on="test", n=10)
    return cache.put(tag, settings, {"test_hr": record.hr, "test_ndcg": record.ndcg})


def run_delicious(data_dir, out_dir, seeds=SEEDS, lr_grid=LR_GRID, eval_workers: int = 1) -> dict:
    """Every Delicious-scale experiment the acceptance bands reference.

    Returns a dict with the learning-rate grid results, per-seed metrics
    for each model, the design comparison, the pretraining ablation, the
    beta comparison, and the baselines. Metrics are fractions in [0, 1].
    """
    split = load_split(data_dir)
    cache = RunCache(out_dir)
    tag = "delicious"
    common = dict(d=16, beta=0.7, eval_workers=eval_workers)

    grid = {}
    for lr in lr_grid:
        grid[str(lr)] = train_and_test(
            split, cache, tag, model="FLA_NAIS", design="DESIGN2", lr=lr, seed=seeds[0], **common
        )
    # tune on the validation split; test metrics are only reported
    best_lr = max(grid, key=lambda k: grid[k]["best_valid_hr"])
    best_lr_value = float(best_lr)

    per_seed: dict[str, dict] = {}
    for model, design in (
        ("FLA_NAIS", "DESIGN2"),
        ("FLA_NAIS", "DESIGN1"),
        ("NAIS", "DESIGN2"),
        ("DEEPICF", "DESIGN2"),
        ("FLA_DICF", "DESIGN2"),
    ):
        name = model if model == "NAIS" or model == "DEEPICF" else f"{model}_{design[-1]}"
        per_seed[name] = {
            str(seed): train_and_test(
                split, cache, tag, model=model, design=design, lr=best_lr_value, seed=seed, **common
            )
            for seed in seeds
        }
    per_seed["FISM"] = {
        str(seed): train_and_test(split, cache, tag, model="FISM", lr=best_lr_value, seed=seed,
                                  d=16, pretrain=False, eval_workers=eval_workers)
        for seed in seeds
    }
    per_seed["FLA_NAIS_2_nopre"] = {
        str(seed): train_and_test(
            split, cache, tag, model="FLA_NAIS", design="DESIGN2", lr=best_lr_value,
            seed=seed, pretrain=False, **common
        )
        for seed in seeds
    }
    per_seed["FLA_NAIS_2_beta09"] = {
        str(seed): train_and_test(
            split, cache, tag, model="FLA_NAIS", design="DESIGN2", lr=best_lr_value,
            seed=seed, d=16, beta=0.9, eval_workers=eval_workers,
        )
        for seed in seeds
    }

    baselines = {
        name: baseline_test_metrics(split, cache, tag, name, seed=seeds[0])
        for name in ("RANDOM", "POP", "ITEMKNN")
    }

    summary = {
        "best_lr": best_lr_value,
        "grid": grid,
        "per_seed": per_seed,
        "baselines": baselines,
        "medians": {
            name: {
                "test_hr": statistics.median([r["test_hr"] for r in runs.values()]),
                "test_ndcg": statistics.median([r["test_ndcg"] for r in runs.values()]),
            }
            for name, runs in per_seed.items()
        },
    }
    with atomic_open(Path(out_dir) / "delicious_summary.json") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def run_ml1m(data_dir, out_dir, seed: int = 1, lr: float = 0.01, eval_workers: int = 4) -> dict:
    """The MovieLens-1M pretrained FLA_NAIS run behind its acceptance band."""
    split = load_split(data_dir)
    cache = RunCache(out_dir)
    result = train_and_test(
        split, cache, "ml1m", model="FLA_NAIS", design="DESIGN2", d=16, beta=0.7,
        lr=lr, seed=seed, epochs=30, patience=5, eval_workers=eval_workers,
    )
    with atomic_open(Path(out_dir) / "ml1m_summary.json") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return result
