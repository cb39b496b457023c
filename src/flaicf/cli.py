"""Command line interface.

Commands: prepare, train, evaluate, gradcheck, export-attention. Options
come from an optional flat key=value config file plus flags of the same
names; flags win. Numeric scalar keys accept comma lists, which expand
into the Cartesian product of runs, each writing into a suffixed output
directory. Exit status is 0 on success; failures print one line
"error: category=<cat> <message>" and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path

from .config import (
    DEEP_KINDS,
    ConfigError,
    ModelConfig,
    ModelKind,
    TrainConfig,
)
from .data import (
    DataFormatError,
    EmptyDatasetError,
    atomic_open,
    dataset_stats,
    k_core_filter,
    load_split,
    parse_interactions,
    save_split,
    split_per_user,
)
from .evaluation import baseline_scores, evaluate, evaluate_model
from .gradients import gradcheck
from .params import CheckpointError, load_checkpoint, save_checkpoint
from .predictors import PredictionContext, attention_for
from .training import TrainingDivergedError, train, train_fism

# key -> (type, default, help); None defaults mean "required by some command"
RUN_KEYS: dict[str, tuple[type, object, str]] = {
    "model": (str, "FLA_NAIS", "model kind: FISM NAIS FLA_NAIS DEEPICF FLA_DICF"),
    "design": (str, "DESIGN2", "feature attention design: DESIGN1 or DESIGN2"),
    "attention_mode": (str, "PROD", "NAIS interaction encoding: PROD or CONCAT"),
    "d": (int, 16, "embedding size"),
    "d_prime": (int, 0, "attention hidden size (0 means d)"),
    "beta": (float, 0.7, "softmax smoothing exponent in (0, 1]"),
    "alpha": (float, 0.5, "FISM history normalization exponent in [0, 1]"),
    "deep_layers": (str, "", "comma list of deep tower sizes (deep models)"),
    "lr": (float, 0.01, "Adagrad learning rate"),
    "l2": (float, 1e-6, "l2 regularization coefficient"),
    "neg_ratio": (int, 4, "negatives sampled per positive"),
    "epochs": (int, 100, "maximum training epochs"),
    "seed": (int, 42, "random seed"),
    "patience": (int, 10, "early stopping patience in epochs"),
    "adagrad_epsilon": (float, 1e-8, "Adagrad denominator offset"),
    "pretrain": (str, "false", "true to initialize embeddings from FISM"),
    "pretrain_epochs": (int, 0, "FISM pretraining epochs (0 means epochs)"),
    "pretrain_checkpoint": (str, "", "existing FISM checkpoint to reuse"),
    "eval_n": (int, 10, "ranking cutoff n"),
    "eval_workers": (int, 1, "processes that rank users in evaluation: this one and N-1 forked "
                             "children (serial where os.fork is missing)"),
    "raw": (str, "", "raw interaction file (prepare)"),
    "format": (str, "MOVIELENS_DAT", "raw format: MOVIELENS_DAT CSV TSV"),
    "k_user": (int, 5, "minimum interactions per user (prepare)"),
    "k_item": (int, 5, "minimum interactions per item (prepare)"),
    "ratios": (str, "0.7,0.1,0.2", "train,valid,test fractions (prepare)"),
    "data_dir": (str, "", "prepared split directory"),
    "out_dir": (str, "", "output directory"),
    "checkpoint": (str, "", "checkpoint path (evaluate, export-attention)"),
    "split": (str, "test", "split to evaluate: valid or test"),
    "baseline": (str, "", "evaluate a baseline instead: RANDOM POP ITEMKNN"),
    "knn_k": (int, 0, "ITEMKNN neighborhood size (0 means all)"),
    "tolerance": (float, 1e-4, "gradcheck tolerance"),
    "user": (str, "", "raw user id (export-attention)"),
    "targets": (str, "", "comma list of raw target item ids (export-attention)"),
}

SWEEPABLE = {
    key for key, (typ, _, _) in RUN_KEYS.items() if typ in (int, float)
}


class CliError(ValueError):
    """Bad command usage: missing keys, unknown keys, malformed values."""


@dataclass
class RunConfig:
    """Resolved flat configuration for one command invocation."""

    values: dict

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key)

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            model_kind=self.values["model"],
            design=self.values["design"],
            attention_mode=self.values["attention_mode"],
            d=self.values["d"],
            d_prime=self.values["d_prime"] or None,
            beta=self.values["beta"],
            alpha=self.values["alpha"],
            deep_layers=self.numbers("deep_layers", int) if self.values["deep_layers"] else None,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.values["lr"],
            l2=self.values["l2"],
            neg_ratio=self.values["neg_ratio"],
            epochs=self.values["epochs"],
            seed=self.values["seed"],
            early_stop_patience=self.values["patience"],
            adagrad_epsilon=self.values["adagrad_epsilon"],
            eval_n=self.values["eval_n"],
            eval_workers=self.values["eval_workers"],
        )

    def flag(self, key: str) -> bool:
        value = str(self.values[key]).strip().lower()
        if value in ("true", "1", "yes"):
            return True
        if value in ("false", "0", "no", ""):
            return False
        raise CliError(f"{key} must be true or false, got {self.values[key]!r}")

    def numbers(self, key: str, typ: type) -> tuple:
        """A comma list value as a tuple of typ."""
        text = self.values[key]
        try:
            return tuple(typ(x) for x in text.split(","))
        except ValueError:
            raise CliError(f"key {key} expects a comma list of {typ.__name__}, got {text!r}")


def load_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in RUN_KEYS:
                raise CliError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _coerce(key: str, raw: str):
    typ = RUN_KEYS[key][0]
    try:
        return typ(raw)
    except ValueError as exc:
        raise CliError(f"key {key} expects {typ.__name__}, got {raw!r}") from exc


def resolve_configs(args: argparse.Namespace) -> list[tuple[RunConfig, str]]:
    """Merge defaults, config file and flags; expand sweeps.

    Returns (config, suffix) pairs; the suffix is empty for single runs
    and names the swept values otherwise.
    """
    raw: dict[str, str] = {}
    if args.config:
        raw.update(load_config_file(args.config))
    for key in RUN_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            raw[key] = flag

    sweeps: dict[str, list] = {}
    values: dict[str, object] = {k: default for k, (_, default, _) in RUN_KEYS.items()}
    for key, text in raw.items():
        if key in SWEEPABLE and "," in text:
            sweeps[key] = [_coerce(key, part) for part in text.split(",") if part != ""]
        else:
            values[key] = _coerce(key, text)

    if not sweeps:
        return [(RunConfig(dict(values)), "")]
    keys = sorted(sweeps)
    combos = []
    for combo in product(*(sweeps[k] for k in keys)):
        v = dict(values)
        v.update(dict(zip(keys, combo)))
        suffix = "_".join(f"{k}{val}" for k, val in zip(keys, combo))
        combos.append((RunConfig(v), suffix))
    return combos


def _out_dir(config: RunConfig, suffix: str) -> Path:
    base = config.values["out_dir"]
    if not base:
        raise CliError("out_dir is required")
    return Path(base) / suffix if suffix else Path(base)


def _load_checkpoint_for(path, split):
    """load_checkpoint, rejecting a model of other item (deep kinds: or user) counts than split."""
    params, model_config = load_checkpoint(path)
    train = split.train
    deep = model_config.model_kind in DEEP_KINDS
    if params.n_items != train.item_count or (deep and params.n_users != train.user_count):
        raise CheckpointError(
            f"{path} holds a model of {params.n_items} items and {params.n_users} users, "
            f"the split has {train.item_count} and {train.user_count}"
        )
    return params, model_config


def _require(config: RunConfig, *keys: str) -> None:
    for key in keys:
        if not config.values[key]:
            raise CliError(f"{key} is required for this command")


def cmd_prepare(config: RunConfig, suffix: str = "") -> dict:
    _require(config, "raw", "out_dir")
    out = _out_dir(config, suffix)
    dataset = parse_interactions(config.values["raw"], config.values["format"])
    raw_stats = dataset_stats(dataset)
    dataset = k_core_filter(dataset, config.values["k_user"], config.values["k_item"])
    ratios = config.numbers("ratios", float)
    split = split_per_user(dataset, ratios, config.values["seed"])
    save_split(split, out)
    stats = dataset_stats(dataset)
    report = {
        "raw": {
            "users": raw_stats.users,
            "items": raw_stats.items,
            "interactions": raw_stats.interactions,
        },
        "filtered": {
            "users": stats.users,
            "items": stats.items,
            "interactions": stats.interactions,
            "sparsity": stats.sparsity,
        },
        "k_user": config.values["k_user"],
        "k_item": config.values["k_item"],
        "ratios": list(ratios),
        "seed": config.values["seed"],
        "splits": {
            "train": split.train.interaction_count,
            "valid": split.valid.interaction_count,
            "test": split.test.interaction_count,
        },
    }
    with atomic_open(out / "stats.json") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"prepared {out}: users={stats.users} items={stats.items} "
        f"interactions={stats.interactions} sparsity={stats.sparsity:.4f}"
    )
    return report


def cmd_train(config: RunConfig, suffix: str = "") -> dict:
    _require(config, "data_dir", "out_dir")
    out = _out_dir(config, suffix)
    # validate the whole configuration before touching the filesystem
    model_config = config.model_config()
    train_config = config.train_config()
    split = load_split(config.values["data_dir"])
    out.mkdir(parents=True, exist_ok=True)

    pretrained = None
    if config.flag("pretrain"):
        if config.values["pretrain_checkpoint"]:
            fism_params, fism_config = _load_checkpoint_for(config.values["pretrain_checkpoint"], split)
            if fism_config.d != model_config.d:
                raise CliError(
                    f"pretrain checkpoint has d={fism_config.d}, run needs d={model_config.d}"
                )
        else:
            fism_config, fism_params, fism_records = train_fism(
                split, model_config, train_config, config.values["pretrain_epochs"]
            )
            save_checkpoint(fism_params, fism_config, out / "fism_pretrain.ckpt")
            _write_metrics(out / "pretrain_metrics", fism_records)
        pretrained = (fism_params.P, fism_params.Q)

    params, records = train(
        model_config.model_kind,
        split,
        model_config,
        train_config,
        pretrained=pretrained,
        log_fn=lambda record: print(record.to_line()),
    )
    save_checkpoint(params, model_config, out / "model.ckpt")
    _write_metrics(out / "metrics", records)
    with atomic_open(out / "config.used") as fh:
        for key in RUN_KEYS:
            fh.write(f"{key}={config.values[key]}\n")
    best = max(records, key=lambda r: r.hr)
    print(f"saved {out / 'model.ckpt'} (best epoch {best.epoch}, valid hr@{best.n}={best.hr:.4f})")
    return {"out": str(out), "best_epoch": best.epoch, "valid_hr": best.hr}


def _write_metrics(stem: Path, records) -> None:
    with atomic_open(f"{stem}.log") as fh:
        fh.writelines(record.to_line() + "\n" for record in records)
    with atomic_open(f"{stem}.json") as fh:
        json.dump([record.to_dict() for record in records], fh, indent=2)
        fh.write("\n")


def cmd_evaluate(config: RunConfig, suffix: str = "") -> dict:
    _require(config, "data_dir")
    split = load_split(config.values["data_dir"])
    on = config.values["split"]
    if on not in ("valid", "test"):
        raise CliError(f"split must be valid or test, got {on!r}")
    n = config.values["eval_n"]
    if n < 1:
        raise ConfigError(f"eval_n must be >= 1, got {n}")
    if config.values["eval_workers"] < 1:
        raise ConfigError(f"eval_workers must be >= 1, got {config.values['eval_workers']}")
    if config.values["baseline"]:
        scorer = baseline_scores(
            config.values["baseline"],
            split,
            seed=config.values["seed"],
            knn_k=config.values["knn_k"] or None,
        )
        record = evaluate(scorer, split, on, n)
        source = config.values["baseline"].upper()
    else:
        _require(config, "checkpoint")
        params, model_config = _load_checkpoint_for(config.values["checkpoint"], split)
        record = evaluate_model(
            params, model_config, split, on, n, workers=config.values["eval_workers"]
        )
        source = model_config.model_kind.value
    line = record.to_line()
    print(f"{source} {line}")
    if config.values["out_dir"]:
        out = _out_dir(config, suffix)
        out.mkdir(parents=True, exist_ok=True)
        payload = {"source": source, **record.to_dict()}
        with atomic_open(out / f"eval_{source}_{on}.json") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return {"source": source, "hr": record.hr, "ndcg": record.ndcg}


def cmd_gradcheck(config: RunConfig, suffix: str = "") -> dict:
    model_config = config.model_config()
    report = gradcheck(
        model_config.model_kind,
        model_config,
        seed=config.values["seed"],
        tolerance=config.values["tolerance"],
    )
    print(f"gradcheck {model_config.model_kind.value} {report.summary()}")
    for name in sorted(report.per_array):
        print(f"  {name}: {report.per_array[name]:.3e}")
    if not report.passed:
        raise CliError(
            f"gradcheck failed: max_rel_err={report.max_error:.3e} "
            f"tolerance={report.tolerance:.1e}"
        )
    return {"passed": report.passed, "max_error": report.max_error}


def _sanitize(raw_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", raw_id)


def cmd_export_attention(config: RunConfig, suffix: str = "") -> dict:
    _require(config, "checkpoint", "data_dir", "out_dir", "user", "targets")
    out = _out_dir(config, suffix)
    split = load_split(config.values["data_dir"])
    params, model_config = _load_checkpoint_for(config.values["checkpoint"], split)
    if model_config.model_kind is ModelKind.FISM:
        raise CliError("a FISM checkpoint has no attention weights to export")
    user_raw = config.values["user"]
    try:
        user = split.train.user_ids.index(user_raw)
    except ValueError:
        raise CliError(f"unknown user id {user_raw!r}")
    item_index = {raw: i for i, raw in enumerate(split.train.item_ids)}
    # every target is resolved and its weights computed before any file is written
    exports = []
    for target_raw in config.values["targets"].split(","):
        target_raw = target_raw.strip()
        if target_raw not in item_index:
            raise CliError(f"unknown item id {target_raw!r}")
        target = item_index[target_raw]
        history = split.train.items_by_user[user]
        history = history[history != target]
        if history.size == 0:
            raise CliError(f"user {user_raw!r} has an empty history for item {target_raw!r}")
        ctx = PredictionContext(user=user, target=target, history=history)
        hist_raw = [split.train.item_ids[i] for i in history]
        stem = f"user{_sanitize(user_raw)}_item{_sanitize(target_raw)}"
        exports.append((stem, hist_raw, attention_for(ctx, params, model_config)))
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for stem, hist_raw, att in exports:
        if att.item_weights is not None:
            path = out / f"attention_item_{stem}.csv"
            with atomic_open(path) as fh:
                fh.write(",".join(hist_raw) + "\n")
                fh.write(",".join(repr(float(x)) for x in att.item_weights) + "\n")
            written.append(str(path))
        if att.feature_weights is not None:
            path = out / f"attention_features_{stem}.csv"
            with atomic_open(path) as fh:
                fh.write("history_item," + ",".join(f"f{k}" for k in range(model_config.d)) + "\n")
                for raw, row in zip(hist_raw, att.feature_weights):
                    fh.write(raw + "," + ",".join(repr(float(x)) for x in row) + "\n")
            written.append(str(path))
    for path in written:
        print(f"wrote {path}")
    return {"written": written}


COMMANDS = {
    "prepare": cmd_prepare,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "gradcheck": cmd_gradcheck,
    "export-attention": cmd_export_attention,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flaicf",
        description="Feature-level attentive item-based collaborative filtering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        for key, (_, default, help_text) in RUN_KEYS.items():
            p.add_argument(f"--{key}", default=None, help=f"{help_text} (default {default!r})")
    return parser


ERROR_CATEGORIES = (
    (CliError, "usage", 2),
    (ConfigError, "config", 2),
    (DataFormatError, "data", 3),
    (EmptyDatasetError, "data", 3),
    (CheckpointError, "checkpoint", 4),
    (FileNotFoundError, "io", 3),
    (TrainingDivergedError, "diverged", 5),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for config, suffix in resolve_configs(args):
            COMMANDS[args.command](config, suffix)
        return 0
    except Exception as exc:  # single-line machine-parsable failure
        for klass, category, code in ERROR_CATEGORIES:
            if isinstance(exc, klass):
                print(f"error: category={category} {exc}", file=sys.stderr)
                return code
        print(f"error: category=internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
