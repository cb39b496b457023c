"""Spans recorded around the calls into each flaicf module.

The program is not edited: `install` replaces module attributes that a
caller looks up at call time (for example `flaicf.training.forward_cache`)
with wrappers that open and close a span. Every span keeps its parent, so
a span's self time is its duration minus the time of its children. Spans
live in typed arrays in memory and are written out once, at the end.

A span name is `<module>.<function>`; the module part is the layer that
did the work, so the self times of all layers, plus the benchmark's own
root span, add up to the traced wall time.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = (
    "config",
    "data",
    "params",
    "attention",
    "predictors",
    "gradients",
    "training",
    "evaluation",
    "cli",
)


class Tracer:
    """In-memory span store with per-(phase, variant, name) aggregates."""

    def __init__(self) -> None:
        self.parent = array("q")
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, time covered by children]
        self.phase = ""
        self.variant = ""
        self.calls: dict[tuple, int] = defaultdict(int)
        self.total: dict[tuple, float] = defaultdict(float)
        self.self_time: dict[tuple, float] = defaultdict(float)
        self.samples: dict[tuple, list[float]] = defaultdict(list)
        self.counts: dict[tuple, float] = defaultdict(float)
        self.sampled_names: set[str] = set()
        self._restore: list[tuple] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.name_id.append(nid)
        self.end.append(0.0)
        self._stack.append([sid, 0.0])
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        now = time.perf_counter()
        self.end[sid] = now
        duration = now - self.start[sid]
        frame = self._stack.pop()
        if frame[0] != sid:
            raise RuntimeError("spans closed out of order")
        if self._stack:
            self._stack[-1][1] += duration
        name = self.names[self.name_id[sid]]
        key = (self.phase, self.variant, name)
        self.calls[key] += 1
        self.total[key] += duration
        self.self_time[key] += duration - frame[1]
        if name in self.sampled_names:
            self.samples[key].append(duration)

    def count(self, name: str, value: float) -> None:
        self.counts[(self.phase, self.variant, name)] += value

    # aggregate queries; None matches every phase or variant

    def _sum(self, table, name, phase=None, variant=None):
        return sum(
            v
            for (p, var, n), v in table.items()
            if n == name and phase in (None, p) and variant in (None, var)
        )

    def calls_of(self, name, phase=None, variant=None) -> int:
        return int(self._sum(self.calls, name, phase, variant))

    def total_of(self, name, phase=None, variant=None) -> float:
        return self._sum(self.total, name, phase, variant)

    def self_of(self, name, phase=None, variant=None) -> float:
        return self._sum(self.self_time, name, phase, variant)

    def counted(self, name, phase=None, variant=None) -> float:
        return self._sum(self.counts, name, phase, variant)

    def mean_of(self, name, phase=None, variant=None) -> float:
        calls = self.calls_of(name, phase, variant)
        return self.total_of(name, phase, variant) / calls if calls else 0.0

    def samples_of(self, name, phase=None) -> list[float]:
        out: list[float] = []
        for (p, _, n), values in self.samples.items():
            if n == name and phase in (None, p):
                out.extend(values)
        return out

    def layer_self(self) -> dict[str, float]:
        """Self seconds per module, plus `bench` for the benchmark's own code."""
        out = {layer: 0.0 for layer in ("bench",) + LAYERS}
        for (_, _, name), value in self.self_time.items():
            out[name.split(".", 1)[0]] += value
        return out

    # instrumentation

    def wrap(self, owner, attr: str, name: str, after=None, before=None) -> None:
        """Replace owner.attr (or owner[attr] for a dict) by a traced call.

        `before(args, kwargs)` may return replacement arguments; `after(result,
        args, kwargs)` may return a replacement result. Both run outside the
        span, so their cost lands on the caller as tracing overhead.
        """
        is_dict = isinstance(owner, dict)
        fn = owner[attr] if is_dict else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if after is not None:
                replaced = after(result, args, kwargs)
                if replaced is not None:
                    result = replaced
            return result

        if not isinstance(fn, type):  # a class's namespace must not be copied
            functools.update_wrapper(traced, fn)
        if is_dict:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)
        self._restore.append((owner, attr, fn, is_dict))

    def uninstall(self) -> None:
        for owner, attr, fn, is_dict in reversed(self._restore):
            if is_dict:
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
        self._restore.clear()

    def write(self, path: Path) -> None:
        """Save every span (parent, name, start, end) and the name table."""
        np.savez_compressed(
            path,
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
        Path(str(path) + ".names.json").write_text(json.dumps(self.names), encoding="utf-8")


class CountingRng:
    """Forwards to a numpy Generator and counts the integers it draws.

    Passing this in place of the training generator leaves the random
    stream, and so the run, unchanged.
    """

    def __init__(self, rng) -> None:
        self._rng = rng
        self.drawn = 0

    def integers(self, *args, **kwargs):
        out = self._rng.integers(*args, **kwargs)
        self.drawn += np.size(out)
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def variant_label(kind, design=None) -> str:
    """FISM, NAIS, DEEPICF, or FLA_NAIS-D2 style names for a model kind."""
    kind = getattr(kind, "value", kind)
    if kind in ("FLA_NAIS", "FLA_DICF"):
        return f"{kind}-D{str(getattr(design, 'value', design))[-1]}"
    return kind


def install(tracer: Tracer) -> None:
    """Wrap the calls between flaicf modules that the workloads make."""
    from flaicf import cli, data, evaluation, params, predictors, training

    for cmd in ("prepare", "train", "evaluate"):
        tracer.wrap(cli.COMMANDS, cmd, f"cli.cmd_{cmd}")
    for fn in ("parse_interactions", "k_core_filter", "split_per_user", "save_split",
               "dataset_stats", "load_split"):
        tracer.wrap(cli, fn, f"data.{fn}")
    tracer.wrap(data, "load_split", "data.load_split")
    tracer.wrap(cli, "ModelConfig", "config.ModelConfig")
    tracer.wrap(cli, "TrainConfig", "config.TrainConfig")
    tracer.wrap(cli, "load_checkpoint", "params.load_checkpoint")
    tracer.wrap(cli, "save_checkpoint", "params.save_checkpoint")
    tracer.wrap(cli, "evaluate_model", "evaluation.evaluate_model")
    tracer.wrap(cli, "evaluate", "evaluation.evaluate")
    tracer.wrap(cli, "baseline_scores", "evaluation.baseline_scores")

    def enter_train(args, kwargs):
        config = args[2] if len(args) > 2 else kwargs["model_config"]
        tracer.variant = variant_label(config.model_kind, config.design)
        return args, kwargs

    def leave_train(result, args, kwargs):
        tracer.variant = ""

    tracer.wrap(cli, "train", "training.train", before=enter_train, after=leave_train)

    tracer.wrap(training, "init_parameters", "params.init_parameters")
    for method in ("copy", "all_finite", "sum_squares"):
        tracer.wrap(params.ParameterSet, method, f"params.{method}")

    def counting_rng(args, kwargs):
        args = list(args)
        args[3] = CountingRng(args[3])
        return tuple(args), kwargs

    def count_draws(result, args, kwargs):
        users, _, labels = result
        tracer.count("training.instances", users.size)
        tracer.count("training.negatives", users.size - int(labels.sum()))
        tracer.count("training.draws", args[3].drawn)

    tracer.wrap(training, "epoch_instances", "training.epoch_instances",
                before=counting_rng, after=count_draws)

    def health(cache, args, kwargs):
        if cache.M is not None:
            tracer.count("attention.relu_active", int(cache.M.sum()))
            tracer.count("attention.relu_units", cache.M.size)
        for parts in (cache.item, cache.cols):
            if parts is not None:
                tracer.count("attention.clamped", parts.grad_mask.size - int(parts.grad_mask.sum()))
                tracer.count("attention.logits", parts.grad_mask.size)

    tracer.wrap(training, "forward_cache", "predictors.forward_cache", after=health)
    tracer.wrap(training, "backward", "gradients.backward")
    tracer.wrap(training, "adagrad_step", "training.adagrad_step")
    tracer.wrap(training, "evaluate_model", "evaluation.validate")

    tracer.wrap(predictors, "hidden_prod", "attention.hidden")
    tracer.wrap(predictors, "hidden_concat", "attention.hidden")
    tracer.wrap(predictors, "_smoothed_parts", "attention.item_softmax")
    tracer.wrap(predictors, "_row_softmax", "attention.row_softmax")
    tracer.wrap(predictors, "_col_smoothed_parts", "attention.col_softmax")

    tracer.sampled_names.add("evaluation.score_user")

    def traced_scorer(score, args, kwargs):
        @functools.wraps(score)
        def score_user(user):
            sid = tracer.open("evaluation.score_user")
            try:
                return score(user)
            finally:
                tracer.close(sid)

        return score_user

    tracer.wrap(evaluation, "model_scorer", "evaluation.model_scorer", after=traced_scorer)
    tracer.wrap(evaluation, "_score_chunk", "evaluation.score_chunk")
    tracer.wrap(evaluation, "rank_items", "evaluation.rank_items")
    tracer.wrap(evaluation, "evaluate", "evaluation.evaluate")
