"""Adagrad training loop with per-instance stochastic updates.

Each epoch regenerates negative samples (neg_ratio uniform draws from the
non-positive items per training positive), shuffles all instances, and
applies one Adagrad update per instance using the exact gradients from
the gradients module. The parameters and the accumulators each live in
one buffer (params module), so an update is one expression per buffer
segment the instance touched, however many arrays the model has; it
flushes parameters below the smallest normal float64 to 0. The
accumulators and backward's gradient workspace are ParameterSets on zero
buffers (ParameterSet.zeros_like), one of each per run, and the P/Q rows
an instance's forward pass gathers serve backward and the update too.
Validation HR and NDCG are computed after every epoch; training returns
the parameters of the best validation-HR epoch.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

import numpy as np

from .attention import NonFiniteError
from .config import ModelConfig, ModelKind, TrainConfig
from .data import EmptyDatasetError
from .evaluation import MetricsRecord, evaluate_model
from .gradients import GradcheckReport, GradientSet, backward, gradcheck, instance_data_loss
from .params import PQ, ParameterSet, init_parameters
from .predictors import PredictionContext, forward_cache

__all__ = [
    "TrainingDivergedError",
    "adagrad_step",
    "sample_negatives",
    "epoch_instances",
    "check_trainable",
    "history_for",
    "train",
    "train_fism",
    "gradcheck",
    "GradcheckReport",
]


# the smallest normal float64; adagrad_step flushes smaller magnitudes to 0
TINY = np.finfo(np.float64).tiny


class TrainingDivergedError(RuntimeError):
    """A logit, score, loss or parameter became NaN or infinite during training."""


def adagrad_step(
    params: ParameterSet,
    grads: GradientSet,
    state: ParameterSet,
    learning_rate: float,
    epsilon: float = 1e-8,
) -> None:
    """In-place update: acc += g^2; theta -= lr * g / (sqrt(acc) + eps).

    state holds the accumulators acc, laid out like params (a
    params.zeros_like() before the first step). One update expression per
    entry of grads.segments: the SHARED segment (or a whole array) is
    updated in place, indexed rows (P/Q, the deep family's biases) from
    the values backward read. Parameters no entry names are left as they
    are. Every theta the update writes whose magnitude falls below TINY
    becomes 0: l2 decays the weights of dead ReLU units toward zero, and
    subnormal values slow every later product they enter.
    """
    for name, idx, grad, theta in grads.segments:
        acc = state.get(name)
        if idx is ...:
            acc += grad * grad
            theta -= learning_rate * grad / (np.sqrt(acc) + epsilon)
            theta[np.abs(theta) < TINY] = 0.0
        else:
            total = acc.take(idx, axis=0) + grad * grad
            acc[idx] = total
            new = theta - learning_rate * grad / (np.sqrt(total) + epsilon)
            new[np.abs(new) < TINY] = 0.0
            params.get(name)[idx] = new


def sample_negatives(
    user: int,
    positives: np.ndarray,
    neg_ratio: int,
    item_count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """neg_ratio * len(positives) uniform draws from the non-positive items."""
    positives = np.asarray(positives)
    if positives.size >= item_count:
        raise ValueError(f"user {user} has no negative candidates")
    need = neg_ratio * positives.size
    out = np.empty(need, dtype=np.int64)
    filled = 0
    while filled < need:
        draws = rng.integers(0, item_count, size=(need - filled) * 2)
        good = draws[~np.isin(draws, positives)]
        take = min(good.size, need - filled)
        out[filled : filled + take] = good[:take]
        filled += take
    return out


def epoch_instances(
    pos_by_user: list[np.ndarray],
    neg_ratio: int,
    item_count: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All positives plus freshly drawn negatives, as parallel arrays."""
    users, items, labels = [], [], []
    for u, pos in enumerate(pos_by_user):
        if pos.size == 0:
            continue
        negs = sample_negatives(u, pos, neg_ratio, item_count, rng)
        count = pos.size + negs.size
        users.append(np.full(count, u, dtype=np.int64))
        items.append(np.concatenate([pos, negs]))
        labels.append(np.concatenate([np.ones(pos.size), np.zeros(negs.size)]))
    if not users:
        raise ValueError("training split has no positives")
    return np.concatenate(users), np.concatenate(items), np.concatenate(labels)


def check_trainable(train) -> None:
    """Raise EmptyDatasetError where epoch_instances cannot draw an epoch from train."""
    sizes = np.diff(train.indptr)
    if not sizes.any():
        raise EmptyDatasetError("training split has no positives")
    full = [train.user_ids[u] for u in np.flatnonzero(sizes >= train.item_count).tolist()]
    if full:
        raise EmptyDatasetError(f"user {full[0]!r} has a training positive for every one of the "
                                f"{train.item_count} items, so no negative can be drawn")


def history_for(positives: np.ndarray, target: int, label: float) -> np.ndarray:
    """The user's training positives, minus the target when it is one."""
    if label == 1.0:
        pos = positives[positives != target]
        return pos
    return positives


def train(
    model_kind: ModelKind,
    split,
    model_config: ModelConfig,
    train_config: TrainConfig,
    pretrained: tuple[np.ndarray, np.ndarray] | None = None,
    log_fn: Callable[[MetricsRecord], None] | None = None,
) -> tuple[ParameterSet, list[MetricsRecord]]:
    """Train one model, returning best-validation parameters and the log.

    model_kind overrides model_config's kind. Determinism: a single
    generator seeded from train_config.seed drives initialization order,
    negative sampling and instance shuffling, so equal configs give
    bitwise-equal results.
    """
    model_config = model_config.for_kind(model_kind)
    n_items = split.train.item_count
    n_users = split.train.user_count
    params = init_parameters(model_config, n_items, n_users, train_config.seed, pretrained)
    state = params.zeros_like()
    workspace = params.zeros_like()
    pq = params.get(PQ)
    rng = np.random.default_rng(train_config.seed)
    pos_by_user = split.train.items_by_user
    ctx = PredictionContext(0, 0, np.empty(0, dtype=np.int64))
    l2, lr, eps = train_config.l2, train_config.learning_rate, train_config.adagrad_epsilon

    records: list[MetricsRecord] = []
    best_params = params.copy()
    best_hr = -1.0
    best_epoch = 0

    for epoch in range(1, train_config.epochs + 1):
        instances = epoch_instances(pos_by_user, train_config.neg_ratio, n_items, rng)
        users, items, labels = (column.tolist() for column in instances)
        order = rng.permutation(len(users))
        loss_sum = 0.0
        # overflow and NaN are caught below as TrainingDivergedError, so
        # numpy's warnings about them would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            for step, idx in enumerate(order.tolist()):
                u, i, y = users[idx], items[idx], labels[idx]
                # history_for drops the target, so PredictionContext's check is not repeated
                ctx.user, ctx.target, ctx.history = u, i, history_for(pos_by_user[u], i, y)
                try:
                    cache = forward_cache(ctx, params, model_config, pq)
                    loss = instance_data_loss(cache.score, y)
                    if not (math.isfinite(cache.score) and math.isfinite(loss)):
                        raise NonFiniteError(f"score {cache.score}, loss {loss}")
                except NonFiniteError as exc:
                    raise TrainingDivergedError(
                        f"epoch {epoch} instance {step} (user {u}, item {i}): {exc}"
                    ) from exc
                loss_sum += loss
                grads = backward(cache, y, params, model_config, l2, workspace)
                adagrad_step(params, grads, state, lr, eps)
        if not params.all_finite():
            raise TrainingDivergedError(f"non-finite parameter after epoch {epoch}")
        epoch_loss = loss_sum / len(users) + l2 * params.sum_squares()
        val = evaluate_model(
            params,
            model_config,
            split,
            on="valid",
            n=train_config.eval_n,
            workers=train_config.eval_workers,
        )
        record = replace(val, epoch=epoch, loss=epoch_loss)
        records.append(record)
        if log_fn is not None:
            log_fn(record)
        if val.hr > best_hr:
            best_hr = val.hr
            best_epoch = epoch
            best_params = params.copy()
        elif epoch - best_epoch > train_config.early_stop_patience:
            break
    return best_params, records


def train_fism(
    split,
    model_config: ModelConfig,
    train_config: TrainConfig,
    epochs: int = 0,
) -> tuple[ModelConfig, ParameterSet, list[MetricsRecord]]:
    """Pretrain FISM at model_config's width: its config, parameters and log.

    A nonzero epochs overrides train_config.epochs.
    """
    fism_config = ModelConfig(
        model_kind=ModelKind.FISM,
        d=model_config.d,
        alpha=model_config.alpha,
        beta=model_config.beta,
    )
    if epochs:
        train_config = replace(train_config, epochs=epochs)
    params, records = train(ModelKind.FISM, split, fism_config, train_config)
    return fism_config, params, records

