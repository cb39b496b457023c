"""Exact gradients of the per-instance objective, plus their numeric oracle.

The objective for one training instance is

    l(theta) = BCE(sigmoid(score), label) + l2 * sum(theta_a ** 2)

where the sum runs over exactly the parameters the instance touches: the
target row of P, the history rows of Q, the model's shared weight arrays,
and for the deep family the instance's two bias entries. Parameters the
instance does not touch have zero gradient: no update entry writes them.

The smoothed softmax w_j = E_j / S**beta with E = exp(v), S = sum(E) has
Jacobian dw_j/dv_l = w_j * (delta_jl - beta * E_l / S), so its
vector-Jacobian product is

    dv = w * dw - beta * (E / S) * sum(w * dw)

masked to zero where the logit clamp is active. The finite difference
functions below differentiate the same objective numerically through the
forward pass only; they are the correctness oracle for backward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import LOGIT_CLAMP, SmoothedSoftmax
from .config import AttentionMode, ModelConfig, ModelKind
from .params import BIAS, PQ, SHARED, ParameterSet, array_shapes
from .predictors import ForwardCache, PredictionContext, forward_cache

SIGMOID_CLAMP = 1e-12


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def instance_data_loss(score: float, label: float) -> float:
    """Binary cross entropy of one instance, with the sigmoid clamped."""
    s = min(max(sigmoid(score), SIGMOID_CLAMP), 1.0 - SIGMOID_CLAMP)
    return -(label * math.log(s) + (1.0 - label) * math.log(1.0 - s))


def score_grad(score: float, label: float) -> float:
    """d BCE / d score = sigmoid(score) - label."""
    return sigmoid(score) - label


@dataclass
class GradientSet:
    """One instance's gradients, as the update entries adagrad_step applies.

    Each entry of segments is (name, indices, gradient, parameters): name
    is a segment of the parameter buffer (params module) or one array,
    indices are its rows (... for all of it), and parameters are the
    values the forward pass read there. backward gives the SHARED segment
    with one gradient vector, the target row then the history rows as one
    block of the PQ table, and the deep family's two BIAS entries.
    """

    segments: list[tuple[str, object, np.ndarray, np.ndarray]]

    def by_array(self, params: ParameterSet) -> dict[str, np.ndarray]:
        """Every array of params by name, holding the sum of the entries that write it, else 0."""
        total = params.zeros_like()
        for name, idx, grad, _ in self.segments:
            np.add.at(total.get(name), idx, grad)
        return dict(total.arrays())


def _smoothed_vjp(parts: SmoothedSoftmax, dw: np.ndarray, beta: float) -> np.ndarray:
    """Backward of a smoothed softmax over the history (first) axis, per column."""
    wdw = parts.weights * dw
    pull = beta * (parts.exp / parts.denom) * wdw.sum(axis=0)
    return (wdw - pull) * parts.grad_mask


def _row_softmax_vjp(s: np.ndarray, ds: np.ndarray) -> np.ndarray:
    return s * (ds - (s * ds).sum(axis=1, keepdims=True))


def _deep_vjp(cache: ForwardCache, params: ParameterSet, g: float, ws: ParameterSet) -> np.ndarray:
    """Backward through the ReLU tower and final regression; returns de."""
    np.multiply(g, cache.deep_u[-1], out=ws.V)
    du = g * params.V
    for l in range(len(params.deep_W) - 1, -1, -1):
        dz = np.multiply(du, cache.deep_z[l] > 0.0, out=ws.deep_b[l])
        np.multiply(dz[:, None], cache.deep_u[l], out=ws.deep_W[l])
        du = params.deep_W[l].T @ dz
    return du


def backward(
    cache: ForwardCache,
    label: float,
    params: ParameterSet,
    config: ModelConfig,
    l2: float = 0.0,
    workspace: ParameterSet | None = None,
) -> GradientSet:
    """Exact gradient of the per-instance objective at the cached forward.

    The shared arrays' gradients are written into the SHARED segment of
    workspace, a set laid out like params (params.zeros_like() when none
    is given, so the result shares no memory with earlier ones); the P
    and Q rows go into one block, and the l2 term is added to each with
    one operation. train passes one workspace for every step of a run.
    It walks the forward chain (predictors) back: the head, the weights,
    then the shared hidden layer.
    """
    ctx = cache.ctx
    g = score_grad(cache.score, label)
    decay = 2.0 * l2
    entries: list = []
    grads = GradientSet(entries)

    tower = config.deep_layers is not None
    if tower:
        idx = np.array([ctx.user, params.n_users + ctx.target])
        bias = params.get(BIAS).take(idx)
        dbias = np.array((g, g))
        if l2 != 0.0:
            dbias += decay * bias
        entries.append((BIAS, idx, dbias, bias))
    if cache.empty:
        return grads

    # the target row, then the history rows, of the P/Q table
    idx, pq = cache.idx, cache.pq
    p, Qh = pq[0], pq[1:]
    dpq = np.zeros(pq.shape)
    dp, dQh = dpq[0], dpq[1:]
    entries.append((PQ, idx, dpq, pq))

    if config.model_kind is ModelKind.FISM:
        c = ctx.history.size ** (-config.alpha)
        np.multiply(g * c, Qh.sum(axis=0), out=dp)
        np.multiply(g * c, p, out=dQh)
        if l2 != 0.0:
            dpq += decay * pq
        return grads

    ws = params.zeros_like() if workspace is None else workspace
    flat = ws.get(SHARED)
    entries.append((SHARED, ..., flat, params.get(SHARED)))
    beta = config.beta

    # The head: de = d score / d e for the pooled interaction e = sum_j
    # weights_j * X_j, the tower's VJP or g in every feature for the sum.
    de = _deep_vjp(cache, params, g, ws) if tower else np.full(p.shape, g)

    # The weights: feature weights A, or item weights w (one column);
    # then their softmaxes down to the hidden layer's output R.
    if config.feature_attention:
        dA = cache.X * de
        dX = cache.A * de
        if config.item_attention:  # Design 1: A = w * row softmax
            dw = (cache.row_s * dA).sum(axis=1, keepdims=True)
            da_hat = _row_softmax_vjp(cache.row_s, cache.item.weights * dA)
        else:
            da_hat = _smoothed_vjp(cache.cols, dA, beta)
        np.matmul(cache.R.T, da_hat, out=ws.H)
        dR = da_hat @ params.H.T
    else:
        dw = cache.X @ de.reshape(-1, 1)
        dX = cache.item.weights * de
    if config.item_attention:
        dv = _smoothed_vjp(cache.item, dw, beta)
        np.matmul(cache.R.T, dv, out=ws.h.reshape(-1, 1))
        dR_item = dv * params.h
        dR = dR + dR_item if config.feature_attention else dR_item

    # Shared hidden layer backward.
    dZ = dR * cache.M
    dZ.sum(axis=0, out=ws.b)
    if config.attention_mode is AttentionMode.CONCAT:
        d = config.d
        dz_total = dZ.sum(axis=0)
        ws.W[:, :d] = np.outer(dz_total, p)
        ws.W[:, d:] = dZ.T @ Qh
        dp += dz_total @ params.W[:, :d]
        dQh += dZ @ params.W[:, d:]
    else:
        np.matmul(dZ.T, cache.X, out=ws.W)
        dX = dX + dZ @ params.W
    dp += (dX * Qh).sum(axis=0)
    dQh += dX * p

    if l2 != 0.0:
        flat += decay * params.get(SHARED)
        dpq += decay * pq
    return grads


def touched_parameters(ctx: PredictionContext, config: ModelConfig) -> list[tuple[str, np.ndarray | None]]:
    """Arrays (and rows) an instance's objective depends on, by contract.

    Every array of the model, whole except for the target's row of P, the
    history's rows of Q and the user's and the target's biases; with an
    empty history only the biases.
    """
    rows = {"P": np.array([ctx.target]), "Q": ctx.history,
            "b_user": np.array([ctx.user]), "b_item": np.array([ctx.target])}
    return [(name, rows.get(name)) for name in array_shapes(config, 1, 1)
            if ctx.history.size or name in ("b_user", "b_item")]


def instance_objective(
    ctx: PredictionContext,
    label: float,
    params: ParameterSet,
    config: ModelConfig,
    l2: float = 0.0,
) -> float:
    """Data loss plus l2 penalty over the touched parameters (forward only)."""
    loss = instance_data_loss(forward_cache(ctx, params, config).score, label)
    if l2 != 0.0:
        for name, idx in touched_parameters(ctx, config):
            arr = params.get(name)
            block = arr if idx is None else arr[idx]
            loss += l2 * float((block * block).sum())
    return loss


def finite_difference_grads(
    ctx: PredictionContext,
    label: float,
    params: ParameterSet,
    config: ModelConfig,
    l2: float = 0.0,
    step: float = 1e-4,
) -> GradientSet:
    """Central finite differences of instance_objective, entry by entry.

    One update entry per touched array, named by the array, so
    adagrad_step can apply them.
    """
    work = params.copy()
    entries: list = []

    def diff_at(arr: np.ndarray, pos: tuple) -> float:
        orig = arr[pos]
        arr[pos] = orig + step
        hi = instance_objective(ctx, label, work, config, l2)
        arr[pos] = orig - step
        lo = instance_objective(ctx, label, work, config, l2)
        arr[pos] = orig
        return (hi - lo) / (2.0 * step)

    for name, idx in touched_parameters(ctx, config):
        arr = work.get(name)
        if idx is None:
            grad = np.zeros_like(arr)
            for pos in np.ndindex(arr.shape):
                grad[pos] = diff_at(arr, pos)
            entries.append((name, ..., grad, params.get(name)))
        else:
            if arr.ndim == 1:
                grad = np.array([diff_at(arr, (int(r),)) for r in idx])
            else:
                grad = np.zeros((len(idx), arr.shape[1]))
                for k, r in enumerate(idx):
                    for c in range(arr.shape[1]):
                        grad[k, c] = diff_at(arr, (int(r), c))
            entries.append((name, idx, grad, params.get(name)[idx]))
    return GradientSet(entries)


def relative_errors(
    analytic: dict[str, np.ndarray],
    numeric: dict[str, np.ndarray],
    floor: float = 1e-6,
) -> dict[str, float]:
    """Per-array max of |a - n| / max(|a|, |n|, floor), over two GradientSet.by_array dicts."""
    out = {}
    for name in sorted(analytic):
        a, n = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        out[name] = float(np.max(np.abs(a - n) / denom)) if a.size else 0.0
    return out


@dataclass
class GradcheckReport:
    passed: bool
    tolerance: float
    max_error: float
    per_array: dict[str, float]
    instance_seed: int

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        worst = max(self.per_array, key=self.per_array.get) if self.per_array else "-"
        return (
            f"{status} max_rel_err={self.max_error:.3e} tolerance={self.tolerance:.1e} "
            f"worst_array={worst} seed={self.instance_seed}"
        )


def _random_check_params(config: ModelConfig, item_count: int, user_count: int, rng) -> ParameterSet:
    # O(1) parameter scale: at the production init scale (0.01) true
    # gradients sit near the finite difference noise floor and no correct
    # implementation could meet the tolerance.
    return ParameterSet.from_arrays(user_count, **{
        name: rng.normal(0.0, 0.3 if name.startswith(("b", "deep_b")) else 0.5, size=shape)
        for name, shape in array_shapes(config, item_count, user_count).items()
    })


def _margins_ok(cache: ForwardCache, step: float) -> bool:
    """Reject instances where finite differences would cross a kink or clamp."""
    kink = max(10.0 * step, 1e-3)
    if abs(cache.score) > 8.0:
        return False
    if cache.Z is not None and np.min(np.abs(cache.Z)) < kink:
        return False
    if cache.item_logits is not None and np.max(np.abs(cache.item_logits)) > LOGIT_CLAMP - 1.0:
        return False
    if cache.a_hat is not None and np.max(np.abs(cache.a_hat)) > LOGIT_CLAMP - 1.0:
        return False
    for z in cache.deep_z:
        if np.min(np.abs(z)) < kink:
            return False
    return True


def gradcheck(
    model_kind: ModelKind,
    model_config: ModelConfig,
    seed: int = 0,
    tolerance: float = 1e-4,
    history_size: int = 5,
    step: float = 1e-4,
    l2: float = 1e-3,
) -> GradcheckReport:
    """Compare backward with central finite differences on a random instance.

    Builds a small random instance (margin-checked so the objective is
    smooth within the difference step), runs backward for labels 1 and 0,
    and reports the per-array maximum relative error. A failed check is a
    report outcome, not an exception. The small l2 exercises the
    regularization path of the gradient. model_kind overrides
    model_config's kind.
    """
    config = model_config.for_kind(model_kind)
    for attempt in range(64):
        inst_seed = seed + 7919 * attempt
        rng = np.random.default_rng(inst_seed)
        item_count = history_size + 4
        user_count = 3
        params = _random_check_params(config, item_count, user_count, rng)
        target = int(rng.integers(item_count))
        rest = np.setdiff1d(np.arange(item_count), [target])
        hist = rng.choice(rest, size=history_size, replace=False)
        ctx = PredictionContext(user=1, target=target, history=np.sort(hist))
        cache = forward_cache(ctx, params, config)
        if not _margins_ok(cache, step):
            continue
        per_array: dict[str, float] = {}
        for label in (1.0, 0.0):
            grads = backward(cache, label, params, config, l2)
            fd = finite_difference_grads(ctx, label, params, config, l2, step)
            for name, err in relative_errors(grads.by_array(params), fd.by_array(params)).items():
                per_array[name] = max(per_array.get(name, 0.0), err)
        max_error = max(per_array.values()) if per_array else 0.0
        return GradcheckReport(
            passed=max_error < tolerance,
            tolerance=tolerance,
            max_error=max_error,
            per_array=per_array,
            instance_seed=inst_seed,
        )
    raise RuntimeError("no margin-safe gradcheck instance found; widen the margins")
