"""Analytic gradients against central finite differences, per model kind.

gradcheck draws its own well-conditioned instance (O(1) parameter scale,
ReLU/clamp margins enforced), so one passing report certifies every
parameter array of that architecture at once.
"""

import math

import numpy as np
import pytest

from flaicf.config import AttentionMode, Design, ModelConfig, ModelKind
from flaicf.gradients import (
    backward,
    finite_difference_grads,
    gradcheck,
    instance_data_loss,
    relative_errors,
    score_grad,
    sigmoid,
    touched_parameters,
)
from flaicf.params import BIAS, PQ
from flaicf.predictors import PredictionContext, forward_cache
from tests.conftest import random_params

GRADCHECK_MATRIX = [
    ModelConfig(model_kind=ModelKind.FISM, d=8),
    ModelConfig(model_kind=ModelKind.NAIS, attention_mode=AttentionMode.PROD, d=8, d_prime=8),
    ModelConfig(model_kind=ModelKind.NAIS, attention_mode=AttentionMode.CONCAT, d=8, d_prime=8),
    ModelConfig(model_kind=ModelKind.FLA_NAIS, design=Design.DESIGN1, d=8, d_prime=8),
    ModelConfig(model_kind=ModelKind.FLA_NAIS, design=Design.DESIGN2, d=8, d_prime=8),
    ModelConfig(model_kind=ModelKind.DEEPICF, d=8, d_prime=8),
    ModelConfig(model_kind=ModelKind.FLA_DICF, design=Design.DESIGN1, d=8, d_prime=8),
    ModelConfig(model_kind=ModelKind.FLA_DICF, design=Design.DESIGN2, d=8, d_prime=8),
]


def _ids(cfg):
    mode = f"-{cfg.attention_mode}" if cfg.model_kind is ModelKind.NAIS else ""
    design = f"-{cfg.design}" if "FLA" in str(cfg.model_kind) else ""
    return f"{cfg.model_kind}{mode}{design}"


def test_sigmoid_and_loss_closed_forms():
    assert sigmoid(0.0) == 0.5
    assert instance_data_loss(0.0, 1.0) == pytest.approx(math.log(2.0), rel=1e-12)
    assert instance_data_loss(0.0, 0.0) == pytest.approx(math.log(2.0), rel=1e-12)
    assert score_grad(0.0, 1.0) == pytest.approx(-0.5)
    assert score_grad(0.0, 0.0) == pytest.approx(0.5)


def test_loss_finite_at_extreme_scores():
    # sigma clamp keeps the log away from -inf
    assert math.isfinite(instance_data_loss(1000.0, 0.0))
    assert math.isfinite(instance_data_loss(-1000.0, 1.0))


@pytest.mark.parametrize("cfg", GRADCHECK_MATRIX, ids=_ids)
def test_gradcheck_matrix(cfg):
    report = gradcheck(cfg.model_kind, cfg, seed=0, tolerance=1e-4, history_size=5)
    assert report.passed, report.summary()
    assert report.max_error < 1e-4


def test_gradcheck_of_a_kind_other_than_the_configs():
    report = gradcheck(ModelKind.NAIS, ModelConfig(model_kind=ModelKind.FLA_NAIS, d=8))
    assert report.passed, report.summary()
    assert "h" in report.per_array and "H" not in report.per_array


def test_gradcheck_negated_gradient_control():
    # corrupting one array must push its relative error to ~2
    cfg = ModelConfig(model_kind=ModelKind.FLA_NAIS, design=Design.DESIGN2, d=4, d_prime=4)
    params = random_params(cfg, 8, 2, seed=23)
    ctx = PredictionContext(user=0, target=0, history=np.array([1, 2, 3]))
    cache = forward_cache(ctx, params, cfg)
    analytic = backward(cache, 1.0, params, cfg, l2=0.0).by_array(params)
    analytic["H"] = -analytic["H"]
    numeric = finite_difference_grads(ctx, 1.0, params, cfg).by_array(params)
    errors = relative_errors(analytic, numeric)
    assert errors["H"] == pytest.approx(2.0, abs=0.05)
    assert max(v for k, v in errors.items() if k != "H") < 1e-4


@pytest.mark.parametrize(
    "segment, position, wrong, arrays",
    [(PQ, 0, 5, {"P"}), (BIAS, 1, 1, {"b_user", "b_item"})],
    ids=["target-row-of-P", "item-bias-without-user-offset"],
)
def test_gradcheck_misplaced_row_control(segment, position, wrong, arrays):
    # the right gradient written to the wrong row must push the relative
    # error of every array the move touches to 1: zero where the gradient
    # belongs, a gradient where none does
    cfg = ModelConfig(model_kind=ModelKind.DEEPICF, d=4, d_prime=4)
    params = random_params(cfg, 8, 3, seed=28)
    ctx = PredictionContext(user=0, target=2, history=np.array([1, 3, 6]))
    cache = forward_cache(ctx, params, cfg)
    grads = backward(cache, 1.0, params, cfg, l2=1e-3)
    [k] = [k for k, entry in enumerate(grads.segments) if entry[0] == segment]
    _, idx, grad, theta = grads.segments[k]
    idx = idx.copy()
    idx[position] = wrong
    grads.segments[k] = (segment, idx, grad, theta)
    numeric = finite_difference_grads(ctx, 1.0, params, cfg, l2=1e-3)
    errors = relative_errors(grads.by_array(params), numeric.by_array(params))
    for name in arrays:
        assert errors[name] == pytest.approx(1.0, abs=1e-9), name
    assert max(v for k, v in errors.items() if k not in arrays) < 1e-4


def test_untouched_rows_get_no_gradient():
    cfg = ModelConfig(model_kind=ModelKind.DEEPICF, d=4, d_prime=4)
    params = random_params(cfg, 10, 4, seed=24)
    ctx = PredictionContext(user=2, target=1, history=np.array([4, 7]))
    cache = forward_cache(ctx, params, cfg)
    by_array = backward(cache, 1.0, params, cfg, l2=0.0).by_array(params)

    def written_rows(name):
        grad = by_array[name]
        return set(np.flatnonzero(grad.reshape(grad.shape[0], -1).any(axis=1)).tolist())

    assert written_rows("P") == {1}
    assert written_rows("Q") == {4, 7}
    assert written_rows("b_user") == {2}
    assert written_rows("b_item") == {1}


def test_touched_parameters_cover_backward_outputs():
    for cfg in GRADCHECK_MATRIX:
        params = random_params(cfg, 9, 3, seed=25)
        ctx = PredictionContext(user=1, target=0, history=np.array([2, 5]))
        cache = forward_cache(ctx, params, cfg)
        grads = backward(cache, 0.0, params, cfg, l2=1e-3)
        contract = {name for name, _ in touched_parameters(ctx, cfg)}
        # with l2 > 0 every touched parameter gets a nonzero gradient
        produced = {name for name, grad in grads.by_array(params).items() if grad.any()}
        assert produced == contract, cfg.model_kind


def test_l2_term_shifts_gradient_by_2_lambda_theta():
    cfg = ModelConfig(model_kind=ModelKind.NAIS, d=4, d_prime=4)
    params = random_params(cfg, 6, 1, seed=26)
    ctx = PredictionContext(user=0, target=0, history=np.array([1, 2]))
    cache = forward_cache(ctx, params, cfg)
    plain = backward(cache, 1.0, params, cfg, l2=0.0).by_array(params)
    reg = backward(cache, 1.0, params, cfg, l2=0.1).by_array(params)
    np.testing.assert_allclose(reg["W"], plain["W"] + 2 * 0.1 * params.W, atol=1e-12)
    np.testing.assert_allclose(reg["P"][0], plain["P"][0] + 2 * 0.1 * params.P[0], atol=1e-12)


def test_gradcheck_retries_to_stable_seed():
    # report carries the instance seed actually used, deterministically
    cfg = ModelConfig(model_kind=ModelKind.NAIS, d=6, d_prime=6)
    a = gradcheck(cfg.model_kind, cfg, seed=9)
    b = gradcheck(cfg.model_kind, cfg, seed=9)
    assert a.instance_seed == b.instance_seed
    assert a.max_error == b.max_error


def test_gradcheck_exercises_both_labels_and_reg():
    # failing either label or the l2 path must fail the whole report;
    # the passing matrix above plus this negated-l2 probe pins both
    cfg = ModelConfig(model_kind=ModelKind.FISM, d=6)
    params = random_params(cfg, 8, 1, seed=27)
    ctx = PredictionContext(user=0, target=0, history=np.array([1, 2, 3]))
    for label in (1.0, 0.0):
        cache = forward_cache(ctx, params, cfg)
        grads = backward(cache, label, params, cfg, l2=1e-3)
        numeric = finite_difference_grads(ctx, label, params, cfg, l2=1e-3)
        errors = relative_errors(grads.by_array(params), numeric.by_array(params))
        assert max(errors.values()) < 1e-4, (label, errors)
