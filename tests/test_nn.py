import math

import numpy as np
import pytest

from aecomm.errors import DegenerateInputError, DomainError, ShapeError
from aecomm.nn import (
    AdamState,
    AdditiveOffset,
    DenseLayer,
    PowerNormLayer,
    adam_step,
    backward_pass,
    flatten_grads,
    forward_pass,
    glorot_uniform_dense,
    loss_eval,
    network_params,
    power_normalize,
    softmax,
)


def test_dense_linear_hand_example():
    layer = DenseLayer([[2.0, 0.0], [0.0, 3.0]], [1.0, 1.0], "linear")
    np.testing.assert_allclose(layer.forward([1.0, 1.0]), [3.0, 4.0])


def test_dense_relu_clips_negative_preactivations():
    layer = DenseLayer([[2.0, 0.0], [0.0, 3.0]], [-10.0, 1.0], "relu")
    np.testing.assert_allclose(layer.forward([1.0, 1.0]), [0.0, 4.0])


def test_dense_batch_matches_vector():
    rng = np.random.default_rng(0)
    layer = glorot_uniform_dense(5, 3, "tanh", rng)
    x = rng.standard_normal(3)
    np.testing.assert_array_equal(layer.forward(x), layer.forward(x[None, :])[0])


@pytest.mark.parametrize("activation", ["linear", "relu", "softmax", "sigmoid", "tanh"])
def test_dense_forward_matches_training_path_bit_for_bit(activation):
    rng = np.random.default_rng(3)
    layer = glorot_uniform_dense(16, 7, activation, rng)
    layer.bias[:] = rng.standard_normal(16)
    x = 3.0 * rng.standard_normal((50, 7))
    x_before = x.copy()
    y = layer.forward(x)
    np.testing.assert_array_equal(x, x_before)
    y_train, _ = layer.forward_cache(x)
    np.testing.assert_array_equal(y, y_train)


def test_dense_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        DenseLayer(np.zeros(4), np.zeros(4), "linear")
    with pytest.raises(ShapeError):
        DenseLayer(np.zeros((2, 3)), np.zeros(3), "linear")
    with pytest.raises(DomainError):
        DenseLayer(np.zeros((2, 3)), np.zeros(2), "softplus")
    layer = DenseLayer(np.zeros((2, 3)), np.zeros(2), "linear")
    with pytest.raises(ShapeError):
        layer.forward(np.zeros(4))


def test_softmax_rows_sum_to_one_and_stay_finite():
    z = np.array([[0.0, 0.0, 0.0], [1000.0, 1000.0, 999.0], [-900.0, 0.0, 3.0]])
    p = softmax(z)
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(p[0], [1 / 3, 1 / 3, 1 / 3])


def test_loss_hand_values():
    assert loss_eval("mse", [1.0, 0.0], [0.5, 0.5]) == pytest.approx(0.5)
    assert loss_eval("categorical_cross_entropy", [0.0, 1.0], [0.5, 0.5]) == pytest.approx(math.log(2.0))
    with pytest.raises(DomainError):
        loss_eval("categorical_cross_entropy", [0.0, 1.0], [0.5, 0.0])
    with pytest.raises(DomainError):
        loss_eval("hinge", [1.0], [1.0])
    with pytest.raises(ShapeError):
        loss_eval("mse", [1.0, 0.0], [1.0, 0.0, 0.0])


def test_power_normalize_hand_values():
    np.testing.assert_allclose(power_normalize(np.ones(7)), np.ones(7))
    out = power_normalize([2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(out, [np.sqrt(7.0), 0, 0, 0, 0, 0, 0])


def test_power_normalize_mean_square_is_one():
    # power constraint must hold for every input, not on average
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1000, 7)) * rng.uniform(0.01, 100.0, size=(1000, 1))
    y = power_normalize(x)
    np.testing.assert_allclose(np.mean(y * y, axis=1), 1.0, atol=1e-12)


def test_power_normalize_degenerate_input():
    with pytest.raises(DegenerateInputError):
        power_normalize(np.zeros(7))
    with pytest.raises(DegenerateInputError):
        power_normalize(np.full((3, 7), 1e-13))


def test_power_norm_gradient_orthogonal_to_input():
    # moving along x itself cannot change sqrt(n) x/||x||
    layer = PowerNormLayer(4)
    x = np.array([[1.0, 2.0, -1.0, 0.5]])
    _, cache = layer.forward_cache(x)
    grad_x, _ = layer.backward(x.copy(), cache)
    np.testing.assert_allclose(grad_x, 0.0, atol=1e-12)


def test_additive_offset_forward_and_passthrough_gradient():
    layer = AdditiveOffset(3)
    layer.offset = np.array([[1.0, -1.0, 0.0]])
    np.testing.assert_allclose(layer.forward([[0.0, 0.0, 0.0]]), [[1.0, -1.0, 0.0]])
    g = np.array([[0.3, 0.4, 0.5]])
    grad_x, param_grads = layer.backward(g, None)
    np.testing.assert_array_equal(grad_x, g)
    assert param_grads == []


def _mean_loss(layers, x, s, kind):
    out = forward_pass(layers, x)
    return float(np.mean(loss_eval(kind, s, out)))


def _check_gradients(layers, x, s, kind, rng, coords=6, h=1e-5, tol=1e-4):
    loss, grads, _ = backward_pass(layers, x, s, loss_kind=kind)
    params = network_params(layers)
    flat = flatten_grads(grads)
    assert len(params) == len(flat)
    for p, g in zip(params, flat):
        assert g.shape == p.shape
        for _ in range(min(coords, p.size)):
            idx = np.unravel_index(rng.integers(p.size), p.shape)
            orig = p[idx]
            p[idx] = orig + h
            lp = _mean_loss(layers, x, s, kind)
            p[idx] = orig - h
            lm = _mean_loss(layers, x, s, kind)
            p[idx] = orig
            numeric = (lp - lm) / (2.0 * h)
            analytic = g[idx]
            err = abs(analytic - numeric) / max(1e-8, abs(analytic), abs(numeric))
            assert err < tol, (
                f"gradient mismatch at {idx}: analytic={analytic} numeric={numeric}"
            )
    return loss


def test_gradient_check_100_random_instances():
    rng = np.random.default_rng(42)
    for i in range(100):
        layers = [
            glorot_uniform_dense(5, 3, "relu", rng),
            glorot_uniform_dense(4, 5, "softmax", rng),
        ]
        layers[0].bias = rng.standard_normal(5) * 0.1
        x = rng.standard_normal((2, 3))
        ids = rng.integers(4, size=2)
        s = np.eye(4)[ids]
        _check_gradients(layers, x, s, "mse", rng, coords=3)


def test_gradient_check_covers_every_activation_and_loss():
    rng = np.random.default_rng(9)
    for act in ("linear", "relu", "sigmoid", "tanh"):
        layers = [
            glorot_uniform_dense(6, 4, act, rng),
            glorot_uniform_dense(3, 6, "softmax", rng),
        ]
        x = rng.standard_normal((3, 4))
        s = np.eye(3)[rng.integers(3, size=3)]
        _check_gradients(layers, x, s, "mse", rng)
        _check_gradients(layers, x, s, "categorical_cross_entropy", rng)


def test_gradient_check_through_normalization_and_offset():
    # the full transmit/channel/receive stack shape used in training
    rng = np.random.default_rng(11)
    noise = AdditiveOffset(3)
    noise.offset = 0.1 * rng.standard_normal((4, 3))
    layers = [
        glorot_uniform_dense(5, 5, "relu", rng),
        glorot_uniform_dense(3, 5, "linear", rng),
        PowerNormLayer(3),
        noise,
        glorot_uniform_dense(5, 3, "relu", rng),
        glorot_uniform_dense(5, 5, "softmax", rng),
    ]
    layers[0].bias = rng.standard_normal(5) * 0.1
    x = np.eye(5)[rng.integers(5, size=4)]
    _check_gradients(layers, x, x, "mse", rng)


def test_backward_pass_loss_is_batch_mean():
    rng = np.random.default_rng(3)
    layers = [glorot_uniform_dense(4, 4, "softmax", rng)]
    x = rng.standard_normal((8, 4))
    s = np.eye(4)[rng.integers(4, size=8)]
    loss, _, out = backward_pass(layers, x, s)
    assert loss == pytest.approx(float(np.mean(loss_eval("mse", s, out))))


def test_adam_zero_gradient_leaves_params_unchanged():
    params = [np.array([1.0, -2.0]), np.array([[3.0]])]
    state = AdamState(params)
    before = [p.copy() for p in params]
    adam_step(state, params, [np.zeros(2), np.zeros((1, 1))])
    for p, b in zip(params, before):
        np.testing.assert_array_equal(p, b)


def test_adam_first_step_size_is_learning_rate():
    # bias correction makes the first update lr * sign(g) up to epsilon
    params = [np.array([0.0])]
    state = AdamState(params, learning_rate=0.001)
    adam_step(state, params, [np.array([0.5])])
    assert params[0][0] == pytest.approx(-0.001, rel=1e-6)


def test_adam_converges_on_quadratic_bowl():
    params = [np.array([3.0])]
    state = AdamState(params, learning_rate=0.01)
    for _ in range(5000):
        adam_step(state, params, [2.0 * params[0]])
    assert abs(params[0][0]) < 1e-3


def test_adam_rejects_mismatched_shapes():
    params = [np.zeros(3)]
    state = AdamState(params)
    with pytest.raises(ShapeError):
        adam_step(state, params, [np.zeros(4)])
    with pytest.raises(ShapeError):
        adam_step(state, [np.zeros(3), np.zeros(2)], [np.zeros(3), np.zeros(2)])


def test_glorot_init_is_seed_deterministic():
    a = glorot_uniform_dense(8, 3, "relu", np.random.default_rng(5))
    b = glorot_uniform_dense(8, 3, "relu", np.random.default_rng(5))
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.bias, np.zeros(8))
    limit = np.sqrt(6.0 / 11.0)
    assert np.all(np.abs(a.weights) <= limit)
