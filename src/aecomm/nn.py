"""Minimal dense-network engine: forward/backward passes, losses, Adam.

All arrays are float64. Layers accept a single vector (1-D) or a batch
(2-D, one row per sample) and return the matching shape. Forward passes
are pure; training mutates parameters through adam_step only.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, DomainError, ShapeError

ACTIVATIONS = ("linear", "relu", "softmax", "sigmoid", "tanh")
LOSSES = ("mse", "categorical_cross_entropy")

DEGENERATE_NORM_FLOOR = 1e-12


def _as_batch(x) -> tuple[np.ndarray, bool]:
    """Promote a vector to a one-row batch; report whether it was 1-D."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim == 2:
        return x, False
    raise ShapeError(f"expected 1-D or 2-D input, got ndim={x.ndim}")


def softmax(z: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety.

    overwrite=True lets the result replace z, saving a temporary.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.subtract(z, z.max(axis=-1, keepdims=True), out=z if overwrite else None)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def apply_activation(kind: str, z: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """activation(z); overwrite=True lets relu and softmax reuse z's memory."""
    if kind == "linear":
        return z
    if kind == "relu":
        return np.maximum(z, 0.0, out=z if overwrite else None)
    if kind == "softmax":
        return softmax(z, overwrite)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if kind == "tanh":
        return np.tanh(z)
    raise DomainError(f"unknown activation {kind!r}; expected one of {ACTIVATIONS}")


def _activation_backward(kind: str, grad_y: np.ndarray, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. pre-activation z given gradient w.r.t. output y."""
    if kind == "linear":
        return grad_y
    if kind == "relu":
        return grad_y * (z > 0.0)
    if kind == "softmax":
        # J^T g with J = diag(y) - y y^T, row-wise
        dot = np.sum(grad_y * y, axis=-1, keepdims=True)
        return y * (grad_y - dot)
    if kind == "sigmoid":
        return grad_y * y * (1.0 - y)
    if kind == "tanh":
        return grad_y * (1.0 - y * y)
    raise DomainError(f"unknown activation {kind!r}")


class DenseLayer:
    """Fully connected layer: activation(W x + b), W of shape (out, in)."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray, activation: str):
        weights = np.asarray(weights, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weights.ndim != 2:
            raise ShapeError(f"weights must be 2-D, got ndim={weights.ndim}")
        if bias.shape != (weights.shape[0],):
            raise ShapeError(
                f"bias length {bias.shape} does not match weight rows {weights.shape[0]}"
            )
        if activation not in ACTIVATIONS:
            raise DomainError(f"unknown activation {activation!r}; expected one of {ACTIVATIONS}")
        self.weights = weights
        self.bias = bias
        self.activation = activation

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    def params(self) -> list[np.ndarray]:
        return [self.weights, self.bias]

    def param_count(self) -> int:
        return self.weights.size + self.bias.size

    def forward(self, x):
        xb, single = _as_batch(x)
        if xb.shape[1] != self.in_dim:
            raise ShapeError(f"input length {xb.shape[1]} != layer input size {self.in_dim}")
        # z is this call's own product, so the activation may overwrite it
        z = xb @ self.weights.T
        z += self.bias
        y = apply_activation(self.activation, z, overwrite=True)
        return y[0] if single else y

    def forward_cache(self, xb: np.ndarray):
        z = xb @ self.weights.T + self.bias
        y = apply_activation(self.activation, z)
        return y, (xb, z, y)

    def backward(self, grad_y: np.ndarray, cache):
        xb, z, y = cache
        gz = _activation_backward(self.activation, grad_y, z, y)
        grad_w = gz.T @ xb
        grad_b = gz.sum(axis=0)
        grad_x = gz @ self.weights
        return grad_x, [grad_w, grad_b]


def power_normalize(x):
    """Scale each vector to unit average symbol power: sqrt(n) * x / ||x||."""
    xb, single = _as_batch(x)
    n = xb.shape[1]
    norms = np.linalg.norm(xb, axis=1, keepdims=True)
    if np.any(norms < DEGENERATE_NORM_FLOOR):
        raise DegenerateInputError(
            f"vector norm below {DEGENERATE_NORM_FLOOR:g}; transmitter output is dead"
        )
    y = np.sqrt(n) * xb / norms
    return y[0] if single else y


class PowerNormLayer:
    """Parameterless per-example l2 power normalization, output mean square = 1."""

    def __init__(self, dim: int):
        self.dim = dim

    @property
    def in_dim(self) -> int:
        return self.dim

    @property
    def out_dim(self) -> int:
        return self.dim

    def params(self) -> list[np.ndarray]:
        return []

    def param_count(self) -> int:
        return 0

    def forward(self, x):
        return power_normalize(x)

    def forward_cache(self, xb: np.ndarray):
        norms = np.linalg.norm(xb, axis=1, keepdims=True)
        if np.any(norms < DEGENERATE_NORM_FLOOR):
            raise DegenerateInputError(
                f"vector norm below {DEGENERATE_NORM_FLOOR:g}; transmitter output is dead"
            )
        scale = np.sqrt(self.dim) / norms
        y = scale * xb
        return y, (xb, norms, scale)

    def backward(self, grad_y: np.ndarray, cache):
        xb, norms, scale = cache
        # d/dx of sqrt(n) x/||x||: scale * (g - x (x.g)/||x||^2)
        proj = np.sum(xb * grad_y, axis=1, keepdims=True) / (norms * norms)
        grad_x = scale * (grad_y - xb * proj)
        return grad_x, []


class AdditiveOffset:
    """Adds a fixed offset to its input; gradient passes through unchanged.

    Holds the realized channel noise when training end to end through the
    channel: set .offset per batch before running the backward pass.
    """

    def __init__(self, dim: int, offset=0.0):
        self.dim = dim
        self.offset = offset

    @property
    def in_dim(self) -> int:
        return self.dim

    @property
    def out_dim(self) -> int:
        return self.dim

    def params(self) -> list[np.ndarray]:
        return []

    def param_count(self) -> int:
        return 0

    def forward(self, x):
        xb, single = _as_batch(x)
        y = xb + self.offset
        return y[0] if single else y

    def forward_cache(self, xb: np.ndarray):
        return xb + self.offset, None

    def backward(self, grad_y: np.ndarray, cache):
        return grad_y, []


def forward_pass(layers, x):
    """Run a stack of layers on a vector or batch."""
    out = x
    for layer in layers:
        out = layer.forward(out)
    return out


def loss_eval(kind: str, target, prediction):
    """Evaluate a loss between target and prediction vectors (or batches).

    mse is the squared l2 distance; categorical cross-entropy is
    -sum(s_i log p_i) and requires strictly positive predictions.
    Returns a scalar for vector inputs, a per-row array for batches.
    """
    s, s_single = _as_batch(target)
    p, p_single = _as_batch(prediction)
    if s.shape != p.shape:
        raise ShapeError(f"target shape {s.shape} != prediction shape {p.shape}")
    if kind == "mse":
        d = s - p
        out = np.sum(d * d, axis=1)
    elif kind == "categorical_cross_entropy":
        if np.any(p <= 0.0):
            raise DomainError("cross-entropy requires strictly positive predictions")
        out = -np.sum(s * np.log(p), axis=1)
    else:
        raise DomainError(f"unknown loss {kind!r}; expected one of {LOSSES}")
    return float(out[0]) if (s_single and p_single) else out


def _loss_grad(kind: str, s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Gradient of the per-sample loss w.r.t. the prediction."""
    if kind == "mse":
        return 2.0 * (p - s)
    if kind == "categorical_cross_entropy":
        if np.any(p <= 0.0):
            raise DomainError("cross-entropy requires strictly positive predictions")
        return -s / p
    raise DomainError(f"unknown loss {kind!r}; expected one of {LOSSES}")


def backward_pass(layers, x, target, loss_kind: str = "mse"):
    """Forward then backpropagate; returns (loss, grads, prediction).

    For a batch the loss is the mean per-sample loss and the gradients
    are of that mean. grads is a list with one entry per layer, each a
    list matching layer.params() (empty for parameterless layers).
    """
    xb, single = _as_batch(x)
    sb, _ = _as_batch(target)
    caches = []
    out = xb
    for layer in layers:
        out, cache = layer.forward_cache(out)
        caches.append(cache)
    if sb.shape != out.shape:
        raise ShapeError(f"target shape {sb.shape} != prediction shape {out.shape}")
    per_sample = loss_eval(loss_kind, sb, out)
    loss = float(np.mean(per_sample))
    grad = _loss_grad(loss_kind, sb, out) / out.shape[0]
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        grad, param_grads = layers[i].backward(grad, caches[i])
        grads[i] = param_grads
    prediction = out[0] if single else out
    return loss, grads, prediction


class AdamState:
    """Adam optimizer state: step count and per-parameter moment estimates."""

    def __init__(self, params, learning_rate: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step = 0
        self.first_moment = [np.zeros_like(p) for p in params]
        self.second_moment = [np.zeros_like(p) for p in params]


def adam_step(state: AdamState, params, grads):
    """One Adam update with bias correction; mutates params in place."""
    if len(params) != len(state.first_moment):
        raise ShapeError(
            f"parameter count {len(params)} != optimizer state size {len(state.first_moment)}"
        )
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + state.epsilon)
    return params, state


def glorot_uniform_dense(out_dim: int, in_dim: int, activation: str,
                         rng: np.random.Generator) -> DenseLayer:
    """Dense layer with uniform(+-sqrt(6/(fan_in+fan_out))) weights, zero bias."""
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    weights = rng.uniform(-limit, limit, size=(out_dim, in_dim))
    bias = np.zeros(out_dim)
    return DenseLayer(weights, bias, activation)


def network_params(layers) -> list[np.ndarray]:
    """Flat list of every trainable array in layer order."""
    out = []
    for layer in layers:
        out.extend(layer.params())
    return out


def flatten_grads(grads) -> list[np.ndarray]:
    """Flatten backward_pass gradient structure to match network_params order."""
    out = []
    for gs in grads:
        out.extend(gs)
    return out
