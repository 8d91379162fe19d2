"""The fixed autoencoder's forward/backward pass on one flat parameter buffer, Adam.

The topology is dense(M->M, relu), dense(M->n, linear), l2 power
normalization, additive channel noise, dense(n->M, relu), dense(M->M,
softmax), trained on the squared reconstruction error. Its parameters live
in one float64 buffer theta, ordered W1, b1, W2, b2, W3, b3, W4, b4, each W
of shape (out, in): dense applies it as x @ W.T + b (training, transmit),
class_tile as W @ x.T + b[:, None] (receiver). Adam updates the buffer whole.
"""

from __future__ import annotations

from math import prod, sqrt

import numpy as np

from .errors import DegenerateInputError, ShapeError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

DEGENERATE_NORM_FLOOR = 1e-12
# row tiles of at most this many float64 elements (512 KB) stay in cache
TILE_ELEMENTS = 1 << 16
# np.dot and np.matmul give dense the same bits; below this many rows
# np.dot's shorter dispatch is faster, from it np.matmul is
MATMUL_ROWS = 512


def param_shapes(M: int, n: int) -> tuple:
    """Shapes of W1, b1, W2, b2, W3, b3, W4, b4 in buffer order."""
    return ((M, M), (M,), (n, M), (n,), (M, n), (M,), (M, M), (M,))


def param_count(M: int, n: int) -> int:
    return sum(prod(shape) for shape in param_shapes(M, n))


def split(buffer: np.ndarray, M: int, n: int) -> list[np.ndarray]:
    """The eight parameter-shaped views into a flat buffer, in buffer order."""
    views = []
    offset = 0
    for shape in param_shapes(M, n):
        size = prod(shape)
        views.append(buffer[offset:offset + size].reshape(shape))
        offset += size
    return views


def glorot_uniform(out_dim: int, in_dim: int, rng: np.random.Generator) -> np.ndarray:
    """(out, in) weights drawn uniformly from +-sqrt(6/(fan_in+fan_out))."""
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


def as_batch(x, width: int | None = None) -> tuple[np.ndarray, bool]:
    """Promote a vector to a one-row batch; report whether it was 1-D.

    A given width is checked against the row length.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ShapeError(f"expected 1-D or 2-D input, got ndim={x.ndim}")
    xb = x[None, :] if x.ndim == 1 else x
    if width is not None and xb.shape[1] != width:
        raise ShapeError(f"input length {xb.shape[1]} != layer input size {width}")
    return xb, x.ndim == 1


def tile_rows(M: int) -> int:
    """The most rows of M float64 elements a row tile holds."""
    return max(1, TILE_ELEMENTS // M)


def tile_columns(rows: int) -> int:
    """rows rounded up to a multiple of 8: a class-major tile's columns."""
    return -(-rows // 8) * 8


def tile_work(rows: int, M: int, n: int) -> int:
    """The float64 elements a class-major receiver of `rows` rows works in:
    its (M, k) hidden tile, then the larger of its (k, n) padded input rows
    and its (M, k) logits, k = tile_columns(rows)."""
    return tile_columns(rows) * (M + max(M, n))


def column_sums(t: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """np.add.reduce(t, axis=0) into spare[0], in numpy's order for a row of
    up to 128 elements summed alone (pairwise_sum): one by one below 8; from
    8, accumulators r_j = t[j] + t[j + 8] + ... over the whole blocks of 8,
    combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest one by
    one. spare has t's width and min(len(t), 8) rows."""
    n = t.shape[0]
    whole = n - n % 8
    out = spare[0]
    if n < 8:
        np.copyto(out, t[0])
    else:
        r = t[:8] if whole == 8 else np.add(t[:8], t[8:16], out=spare[:8])
        for i in range(16, whole, 8):
            r += t[i:i + 8]
        # each row of r is spent before it is written
        a, b = spare[2], spare[4]
        np.add(r[0], r[1], out=out)
        out += np.add(r[2], r[3], out=a)
        np.add(r[4], r[5], out=a)
        a += np.add(r[6], r[7], out=b)
        out += a
    for row in t[max(whole, 1):]:
        out += row
    return out


def softmax_columns(t: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Softmax down each column of a class-major tile t, in place, with the
    bits softmax gives each row of t.T (a max is exact in any order, and exp
    maps a +0/-0 tie for it to 1 either way); spare is as column_sums takes it."""
    t -= np.maximum.reduce(t, axis=0, out=spare[0])
    np.exp(t, out=t)
    t /= column_sums(t, spare)
    return t


def softmax(z: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Row-wise softmax with max subtraction; overwrite=True writes it over z."""
    z = np.asarray(z, dtype=np.float64)
    e = np.subtract(z, np.maximum.reduce(z, axis=-1, keepdims=True),
                    out=z if overwrite else None)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def relu(z: np.ndarray) -> np.ndarray:
    """max(z, 0), written over z."""
    return np.maximum(z, 0.0, out=z)


def dense(x: np.ndarray, W: np.ndarray, b: np.ndarray, activation=None,
          out: np.ndarray | None = None) -> np.ndarray:
    """activation(x @ W.T + b) for a batch; bias and activation work in place
    on the product, which belongs to this call or is written into `out`, a
    C-contiguous array. activation is relu or None (linear)."""
    z = (np.dot if x.shape[0] < MATMUL_ROWS else np.matmul)(x, W.T, out=out)
    z += b
    if activation is relu:
        return relu(z)
    return z


def class_tile(x: np.ndarray, W: np.ndarray, b: np.ndarray, work: np.ndarray) -> np.ndarray:
    """W @ x.T + b[:, None] for a (B, in) batch x: the class-major tile, one
    column per row, k = tile_columns(B) columns, the last k - B from zero
    rows. OpenBLAS rounds a product's last columns differently when fewer
    than 8 are left, so padded, each column has its full-tile bits. work is
    a C-contiguous float64 array of k * (out + in) elements or more: the
    tile, then the padded rows."""
    B, width = x.shape
    k = tile_columns(B)
    flat = work.reshape(-1)
    t = flat[:W.shape[0] * k].reshape(W.shape[0], k)
    rows = flat[t.size:t.size + width * k].reshape(k, width)
    np.copyto(rows[:B], x)
    rows[B:] = 0.0
    np.matmul(W, rows.T, out=t)
    t += b[:, None]
    return t


def _row_norms(x: np.ndarray, out=None, squares=None) -> np.ndarray:
    """Per-row l2 norms, shaped (B, 1), computed as np.linalg.norm does; a dead
    transmitter output is refused. out and squares, (B, 1) and x-shaped,
    receive the norms and the squared entries."""
    squares = np.multiply(x, x, out=squares)
    norms = np.sqrt(np.add.reduce(squares, axis=1, keepdims=True, out=out), out=out)
    # fmin skips NaN, as a comparison does: a NaN row alone is not refused
    if np.fmin.reduce(norms, axis=None, initial=np.inf) < DEGENERATE_NORM_FLOOR:
        raise DegenerateInputError(
            f"vector norm below {DEGENERATE_NORM_FLOOR:g}; transmitter output is dead"
        )
    return norms


def power_normalize(x):
    """Scale each vector to unit average symbol power: sqrt(n) * x / ||x||.

    Training scales by (sqrt(n) / ||x||) * x instead (backward_pass). The two
    orders round differently; merging them would move either the evaluation
    CSV bytes or the trained weights, so both are kept.
    """
    xb, single = as_batch(x)
    y = np.sqrt(xb.shape[1]) * xb / _row_norms(xb)
    return y[0] if single else y


class Workspace:
    """Every buffer backward_pass writes for a (B, M) batch through an
    n-use channel: the intermediates, the flat gradient with its eight views
    (grads, as split cuts them) and the softmax output p.

    A workspace serves any number of calls at its shape, one at a time;
    each call overwrites what the previous one returned.
    """

    def __init__(self, M: int, n: int, B: int):
        self.grad = np.empty(param_count(M, n))
        self.grads = split(self.grad, M, n)
        self.h1, self.h3, self.p = (np.empty((B, M)) for _ in range(3))
        self.z2, self.y = np.empty((B, n)), np.empty((B, n))
        self.norms, self.scale = np.empty((B, 1)), np.empty((B, 1))
        # scratch: (B, M) and (B, n) products, per-row sums, relu masks
        self.g, self.gM, self.tM = (np.empty((B, M)) for _ in range(3))
        self.gn, self.tn = np.empty((B, n)), np.empty((B, n))
        self.row, self.col = np.empty(B), np.empty((B, 1))
        self.mask = np.empty((B, M), dtype=bool)


def backward_pass(params, s: np.ndarray, noise, work: Workspace | None = None):
    """Forward one (B, M) message batch through the channel, backpropagate.

    params are the eight views of theta (split); s is both the input and the
    target; noise is added to the power-normalized symbols (a (B, n) draw,
    or 0.0 for a noiseless pass). work is a Workspace for this (M, n, B),
    like numpy's out=; a fresh one is made when it is None. Returns (loss,
    grad, p): the batch mean of the per-sample squared error, its gradient
    as a flat buffer in theta's order, and the softmax output. grad and p
    are work.grad and work.p, overwritten by the next call on work.
    """
    W1, b1, W2, b2, W3, b3, W4, b4 = params
    n, M = W2.shape
    B = s.shape[0]
    if work is None:
        work = Workspace(M, n, B)
    elif work.g.shape != (B, M) or work.gn.shape != (B, n):
        raise ShapeError(
            f"workspace for batch {work.g.shape[0]}, M={work.g.shape[1]}, "
            f"n={work.gn.shape[1]} cannot take a ({B}, {M}) batch at n={n}"
        )
    gW1, gb1, gW2, gb2, gW3, gb3, gW4, gb4 = work.grads

    h1 = dense(s, W1, b1, relu, out=work.h1)
    z2 = dense(h1, W2, b2, out=work.z2)
    norms = _row_norms(z2, out=work.norms, squares=work.tn)
    scale = np.divide(sqrt(n), norms, out=work.scale)
    y = np.multiply(scale, z2, out=work.y)
    y += noise
    h3 = dense(y, W3, b3, relu, out=work.h3)
    # softmax with its row max and row sum in work.col; a max is exact in
    # any order, so this is softmax()'s result
    p = dense(h3, W4, b4, out=work.p)
    p -= np.maximum.reduce(p, axis=1, keepdims=True, out=work.col)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=1, keepdims=True, out=work.col)

    # (p - s)^2 is (s - p)^2 to the bit; 2g and B/2 are exact, so g / (B/2)
    # rounds 2g / B once, as the loss gradient 2(p - s)/B asks
    g = np.subtract(p, s, out=work.g)
    loss = float(np.add.reduce(np.add.reduce(np.multiply(g, g, out=work.tM), axis=1,
                                             out=work.row)) / B)
    g /= B / 2.0
    # softmax Jacobian J = diag(p) - p p^T, applied row-wise
    g -= np.add.reduce(np.multiply(g, p, out=work.tM), axis=1, keepdims=True,
                        out=work.col)
    g *= p
    np.dot(g.T, h3, out=gW4)
    np.add.reduce(g, axis=0, out=gb4)
    g = np.dot(g, W4, out=work.gM)
    # h > 0 exactly where z > 0, NaN included
    g *= np.greater(h3, 0.0, out=work.mask)
    np.dot(g.T, y, out=gW3)
    np.add.reduce(g, axis=0, out=gb3)
    g = np.dot(g, W3, out=work.gn)
    # the noise passes the gradient through; d/dz of sqrt(n) z/||z|| is
    # scale * (g - z (z.g)/||z||^2)
    proj = np.add.reduce(np.multiply(z2, g, out=work.tn), axis=1, keepdims=True,
                         out=work.col)
    proj /= np.multiply(norms, norms, out=work.norms)
    g -= np.multiply(z2, proj, out=work.tn)
    g *= scale
    np.dot(g.T, h1, out=gW2)
    np.add.reduce(g, axis=0, out=gb2)
    g = np.dot(g, W2, out=work.g)
    g *= np.greater(h1, 0.0, out=work.mask)
    np.dot(g.T, s, out=gW1)
    np.add.reduce(g, axis=0, out=gb1)
    return loss, work.grad, p


class AdamState:
    """Adam optimizer state over a flat parameter buffer of `size` entries."""

    def __init__(self, size: int, learning_rate: float = 0.001):
        self.learning_rate = learning_rate
        self.step = 0
        self.first_moment = np.zeros(size)
        self.second_moment = np.zeros(size)


def adam_step(state: AdamState, theta: np.ndarray, grad: np.ndarray) -> None:
    """One Adam update with bias correction (Kingma & Ba, arXiv:1412.6980);
    mutates theta and the moments in place."""
    if theta.shape != state.first_moment.shape or grad.shape != theta.shape:
        raise ShapeError(
            f"parameters {theta.shape}, gradient {grad.shape} and optimizer "
            f"state {state.first_moment.shape} must match"
        )
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    m, v = state.first_moment, state.second_moment
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (grad * grad)
    theta -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON)
