"""Analytical tools: softmax linearization, MSE decomposition, channel capacity.

The receiver analysis models the decoder as a softmax applied to the relu
layer's affine response u = W_r y + b_r, linearized as p ~= F u with F
diagonal. That approximation only holds where every relu unit is active,
so the decomposition restricts itself to those blocks and leaves the other
codebook entries out.
"""

from __future__ import annotations

from math import comb, log2

import numpy as np

from .channel import awgn
from .codebooks import Codebook
from .errors import DomainError, SingularityError
from .metrics import chunk_sizes
from .nn import class_tile, dense, softmax_columns, tile_rows, tile_work

DEFAULT_TAYLOR_ORDER = 20
DEFAULT_U_MIN = 1e-3


class LinearizedReceiver:
    """Diagonal linear stand-in for the softmax, built at a reference point."""

    def __init__(self, f_diag: np.ndarray):
        self.f_diag = f_diag

    def predict(self, u) -> np.ndarray:
        """Approximate softmax output, F u."""
        return np.asarray(u, dtype=np.float64) * self.f_diag


def _series(u: np.ndarray, order: int) -> np.ndarray:
    # 1/u + 1 + u/2! + ... + u^(order-1)/order!, elementwise
    if order < 1:
        raise DomainError(f"taylor order must be >= 1, got {order}")
    total = 1.0 / u + 1.0
    term = np.ones_like(u)
    for j in range(2, order + 1):
        term = term * u / j
        total = total + term
    return total


def _check_u_min(u_min) -> None:
    # NaN, infinite, zero and negative floors name no bound on 1/u
    if not (np.isfinite(u_min) and u_min > 0):
        raise DomainError(f"u_min must be a finite number above 0, got {u_min}")


def _linearization(u: np.ndarray, order: int) -> np.ndarray:
    # the diagonal of F for each reference activation along the last axis
    return _series(u, order) / np.sum(np.exp(u), axis=-1, keepdims=True)


def build_F(u, taylor_order: int = DEFAULT_TAYLOR_ORDER,
            u_min: float = DEFAULT_U_MIN) -> LinearizedReceiver:
    """Diagonal linearization of the softmax at reference activation u.

    f_ii = (1/sum_k e^{u_k}) (1/u_i + 1 + u_i/2! + ... + u_i^(order-1)/order!).
    Entries with |u_i| below u_min would put the 1/u_i term out of control,
    so they are rejected; u_min must be a finite number above 0.
    """
    _check_u_min(u_min)
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1:
        raise DomainError(f"reference activation must be 1-D, got ndim={u.ndim}")
    small = np.nonzero(np.abs(u) < u_min)[0]
    if small.size:
        i = int(small[0])
        raise SingularityError(i, float(u[i]), u_min)
    return LinearizedReceiver(_linearization(u, taylor_order))


def achievable_rate(M: int, m: int, n: int, ebn0_db) -> np.ndarray:
    """Capacity log2(1 + 2 (Eb/N0) floor(log2 C(M,m)) / n) in bits/s/Hz."""
    if m < 1 or m > M // 2:
        raise DomainError(f"order m={m} outside [1, {M // 2}] for M={M}")
    bits = int(log2(comb(M, m)))
    ebn0 = 10.0 ** (np.asarray(ebn0_db, dtype=np.float64) / 10.0)
    return np.log2(1.0 + 2.0 * ebn0 * bits / n)


def mse_decomposition(model, codebook: Codebook | None, sigma2: float,
                      samples: int, rng,
                      taylor_order: int = DEFAULT_TAYLOR_ORDER,
                      u_min: float = DEFAULT_U_MIN) -> dict:
    """Split the linearized reconstruction MSE into signal and noise terms.

    Per codebook entry, F is built at the noiseless activation u = W_r x + b_r
    and contributes ||F u - s||^2 plus the noise term ||F W_r||_F^2 sigma2
    (Frobenius, since E||F W_r n||^2 = sigma2 ||F W_r||_F^2 for white noise).
    Entries whose noiseless activation has a component below u_min cannot be
    linearized and are left out.

    The simulated reference is the Monte Carlo MSE of the same receiver path,
    softmax(W_r y + b_r), restricted to blocks where all relu units stay
    active; active_fraction reports how selective that restriction was.
    """
    if not (np.isfinite(sigma2) and sigma2 >= 0):
        raise DomainError(f"noise variance must be finite and non-negative, got {sigma2}")
    _check_u_min(u_min)
    tile = tile_rows(model.M)
    sizes = chunk_sizes(samples, "samples", tile)
    if codebook is None:
        codebook = model.codebook
    W_r, b_r = model.W3, model.b3
    x = model.transmit(codebook.entries)
    u0 = dense(x, W_r, b_r)
    ok = np.all(np.abs(u0) >= u_min, axis=1) & np.all(u0 > 0, axis=1)
    included = np.nonzero(ok)[0]
    if included.size == 0:
        raise DomainError("no codebook entry keeps every relu unit active; "
                          "the all-active decomposition does not apply")

    # row k of f is build_F(u0[included[k]]).f_diag, with the same bits
    u_ref = u0[included]
    f = _linearization(u_ref, taylor_order)
    signal_term = float(np.mean(np.sum((f * u_ref - codebook.entries[included]) ** 2, axis=1)))
    noise_term = float(np.mean(np.sum(f ** 2 * np.sum(W_r ** 2, axis=1), axis=1) * sigma2))

    # one buffer for every chunk's received rows, as in baseline_block_errors,
    # and one for its class-major tile, padded rows and spare rows
    r = min(samples, tile)
    received = np.empty((r, x.shape[1]))
    work = np.empty(tile_work(r, model.M, x.shape[1]))
    sim_sum = 0.0
    sim_blocks = 0
    for b in sizes:
        ids = included[rng.integers(0, included.size, size=b)]
        u = class_tile(awgn(np.take(x, ids, axis=0), sigma2, rng, out=received[:b]),
                       W_r, b_r, work)
        # every unit active <=> the column minimum is positive (NaN is not)
        active = np.minimum.reduce(u[:, :b], axis=0) > 0
        n_active = int(np.count_nonzero(active))
        if n_active:
            # the padded rows are spent: they are the softmax's spare rows
            spare = work[u.size:2 * u.size].reshape(u.shape)
            p = softmax_columns(u, spare)[:, :b].T[active]
            # in place, with the bits of sum((p - s) ** 2)
            p -= np.take(codebook.entries, ids[active], axis=0)
            p *= p
            sim_sum += float(np.sum(p))
            sim_blocks += n_active
    return {
        "sigma2": float(sigma2),
        "signal_term": signal_term,
        "noise_term": noise_term,
        "predicted_total": signal_term + noise_term,
        "simulated_mse": sim_sum / sim_blocks if sim_blocks else float("nan"),
        "active_fraction": sim_blocks / samples,
    }
