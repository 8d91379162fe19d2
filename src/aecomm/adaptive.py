"""Adaptive transmission: probe the channel per codebook entry, keep the
subset meeting an MSE threshold, transmit over that subset.

The receiver probes every entry at the operating SNR, measures per-entry
reconstruction MSE, and feeds back the labels of the M1 best entries,
where M1 is the largest admissible subset size whose entries all meet the
threshold. Works identically for one-hot and m-of-M codebooks; the only
requirement is 64 entries, the size the selection tiers were designed for.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

import numpy as np

from . import metrics, nn
from .channel import ChannelSpec, spawn_rng
from .codebooks import data_rate, subset_codebook
from .errors import DomainError

SUBSET_TIERS = (4, 8, 16, 32, 64)
PROBE_ENTRY_COUNT = 64


@dataclass
class AdaptiveState:
    """Outcome of one probe-and-select round."""

    mse_threshold: float
    probe_mses: np.ndarray
    feedback_labels: np.ndarray
    M1: int
    outage: bool
    rate_bits_per_use: float | None = None


def probe_mses(model, spec: ChannelSpec, K: int, rng) -> np.ndarray:
    """Average over K channel realizations of per-entry reconstruction MSE.

    K=1 is the single-shot probe of the published procedure; larger K
    trades probe cost for a stabler selection. The K * count probe rows,
    row i probing entry i % count, go through the channel and the receiver
    in batches of at most nn.tile_rows(M) rows (metrics.tile_receiver); the
    noise is drawn in row order, and each probe's per-entry errors are
    added to the total in probe order.
    """
    if K < 1:
        raise DomainError(f"probes per vector must be >= 1, got {K}")
    codebook = model.codebook
    count = len(codebook)
    total = np.zeros(count)
    rows = K * count
    r = min(rows, nn.tile_rows(model.M))
    # a batch from row `start` probes index[start % count:], cut to its length
    index = np.arange(count + r) % count
    receive, square_error = metrics.tile_receiver(model, codebook, spec.sigma2, rows)
    for start in range(0, rows, r):
        at = index[start % count:][:min(r, rows - start)]
        p = square_error(receive(at, rng), at)
        # unbuffered, in row order: each entry's total grows in probe order
        np.add.at(total, at, np.add.reduce(p, axis=1))
    return total / K


def select_vectors(mses, threshold: float) -> AdaptiveState:
    """Pick the largest tier M1 in {4,8,16,32,64} whose M1 best entries all
    meet the threshold; if none does, fall back to the best 4 and flag outage.

    The selected set is always the MSE-sorted prefix (ties toward the lower
    entry index), so every kept entry satisfies the threshold unless outage.
    """
    if np.isnan(threshold):
        raise DomainError("MSE threshold must not be NaN")
    mses = np.asarray(mses, dtype=np.float64)
    if mses.ndim != 1 or mses.shape[0] < SUBSET_TIERS[0]:
        raise DomainError(f"need at least {SUBSET_TIERS[0]} probe MSEs, "
                          f"got shape {mses.shape}")
    order = np.argsort(mses, kind="stable")
    sorted_mses = mses[order]
    tiers = [t for t in SUBSET_TIERS if t <= mses.shape[0]]
    M1 = None
    for t in reversed(tiers):
        if sorted_mses[t - 1] <= threshold:
            M1 = t
            break
    outage = M1 is None
    if outage:
        M1 = tiers[0]
    return AdaptiveState(
        mse_threshold=float(threshold),
        probe_mses=mses,
        feedback_labels=order[:M1],
        M1=M1,
        outage=outage,
    )


def run_adaptive(model, spec: ChannelSpec, threshold: float, K: int,
                 rng) -> AdaptiveState:
    """Probe, select, and report the realized data rate log2(M1)/n."""
    if len(model.codebook) != PROBE_ENTRY_COUNT:
        raise DomainError(f"adaptive selection expects {PROBE_ENTRY_COUNT} "
                          f"codebook entries, got {len(model.codebook)}")
    state = select_vectors(probe_mses(model, spec, K, rng), threshold)
    state.rate_bits_per_use = log2(state.M1) / spec.n
    return state


def selected_codebook(model, state: AdaptiveState):
    """Restricted codebook over the fed-back entries, plus the parent ids."""
    return subset_codebook(model.codebook, state.feedback_labels)


def adaptive_sweep(model, snrs, threshold: float, K: int, blocks: int,
                   key) -> list[dict]:
    """Probe, select and evaluate the selected subset at each operating SNR.

    Point i draws its probes and then its evaluation blocks from one stream,
    spawn_rng(*key, i). Rows carry the selection (M1, outage, rate) and the
    subset's BLER, MSE and block count.
    """
    rate = data_rate(model.codebook, model.n)
    rows = []
    for i, snr_db in enumerate(snrs):
        spec = ChannelSpec.from_snr_db(model.n, rate, snr_db)
        rng = spawn_rng(*key, i)
        state = run_adaptive(model, spec, threshold, K, rng)
        sub, _ = selected_codebook(model, state)
        rec = metrics.estimate_bler(model, sub, spec, blocks, rng, scheme="adaptive")
        rows.append({
            "snr_db": snr_db, "threshold": threshold, "K": K,
            "M1": state.M1, "outage": state.outage,
            "rate_bits_per_use": state.rate_bits_per_use,
            "bler": rec.bler, "bler_ci95": rec.bler_ci95, "mse": rec.mse,
            "blocks": rec.blocks,
        })
    return rows
