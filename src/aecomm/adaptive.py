"""Adaptive transmission: probe the channel per codebook entry, keep the
subset meeting an MSE threshold, transmit over that subset.

The receiver probes every entry at the operating SNR, measures per-entry
reconstruction MSE, and feeds back the labels of the M1 best entries,
where M1 is the largest admissible subset size whose entries all meet the
threshold. Works identically for one-hot and m-of-M codebooks; the only
requirement is 64 entries, the size the selection tiers were designed for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log2

import numpy as np

from .channel import ChannelSpec, awgn
from .codebooks import subset_codebook
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
    probes_per_vector: int
    outage: bool
    rate_bits_per_use: float | None = None
    extra: dict = field(default_factory=dict)


def probe_mses(model, spec: ChannelSpec, K: int, rng) -> np.ndarray:
    """Average over K channel realizations of per-entry reconstruction MSE.

    K=1 is the single-shot probe of the published procedure; larger K
    trades probe cost for a stabler selection.
    """
    if K < 1:
        raise DomainError(f"probes per vector must be >= 1, got {K}")
    entries = model.codebook.entries
    x = model.transmit(entries)
    total = np.zeros(entries.shape[0])
    for _ in range(K):
        y = awgn(x, spec.sigma2, rng)
        p = model.receive(y)
        total += np.sum((p - entries) ** 2, axis=1)
    return total / K


def select_vectors(mses, threshold: float,
                   probes_per_vector: int = 1) -> AdaptiveState:
    """Pick the largest tier M1 in {4,8,16,32,64} whose M1 best entries all
    meet the threshold; if none does, fall back to the best 4 and flag outage.

    The selected set is always the MSE-sorted prefix (ties toward the lower
    entry index), so every kept entry satisfies the threshold unless outage.
    """
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
        probes_per_vector=probes_per_vector,
        outage=outage,
    )


def run_adaptive(model, spec: ChannelSpec, threshold: float, K: int,
                 rng) -> AdaptiveState:
    """Probe, select, and report the realized data rate log2(M1)/n."""
    if len(model.codebook) != PROBE_ENTRY_COUNT:
        raise DomainError(f"adaptive selection expects {PROBE_ENTRY_COUNT} "
                          f"codebook entries, got {len(model.codebook)}")
    state = select_vectors(probe_mses(model, spec, K, rng), threshold,
                           probes_per_vector=K)
    state.rate_bits_per_use = log2(state.M1) / spec.n
    return state


def selected_codebook(model, state: AdaptiveState):
    """Restricted codebook over the fed-back entries, plus the parent ids."""
    return subset_codebook(model.codebook, state.feedback_labels)
