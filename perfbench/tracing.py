"""Spans around aecomm's public functions, recorded from outside the package.

Each wrapper is installed by rebinding a name where its callers look it up
at call time: a module-level function in every aecomm module that holds
it (consumers import functions by name, e.g. aecomm.metrics.decode_batch),
a method on its class (Autoencoder.transmit). A span is [name, start, end,
parent index, rows]; spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from workloads import aecomm  # noqa: F401  (puts the package on sys.path)
from aecomm import adaptive, analysis, channel, codebooks, hamming, metrics, model, nn


def _rows(x) -> int:
    shape = np.shape(x)
    return shape[0] if len(shape) == 2 else 1


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


# span name -> (owner, attribute, rows of work in the call or None)
TARGETS = {
    "model.train": (model, "train", None),
    "model.load_checkpoint": (model, "load_checkpoint", None),
    "model.transmit": (model.Autoencoder, "transmit", lambda a, k: _rows(a[1])),
    "model.receive": (model.Autoencoder, "receive", lambda a, k: _rows(a[1])),
    "nn.backward_pass": (nn, "backward_pass", lambda a, k: _rows(a[1])),
    "nn.adam_step": (nn, "adam_step", None),
    "channel.awgn": (channel, "awgn", lambda a, k: _rows(a[0])),
    "codebooks.decode_batch": (codebooks, "decode_batch", lambda a, k: _rows(a[0])),
    "codebooks.gray_bit_errors": (codebooks, "gray_bit_errors", lambda a, k: len(a[0])),
    "codebooks.subset_codebook": (codebooks, "subset_codebook", None),
    "metrics.estimate_bler": (metrics, "estimate_bler",
                              lambda a, k: _arg(a, k, 3, "blocks")),
    "adaptive.run_adaptive": (adaptive, "run_adaptive", None),
    "adaptive.probe_mses": (adaptive, "probe_mses",
                            lambda a, k: _arg(a, k, 2, "K") * len(a[0].codebook)),
    "adaptive.select_vectors": (adaptive, "select_vectors", None),
    "adaptive.selected_codebook": (adaptive, "selected_codebook", None),
    "hamming.baseline_block_errors": (hamming, "baseline_block_errors",
                                      lambda a, k: _arg(a, k, 2, "blocks")),
    "hamming.hamming_encode": (hamming, "hamming_encode", lambda a, k: _rows(a[0])),
    "hamming.hamming_decode_hd": (hamming, "hamming_decode_hd", lambda a, k: _rows(a[0])),
    "hamming.hamming_decode_ml": (hamming, "hamming_decode_ml", lambda a, k: _rows(a[0])),
    "analysis.mse_decomposition": (analysis, "mse_decomposition",
                                   lambda a, k: _arg(a, k, 3, "samples")),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, rows):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          rows(args, kwargs) if rows else 0])
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
        return traced

    @contextmanager
    def installed(self):
        """Rebind every target to its traced wrapper; restore on exit."""
        modules = [m for key, m in sys.modules.items()
                   if key == "aecomm" or key.startswith("aecomm.")]
        saved = []
        try:
            for name, (owner, attr, rows) in TARGETS.items():
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original, rows)
                holders = [owner] if isinstance(owner, type) else \
                    [m for m in modules if getattr(m, attr, None) is original]
                for holder in holders:
                    saved.append((holder, attr, original))
                    setattr(holder, attr, wrapped)
            yield self
        finally:
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)


def layer_totals(spans: list, lo: int, hi: int) -> tuple[dict, float]:
    """Per span name over spans[lo:hi]: self seconds, calls and rows; plus
    the summed duration of the top-level spans (which the self times add up to)."""
    child = defaultdict(float)
    for name, start, end, parent, _ in spans[lo:hi]:
        if parent >= lo:
            child[parent] += end - start
    totals = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "rows": 0})
    top = 0.0
    for idx in range(lo, hi):
        name, start, end, parent, rows = spans[idx]
        t = totals[name]
        t["self_s"] += end - start - child[idx]
        t["calls"] += 1
        t["rows"] += rows
        if parent < lo:
            top += end - start
    return dict(totals), top
