"""Monte Carlo error-rate estimation and CSV emission.

Estimates are chunked so sample counts in the millions stay in bounded
memory, and every output file is self-describing: a '#'-comment header
carries the full config echo so a rerun can be checked byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSpec, awgn, spawn_rng
from .codebooks import Codebook, data_rate, decode_batch, gray_bit_errors
from .errors import DomainError

# Wald interval; flag estimates backed by fewer error events than this
Z95 = 1.96
MIN_ERROR_EVENTS = 100
CHUNK_BLOCKS = 1 << 16


def wald_ci95(errors: int, trials: int) -> float:
    """Half-width of the 95% normal-approximation interval for a proportion."""
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    p = errors / trials
    return Z95 * np.sqrt(p * (1.0 - p) / trials)


@dataclass
class MetricRecord:
    """One evaluated operating point."""

    scheme: str
    snr_kind: str
    snr_db: float
    blocks: int
    block_errors: int
    bit_errors: int
    bler: float
    ber: float
    mse: float
    bler_ci95: float
    ber_ci95: float
    low_confidence: bool

    def as_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "snr_kind": self.snr_kind,
            "snr_db": self.snr_db,
            "blocks": self.blocks,
            "block_errors": self.block_errors,
            "bit_errors": self.bit_errors,
            "bler": self.bler,
            "bler_ci95": self.bler_ci95,
            "ber": self.ber,
            "ber_ci95": self.ber_ci95,
            "mse": self.mse,
            "low_confidence": self.low_confidence,
        }


EVALUATE_COLUMNS = ("scheme", "snr_kind", "snr_db", "blocks", "block_errors",
                    "bit_errors", "bler", "bler_ci95", "ber", "ber_ci95",
                    "mse", "low_confidence")
ADAPTIVE_COLUMNS = ("snr_db", "threshold", "K", "M1", "outage",
                    "rate_bits_per_use", "bler", "bler_ci95")
BASELINE_COLUMNS = ("scheme", "ebn0_db", "ber", "ber_ci95", "blocks_simulated")
ANALYSIS_COLUMNS = ("sigma2", "signal_term", "noise_term", "predicted_total",
                    "simulated_mse", "active_fraction")


def estimate_bler(model, codebook: Codebook | None, spec: ChannelSpec,
                  blocks: int, rng, scheme: str | None = None) -> MetricRecord:
    """Transmit uniform random messages and count block/bit errors.

    BER uses gray-coded message labels over the codebook's bits_per_message.
    MSE is the mean squared reconstruction error of the softmax output.
    The transmitter output depends only on the message id, so it is
    computed once per call for every entry, in chunks, and gathered per
    block.
    """
    if blocks < 1:
        raise DomainError(f"blocks must be >= 1, got {blocks}")
    if codebook is None:
        codebook = model.codebook
    if scheme is None:
        scheme = "onehot" if codebook.m == 1 else "gdr"
    k_bits = codebook.bits_per_message
    count = len(codebook)
    table = np.concatenate([model.transmit(codebook.entries[i:i + CHUNK_BLOCKS])
                            for i in range(0, count, CHUNK_BLOCKS)])

    block_errors = 0
    bit_errors = 0
    mse_sum = 0.0
    done = 0
    while done < blocks:
        b = min(blocks - done, CHUNK_BLOCKS)
        done += b
        ids = rng.integers(0, count, size=b)
        y = awgn(table[ids], spec.sigma2, rng)
        p = model.receive(y)
        ids_hat = decode_batch(p, codebook)
        block_errors += int(np.count_nonzero(ids_hat != ids))
        bit_errors += int(gray_bit_errors(ids, ids_hat).sum())
        # p - s in place: s is 1/m on each block's support and 0 elsewhere
        p[np.arange(b)[:, None], codebook.supports[ids]] -= 1.0 / codebook.m
        np.square(p, out=p)
        mse_sum += float(np.sum(p))

    bits = blocks * k_bits
    return MetricRecord(
        scheme=scheme,
        snr_kind=spec.snr_kind,
        snr_db=spec.snr_db,
        blocks=blocks,
        block_errors=block_errors,
        bit_errors=bit_errors,
        bler=block_errors / blocks,
        ber=bit_errors / bits,
        mse=mse_sum / blocks,
        bler_ci95=float(wald_ci95(block_errors, blocks)),
        ber_ci95=float(wald_ci95(bit_errors, bits)),
        low_confidence=block_errors < MIN_ERROR_EVENTS,
    )


def sweep(model, kind: str, points, blocks: int, key,
          scheme: str | None = None) -> list[MetricRecord]:
    """Evaluate a model over an Eb/N0 (kind "ebn0_db") or SNR ("snr_db")
    axis; point i draws from spawn_rng(*key, i), so it reproduces alone."""
    rate = data_rate(model.codebook, model.n)
    make_spec = ChannelSpec.from_ebn0 if kind == "ebn0_db" else ChannelSpec.from_snr_db
    return [estimate_bler(model, None, make_spec(model.n, rate, point), blocks,
                          spawn_rng(*key, i), scheme=scheme)
            for i, point in enumerate(points)]


def format_value(v) -> str:
    """Stable text form: floats as repr (shortest round trip), bools as 0/1."""
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return ""
    return str(v)


def write_csv(path, columns, rows, config_echo: dict | None = None) -> None:
    """Comma-separated table with a '#'-prefixed config echo block.

    Output depends only on the arguments (no timestamps, no environment),
    so identical runs produce byte-identical files.
    """
    lines = []
    for key in sorted(config_echo or {}):
        lines.append(f"# {key} = {format_value((config_echo or {})[key])}")
    lines.append(",".join(columns))
    for row in rows:
        if not isinstance(row, dict):
            row = row.as_dict()
        lines.append(",".join(format_value(row.get(c)) for c in columns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> tuple[dict, list[dict]]:
    """Inverse of write_csv; config echo values come back as strings."""
    config = {}
    rows = []
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition(" = ")
                config[key] = value
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(dict(zip(header, line.split(","))))
    return config, rows
