"""Monte Carlo error-rate estimation and CSV emission.

Estimates are chunked so sample counts in the millions stay in bounded
memory, and every output file is self-describing: a '#'-comment header
carries the full config echo so a rerun can be checked byte for byte.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import nn
from .channel import ChannelSpec, awgn, spawn_rng
from .codebooks import Codebook, data_rate, decode_batch, gray_bit_errors
from .errors import ConfigError, DomainError

# Wald interval; flag estimates backed by fewer error events than this
Z95 = 1.96
MIN_ERROR_EVENTS = 100


def tile_receiver(model, codebook: Codebook, sigma2: float, rows: int):
    """The channel and the model's receiver for batches of messages of
    `codebook`, each of at most min(rows, nn.tile_rows(model.M)) rows.
    receive(ids, rng) returns p, the softmax output of awgn(table[ids]), a
    view into a buffer that the next call overwrites; the symbol table is
    transmit(entries), computed once, in slices of nn.tile_rows(model.M).
    square_error(p, ids) overwrites p with (p - s)**2, s the ids' entries,
    and returns it.

    The buffers are one block, reused by every batch: freeing a block above
    glibc's mmap threshold raises that threshold to its size and the heap
    trim threshold to twice that, so later calls' blocks and temporaries
    come from a heap that is not handed back to the kernel and faulted in
    again. Separate buffers cost a thousand page faults or more a call.
    """
    M, n = model.M, model.n
    tile = nn.tile_rows(M)
    table = np.concatenate([model.transmit(codebook.entries[i:i + tile])
                            for i in range(0, len(codebook), tile)])
    r = min(rows, tile)
    block = np.empty(r * (n + M) + nn.tile_work(r, M, n))
    y, out = block[:r * n].reshape(r, n), block[r * n:r * (n + M)].reshape(r, M)
    # receive's scratch; the gathered symbols are spent once the noise is
    # added, so they take its front
    scratch = block[r * (n + M):]
    x = scratch[:r * n].reshape(r, n)
    # each message's support elements as flat indices into p
    support = np.empty((r, codebook.m), dtype=np.int64)
    offsets = np.arange(0, r * M, M)[:, None]

    def receive(ids, rng):
        k = len(ids)
        # ids are in range; mode="raise" would take the rows through a copy
        xt = np.take(table, ids, axis=0, out=x[:k], mode="clip")
        return model.receive(awgn(xt, sigma2, rng, out=y[:k]), out=out[:k], scratch=scratch)

    def square_error(p, ids):
        # s is 1/m on each message's support and 0 elsewhere; each support
        # element is one flat index, touched once
        k = len(ids)
        at = np.take(codebook.supports, ids, axis=0, out=support[:k], mode="clip")
        at += offsets[:k]
        np.subtract.at(p.reshape(-1), at, 1.0 / codebook.m)
        return np.square(p, out=p)
    return receive, square_error


def chunk_sizes(total: int, name: str, chunk: int):
    """The sizes of the chunks a Monte Carlo loop over `total` draws works
    in: `chunk` each (a row tile), then the remainder. A total below 1 is
    refused by name, before the first chunk is drawn."""
    if total < 1:
        raise DomainError(f"{name} must be >= 1, got {total}")
    return (min(chunk, total - start) for start in range(0, total, chunk))


def wald_ci95(errors: int, trials: int) -> float:
    """Half-width of the 95% normal-approximation interval for a proportion."""
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    p = errors / trials
    return Z95 * np.sqrt(p * (1.0 - p) / trials)


@dataclass
class MetricRecord:
    """One evaluated operating point; the fields are the evaluate CSV's
    columns, in order."""

    scheme: str
    snr_kind: str
    snr_db: float
    blocks: int
    block_errors: int
    bit_errors: int
    bler: float
    bler_ci95: float
    ber: float
    ber_ci95: float
    mse: float
    low_confidence: bool

    def as_dict(self) -> dict:
        return asdict(self)


EVALUATE_COLUMNS = tuple(f.name for f in fields(MetricRecord))
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
    The blocks go in chunks of nn.tile_rows(M), each drawn, received,
    decoded and squared whole (tile_receiver).
    """
    sizes = chunk_sizes(blocks, "blocks", nn.tile_rows(model.M))
    if codebook is None:
        codebook = model.codebook
    if scheme is None:
        scheme = "onehot" if codebook.m == 1 else "gdr"
    receive, square_error = tile_receiver(model, codebook, spec.sigma2, blocks)

    block_errors = bit_errors = 0
    mse_sum = 0.0
    for b in sizes:
        ids = rng.integers(0, len(codebook), size=b)
        p = receive(ids, rng)
        ids_hat = decode_batch(p, codebook)
        block_errors += int(np.count_nonzero(ids_hat != ids))
        bit_errors += int(gray_bit_errors(ids, ids_hat).sum())
        mse_sum += float(np.sum(square_error(p, ids)))

    bits = blocks * codebook.bits_per_message
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


@contextmanager
def atomic_write(path):
    """Open path for writing text through a temp file beside it, which
    replaces path (os.replace) only when the block completes; a write that
    fails part-way leaves any earlier file at path as it was.

    A symlink is written through: the temp file goes beside the file it
    names. The temp file is flushed to disk before the replace, so a crash
    of the system leaves the old file or the new one. The new file has a
    new file's permissions, not the old file's, and path must name a
    regular file or nothing yet (not, say, /dev/stdout).
    """
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# read_csv splits the file into lines at these, and a row at commas
_LINE_BREAKS = "\n\r"


def _field(name: str, value, refused: str) -> str:
    """format_value(value), refused by name if it holds a `refused` character."""
    text = format_value(value)
    if any(ch in text for ch in refused):
        raise ConfigError(f"{name} {text!r} holds a comma or a line break; "
                          f"the CSV cannot keep it in one field")
    return text


def write_csv(path, columns, rows, config_echo: dict | None = None) -> None:
    """Comma-separated table with a '#'-prefixed config echo block.

    Output depends only on the arguments (no timestamps, no environment),
    so identical runs produce byte-identical files. A field that read_csv
    would split raises ConfigError before anything is written.
    """
    echo = config_echo or {}
    lines = [f"# {key} = {_field(f'config value {key}', echo[key], _LINE_BREAKS)}"
             for key in sorted(echo)]
    lines.append(",".join(columns))
    for row in rows:
        if not isinstance(row, dict):
            row = row.as_dict()
        lines.append(",".join(_field(f"column {c}", row.get(c), "," + _LINE_BREAKS)
                              for c in columns))
    with atomic_write(path) as fh:
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
