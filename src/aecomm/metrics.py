"""Monte Carlo error-rate estimation and CSV emission.

Estimates are chunked so sample counts in the millions stay in bounded
memory, and every output file is self-describing: a '#'-comment header
carries the full config echo so a rerun can be checked byte for byte.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from itertools import count as counter

import numpy as np

from . import nn
from .channel import ChannelSpec, awgn, spawn_rng
from .codebooks import Codebook, data_rate, decode_batch, gray_bit_errors
from .errors import DomainError

# Wald interval; flag estimates backed by fewer error events than this
Z95 = 1.96
MIN_ERROR_EVENTS = 100
CHUNK_BLOCKS = 1 << 16
# np.sum adds a run of at most this many elements in one fixed loop (numpy's
# pairwise summation); longer runs are split in two
PAIRWISE_LEAF = 128


def receiver_tiles(model, rows: int):
    """Passes of up to `rows` rows through the channel and model's receiver,
    one nn.row_tiles tile at a time: stream(table, index, sigma2, rng)
    yields (t, p, spare) per tile of awgn(table[index]) -> receive, its row
    slice, softmax output and a free array of that shape, views into
    buffers that the next tile overwrites. Drawn tile by tile in row order,
    the noise is the Generator stream of one draw for the whole pass.

    The buffers are one block, reused by every pass: freeing a block above
    glibc's mmap threshold raises that threshold to its size and the heap
    trim threshold to twice that, so later calls' blocks and temporaries
    come from a heap that is not handed back to the kernel and faulted in
    again. Separate buffers cost a thousand page faults or more a call.
    """
    M, n = model.M, model.n
    r = min(rows, nn.tile_rows(M))
    block = np.empty(r * (2 * n + 2 * M))
    x, y = block[:r * n].reshape(r, n), block[r * n:2 * r * n].reshape(r, n)
    hidden, out = block[2 * r * n:].reshape(2, r, M)

    def stream(table, index, sigma2, rng):
        for t in nn.row_tiles(len(index), M):
            k = t.stop - t.start
            # index is in range; mode="raise" would take the rows through a copy
            xt = np.take(table, index[t], axis=0, out=x[:k], mode="clip")
            p = model.receive(awgn(xt, sigma2, rng, out=y[:k]), out=out[:k], scratch=hidden)
            yield t, p, hidden[:k]
    return stream


@lru_cache(maxsize=16)
def _sum_plan(rows: int, cols: int) -> tuple:
    """TileSum's plan: per tile, the (slot, lo, hi) runs it sums (lo < 0
    reaches into the previous tile); the (slot, left, right) joins; the slot
    count, the last slot being the total."""
    starts = [t.start * cols for t in nn.row_tiles(rows, cols)] + [rows * cols]
    pieces = [[] for _ in starts[1:]]
    joins = []
    slots = counter()

    def walk(lo, hi):
        k = bisect_right(starts, lo) - 1
        if hi <= starts[k + 1] or hi - lo <= PAIRWISE_LEAF:
            k += hi > starts[k + 1]  # a straddling leaf waits for its last tile
            pieces[k].append((next(slots), lo - starts[k], hi - starts[k]))
            return pieces[k][-1][0]
        half = (hi - lo) // 2
        mid = lo + half - half % 8
        left, right = walk(lo, mid), walk(mid, hi)
        joins.append((next(slots), left, right))
        return joins[-1][0]

    walk(0, starts[-1])
    return tuple(map(tuple, pieces)), tuple(joins), next(slots)


class TileSum:
    """np.sum of a C-contiguous (rows, cols) float64 array, bit for bit, from
    its nn.row_tiles tiles passed to add() in order.

    np.sum adds the flat elements by numpy's pairwise recursion: a run of
    more than PAIRWISE_LEAF elements splits at n // 2 rounded down to a
    multiple of 8; a shorter run is a leaf, summed by one fixed loop. So
    each run within one tile is summed there, a leaf across two tiles from
    the last tile's tail and this one's head, and total() adds the sums as
    the recursion does. In a full chunk of a power-of-two width each tile
    is one run.
    """

    def __init__(self, rows: int, cols: int):
        pieces, self._joins, slots = _sum_plan(rows, cols)
        self._tiles = iter(pieces)
        self._sums = [0.0] * slots
        self._tail = None

    def add(self, tile: np.ndarray) -> None:
        flat = tile.reshape(-1)
        for slot, lo, hi in next(self._tiles):
            run = flat[lo:hi] if lo >= 0 else np.concatenate((self._tail[lo:], flat[:hi]))
            self._sums[slot] = np.add.reduce(run)
        self._tail = flat[-PAIRWISE_LEAF:].copy()

    def total(self) -> float:
        sums = self._sums
        for slot, left, right in self._joins:
            sums[slot] = sums[left] + sums[right]
        return float(sums[-1])


def chunk_sizes(total: int, name: str):
    """The sizes of the chunks a Monte Carlo loop over `total` draws works
    in: CHUNK_BLOCKS each, then the remainder. A total below 1 is refused
    by name, before the first chunk is drawn."""
    if total < 1:
        raise DomainError(f"{name} must be >= 1, got {total}")
    return (min(CHUNK_BLOCKS, total - start) for start in range(0, total, CHUNK_BLOCKS))


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
    The transmitter output depends only on the message id, so it is
    computed once per call for every entry, in chunks, and gathered per
    block. A chunk's ids are drawn at once, then its blocks go through the
    channel, receiver, decoder and squared error one receiver row tile at a
    time (receiver_tiles); TileSum adds the squared errors to np.sum's bits.
    """
    sizes = chunk_sizes(blocks, "blocks")
    if codebook is None:
        codebook = model.codebook
    if scheme is None:
        scheme = "onehot" if codebook.m == 1 else "gdr"
    k_bits = codebook.bits_per_message
    count = len(codebook)
    table = np.concatenate([model.transmit(codebook.entries[i:i + CHUNK_BLOCKS])
                            for i in range(0, count, CHUNK_BLOCKS)])
    stream = receiver_tiles(model, min(blocks, CHUNK_BLOCKS))
    # each block's support elements as flat indices into its tile's output
    r = min(blocks, nn.tile_rows(model.M))
    support = np.empty((r, codebook.m), dtype=np.int64)
    offsets = np.arange(0, r * model.M, model.M)[:, None]

    block_errors = 0
    bit_errors = 0
    mse_sum = 0.0
    for b in sizes:
        ids = rng.integers(0, count, size=b)
        chunk_sum = TileSum(b, model.M)
        for t, p, _ in stream(table, ids, spec.sigma2, rng):
            ids_hat = decode_batch(p, codebook)
            block_errors += int(np.count_nonzero(ids_hat != ids[t]))
            bit_errors += int(gray_bit_errors(ids[t], ids_hat).sum())
            # p - s in place: s is 1/m on each block's support and 0
            # elsewhere; each support element is one flat index, touched once
            at = np.take(codebook.supports, ids[t], axis=0, out=support[:len(p)], mode="clip")
            at += offsets[:len(p)]
            np.subtract.at(p.reshape(-1), at, 1.0 / codebook.m)
            np.square(p, out=p)
            chunk_sum.add(p)
        mse_sum += chunk_sum.total()

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
