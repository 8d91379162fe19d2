"""Message codebooks: one-hot vectors and the multi-support generalization.

A codebook maps message ids to length-M probability vectors with exactly
m non-zero entries, each 1/m. One-hot is the m=1 case. Only a power-of-two
number of entries is kept so that every message carries a whole number of
bits; support sets are chosen lexicographically by default (seeded-random
selection is available but ids then depend on the seed).
"""

from __future__ import annotations

import itertools
import warnings
from math import comb, log2

import numpy as np

from .errors import ConfigError, DomainError, ShapeError

PAPER_VECTOR_SIZES = (4, 8, 16, 32, 64)

# Refuse codebooks that would not fit in memory.
MAX_ENTRIES = 1 << 20
# decode looks support masks up in a direct 2^M-entry int64 table when it
# fits in this many bytes (M <= 16), else by binary search in the sorted masks
MASK_TABLE_BYTES = 1 << 19


def _check_vector_size(M: int) -> None:
    """Refuse a vector size beyond the 64 bits of a uint64 support mask
    (the decode lookup), before anything of that size is allocated."""
    if M > 64:
        raise DomainError(f"vector size {M} exceeds the 64 supported by decode lookup")


class Codebook:
    """Immutable set of transmit vectors with decode lookup tables.

    Attributes:
        M: vector length
        m: non-zero entries per vector
        bits_per_message: log2 of the entry count
        entries: (count, M) float array, rows sum to 1
        supports: (count, m) int array of non-zero index sets, each row sorted
    """

    def __init__(self, M: int, m: int, supports, selection: str = "lexicographic",
                 selection_seed=None):
        _check_vector_size(M)
        supports = np.asarray(supports, dtype=np.int64)
        if supports.ndim != 2 or supports.shape[1] != m:
            raise ShapeError(f"supports must be (count, {m}), got {supports.shape}")
        count = supports.shape[0]
        bits = int(log2(count))
        if 1 << bits != count:
            raise DomainError(f"entry count {count} is not a power of two")
        self.M = int(M)
        self.m = int(m)
        self.bits_per_message = bits
        self.selection = selection
        self.selection_seed = selection_seed
        self.supports = supports
        entries = np.zeros((count, M))
        rows = np.repeat(np.arange(count), m)
        entries[rows, supports.ravel()] = 1.0 / m
        self.entries = entries
        # uint64 bitmask per support set, for the decode lookup
        masks = np.bitwise_or.reduce(
            np.left_shift(np.uint64(1), supports.astype(np.uint64)), axis=1
        )
        order = np.argsort(masks)
        self._masks_sorted = masks[order]
        self._ids_by_mask = order.astype(np.int64)
        if np.any(self._masks_sorted[1:] == self._masks_sorted[:-1]):
            raise DomainError("codebook supports are not pairwise distinct")
        # m=1 with ids in ascending support order decodes by argmax and
        # needs no mask table; other codebooks pack each row's mask into the
        # narrowest of 8/16/32/64 bits
        self._argmax_decode = m == 1 and bool(np.all(np.diff(supports[:, 0]) > 0))
        self._mask_dtype = np.dtype(f"<u{max(8, 1 << (M - 1).bit_length()) // 8}")
        self._id_by_mask = None
        if not self._argmax_decode and (8 << M) <= MASK_TABLE_BYTES:
            self._id_by_mask = np.full(1 << M, -1, dtype=np.int64)
            self._id_by_mask[masks] = np.arange(count)

    def __len__(self) -> int:
        return self.entries.shape[0]

    def manifest(self) -> dict:
        """Text-serializable description sufficient to rebuild the codebook."""
        return {
            "M": self.M,
            "m": self.m,
            "selection": self.selection,
            "selection_seed": self.selection_seed,
            "bits_per_message": self.bits_per_message,
        }


def build_onehot(M: int) -> Codebook:
    """Codebook of the M one-hot vectors; entry i has its 1 at index i."""
    if M < 2:
        raise DomainError(f"one-hot vector size must be >= 2, got {M}")
    if 1 << int(log2(M)) != M:
        raise DomainError(f"one-hot vector size must be a power of two, got {M}")
    _check_vector_size(M)
    if M not in PAPER_VECTOR_SIZES:
        warnings.warn(f"vector size M={M} is outside the validated range {PAPER_VECTOR_SIZES}")
    supports = np.arange(M, dtype=np.int64)[:, None]
    return Codebook(M, 1, supports)


def build_gdr(M: int, m: int, selection: str = "lexicographic",
              selection_seed=None) -> Codebook:
    """Codebook of m-of-M support vectors with entries 1/m.

    Keeps 2^floor(log2 C(M,m)) of the C(M,m) possible support sets. The
    default takes the lexicographically first ones, which makes m=1
    coincide with build_onehot; selection="random" draws them with the
    given seed instead (ids follow lexicographic order of the drawn sets).
    A random selection needs a seed: without one the codebook could not be
    rebuilt from a checkpoint.
    """
    _check_vector_size(M)
    if m < 1 or m > M // 2:
        raise DomainError(f"order m={m} outside [1, {M // 2}] for M={M}")
    total = comb(M, m)
    count = 1 << int(log2(total))
    if count > MAX_ENTRIES:
        raise DomainError(f"codebook with {count} entries exceeds the {MAX_ENTRIES} cap")
    if selection == "lexicographic":
        supports = list(itertools.islice(itertools.combinations(range(M), m), count))
    elif selection == "random":
        if selection_seed is None:
            raise ConfigError("selection='random' needs a selection_seed; without one "
                              "the codebook cannot be rebuilt from a checkpoint")
        rng = np.random.default_rng(selection_seed)
        picked: set[int] = set()
        while len(picked) < count:
            picked.update(int(r) for r in rng.integers(0, total, size=count - len(picked)))
        supports = sorted(_unrank_combination(r, M, m) for r in sorted(picked))
    else:
        raise DomainError(f"unknown selection mode {selection!r}")
    return Codebook(M, m, np.array(supports, dtype=np.int64),
                    selection=selection, selection_seed=selection_seed)


def _unrank_combination(rank: int, M: int, m: int) -> tuple[int, ...]:
    """The rank-th m-subset of range(M) in lexicographic order."""
    out = []
    x = 0
    for k in range(m, 0, -1):
        while comb(M - 1 - x, k - 1) <= rank:
            rank -= comb(M - 1 - x, k - 1)
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def data_rate(codebook: Codebook, n: int) -> float:
    """Data rate in bits per channel use for n channel uses per block."""
    if n < 1:
        raise DomainError(f"channel uses n must be >= 1, got {n}")
    return codebook.bits_per_message / n


def decode_batch(p, codebook: Codebook) -> np.ndarray:
    """Decode received probability vectors to message ids.

    Takes the m highest-probability indices of each row, where NaN ranks
    above every number and equal values or NaNs go toward the lower index.
    If that support set is a codebook entry, returns its id; otherwise
    falls back to the entry whose support carries the largest probability
    mass (ties toward the lower message id; a NaN anywhere in the row makes
    every mass NaN, and the first entry wins).

    For m=1 with ids in ascending support order (every codebook the
    package builds) this is np.argmax over the kept columns, which ignores
    a NaN in a column no entry keeps. Otherwise a row's m largest values
    are those at or above its m-th largest; only rows with a tie at that
    cut, or a NaN, take the sort that orders equal values by index. The
    support masks are looked up in the codebook's direct table when it has
    one, else by binary search.
    """
    pb = np.atleast_2d(np.asarray(p, dtype=np.float64))
    if pb.ndim != 2 or pb.shape[1] != codebook.M:
        raise ShapeError(f"expected (rows, {codebook.M}) probabilities, got shape {pb.shape}")
    m = codebook.m
    if codebook._argmax_decode:
        cols = codebook.supports[:, 0]
        return np.argmax(pb if len(cols) == codebook.M else pb[:, cols], axis=1)
    # a tie across the cut (+-0 included) needs the index order; np.sort
    # puts NaN last
    srt = np.sort(pb, axis=1)
    cut = srt[:, -m]
    slow = np.isnan(srt[:, -1])
    if m < codebook.M:
        slow |= srt[:, -m - 1] == cut
    # bit j of the support mask is column j: every row padded to the mask
    # width, all rows packed in one call, little-endian bits and bytes
    dtype = codebook._mask_dtype
    above = np.zeros((pb.shape[0], 8 * dtype.itemsize), dtype=bool)
    np.greater_equal(pb, cut[:, None], out=above[:, :codebook.M])
    masks = np.packbits(above, bitorder="little").view(dtype)
    if slow.any():
        # NaN first, then high to low; stable, so the lower index goes first
        q = pb[slow]
        top = np.lexsort((-q, ~np.isnan(q)), axis=1)[:, :m]
        masks[slow] = np.bitwise_or.reduce(
            np.left_shift(dtype.type(1), top.astype(dtype)), axis=1)
    if codebook._id_by_mask is not None:
        ids = codebook._id_by_mask[masks]
    else:
        pos = np.minimum(np.searchsorted(codebook._masks_sorted, masks), len(codebook) - 1)
        ids = np.where(codebook._masks_sorted[pos] == masks, codebook._ids_by_mask[pos], -1)
    miss = ids < 0
    if miss.any():
        mass = pb[miss] @ (codebook.entries > 0).T.astype(np.float64)
        ids[miss] = np.argmax(mass, axis=1)
    return ids


def subset_codebook(codebook: Codebook, indices) -> tuple[Codebook, np.ndarray]:
    """Restrict a codebook to the given entry indices.

    Returns the restricted codebook and the index array mapping its
    message ids back to ids in the parent codebook.
    """
    indices = np.asarray(sorted(int(i) for i in indices), dtype=np.int64)
    sub = Codebook(codebook.M, codebook.m, codebook.supports[indices],
                   selection=f"subset-of-{codebook.selection}",
                   selection_seed=codebook.selection_seed)
    return sub, indices


def gray_bit_errors(ids_a, ids_b) -> np.ndarray:
    """Per-pair count of differing bits under gray-coded message labels:
    the gray codes of a and b differ where the gray code of a ^ b is set,
    since the shift distributes over xor."""
    diff = np.bitwise_xor(np.asarray(ids_a, dtype=np.uint64), np.asarray(ids_b, dtype=np.uint64))
    diff ^= diff >> np.uint64(1)
    return np.bitwise_count(diff).astype(np.int64)
