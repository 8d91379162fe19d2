"""BPSK + Hamming(7,4) reference chain.

Classical benchmark at the autoencoder's information rate: four message
bits per seven channel uses, decoded by hard decision or by exhaustive
soft maximum likelihood over the 16 codewords.

The code is defined by tables indexed by MSB-first integer values: the
codeword of each message value, and the message value of each 7-bit
word's nearest codeword. Hamming(7,4) is a perfect code, so every word
lies within one flip of exactly one codeword, and the nearest-codeword
table is the syndrome decoder. The encoder and decoders on bit rows and
the Monte Carlo loop on message values read the same tables.
"""

from __future__ import annotations

import numpy as np

from . import nn
from .channel import awgn, sigma2_from_ebn0, spawn_rng
from .errors import DomainError, ShapeError
from .metrics import chunk_sizes, wald_ci95

K_BITS = 4
N_BITS = 7
RATE = K_BITS / N_BITS

# systematic [I | P]: the first four code bits are the message
GENERATOR = np.hstack([np.eye(K_BITS, dtype=np.int64), np.array([
    [1, 1, 0],
    [1, 0, 1],
    [0, 1, 1],
    [1, 1, 1],
], dtype=np.int64)])


def _bits(values, width: int) -> np.ndarray:
    """Rows of the MSB-first bits of each value."""
    return (np.asarray(values)[:, None] >> np.arange(width - 1, -1, -1)) & 1


# all 16 messages and their codewords, indexed by the message value
_MESSAGES = _bits(np.arange(16, dtype=np.int64), K_BITS)
CODEWORDS = (_MESSAGES @ GENERATOR) % 2
# MSB-first place values: rows of bits @ _PLACES[-width:] packs them to a value
_PLACES = (1 << np.arange(N_BITS - 1, -1, -1)).astype(np.uint8)

# the message value of each 7-bit word's nearest codeword in Hamming distance
_HD_TABLE = np.argmin(np.bitwise_count(np.arange(1 << N_BITS)[:, None]
                                       ^ (CODEWORDS @ _PLACES)), axis=1)
# BPSK images (bit 0 -> +1, bit 1 -> -1) of each message value's codeword,
# and of its four bits sent uncoded
_IMAGES = 1.0 - 2.0 * CODEWORDS
_UNCODED = 1.0 - 2.0 * _MESSAGES


def _rows(x, width: int) -> tuple[np.ndarray, bool]:
    """x as a 2-D batch of rows of `width`, and whether x was one row."""
    arr = np.asarray(x)
    if arr.ndim not in (1, 2) or arr.shape[-1] != width:
        raise ShapeError(f"expected rows of {width} values, got shape {arr.shape}")
    return arr.reshape(-1, width), arr.ndim == 1


def _bit_values(bits, width: int) -> tuple[np.ndarray, bool]:
    """Rows of 0/1 bits -> their MSB-first values, and whether one row was given."""
    rows, single = _rows(bits, width)
    bad = rows[(rows != 0) & (rows != 1)]
    if bad.size:
        raise DomainError(f"bits must be 0 or 1, got {bad[0].item()!r}")
    return rows.astype(np.int64) @ _PLACES[-width:], single


def hamming_encode(bits4):
    """Message bits -> systematic codeword (first four bits are the message)."""
    values, single = _bit_values(bits4, K_BITS)
    code = CODEWORDS[values]
    return code[0] if single else code


def hamming_decode_hd(bits7):
    """Hard-decision decoding to the nearest codeword: corrects any single
    flipped bit, returns the message."""
    values, single = _bit_values(bits7, N_BITS)
    msg = _MESSAGES[_HD_TABLE[values]]
    return msg[0] if single else msg


def hamming_decode_ml(y):
    """Exhaustive soft decoding: nearest BPSK codeword image in Euclidean
    distance, ties toward the lower codeword index."""
    yb, single = _rows(np.asarray(y, dtype=np.float64), N_BITS)
    msg = _MESSAGES[_decoded_values("hamming_ml", yb)]
    return msg[0] if single else msg


def _decoded_values(scheme: str, y: np.ndarray) -> np.ndarray:
    """The message value each received row decodes to: the codeword image
    with the largest correlation for hamming_ml (the nearest, since all
    images have equal norm; ties toward the lower value), or the sign slicer
    (an exact zero is bit 0) packed, then looked up in _HD_TABLE for
    hamming_hd."""
    if scheme == "hamming_ml":
        return np.argmax(y @ _IMAGES.T, axis=1)
    hard = (y < 0).view(np.uint8) @ _PLACES[-y.shape[1]:]
    return np.take(_HD_TABLE, hard) if scheme == "hamming_hd" else hard


def baseline_block_errors(scheme: str, ebn0_db: float, blocks: int, rng) -> dict:
    """Monte Carlo bit/block error counts for one scheme at one point.

    Schemes: hamming_hd and hamming_ml use rate 4/7 noise scaling; uncoded_bpsk
    sends the four bits raw at rate 1. Counts are over `blocks` four-bit blocks.
    """
    if scheme in ("hamming_hd", "hamming_ml"):
        rate = RATE
    elif scheme == "uncoded_bpsk":
        rate = 1.0
    else:
        raise DomainError(f"unknown baseline scheme {scheme!r}")
    tile = nn.tile_rows(len(CODEWORDS))  # the widest rows: hamming_ml's 16 correlations
    sizes = chunk_sizes(blocks, "blocks", tile)
    sigma2 = sigma2_from_ebn0(rate, ebn0_db)
    images = _UNCODED if scheme == "uncoded_bpsk" else _IMAGES

    # one buffer for every chunk's received rows: fresh rows cost page
    # faults, and rows kept while the next chunk's are drawn cost memory
    received = np.empty((min(blocks, tile), images.shape[1]))
    bit_errors = 0
    block_errors = 0
    for b in sizes:
        sent = rng.integers(0, 2, size=(b, K_BITS)) @ _PLACES[-K_BITS:]
        y = awgn(np.take(images, sent, axis=0), sigma2, rng, out=received[:b])
        wrong = _decoded_values(scheme, y) ^ sent
        bit_errors += int(np.bitwise_count(wrong).sum())
        block_errors += int(np.count_nonzero(wrong))
    return {
        "scheme": scheme,
        "ebn0_db": float(ebn0_db),
        "blocks": blocks,
        "bits": blocks * K_BITS,
        "bit_errors": bit_errors,
        "block_errors": block_errors,
        "ber": bit_errors / (blocks * K_BITS),
        "bler": block_errors / blocks,
    }


def baseline_sweep(scheme: str, points, blocks: int, key) -> list[dict]:
    """BER of one baseline scheme over an Eb/N0 axis; point i draws from
    spawn_rng(*key, i). Rows follow metrics.BASELINE_COLUMNS."""
    rows = []
    for i, ebn0_db in enumerate(points):
        c = baseline_block_errors(scheme, ebn0_db, blocks, spawn_rng(*key, i))
        rows.append({"scheme": scheme, "ebn0_db": ebn0_db, "ber": c["ber"],
                     "ber_ci95": wald_ci95(c["bit_errors"], c["bits"]),
                     "blocks_simulated": c["blocks"]})
    return rows
