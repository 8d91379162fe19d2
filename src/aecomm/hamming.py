"""BPSK + Hamming(7,4) reference chain.

Classical benchmark at the autoencoder's information rate: four message
bits per seven channel uses. Provides syndrome (hard-decision) decoding
and exhaustive soft maximum-likelihood decoding over the 16 codewords.

The Monte Carlo driver works on message values 0..15 instead of bit rows:
it modulates and decodes through small tables built once from the public
encoder, modulator and decoders, which stay the one definition of the code.
"""

from __future__ import annotations

import numpy as np

from .channel import sigma2_from_ebn0, spawn_rng
from .errors import DomainError, ShapeError
from .metrics import CHUNK_BLOCKS, wald_ci95

K_BITS = 4
N_BITS = 7
RATE = K_BITS / N_BITS

# systematic [I | P]; the 7 columns of H below are nonzero and distinct,
# which is the single-error-correcting condition
_P = np.array([
    [1, 1, 0],
    [1, 0, 1],
    [0, 1, 1],
    [1, 1, 1],
], dtype=np.int64)

GENERATOR = np.hstack([np.eye(K_BITS, dtype=np.int64), _P])
PARITY_CHECK = np.hstack([_P.T, np.eye(N_BITS - K_BITS, dtype=np.int64)])


def _bits(values, width: int) -> np.ndarray:
    """Rows of the MSB-first bits of each value."""
    return (np.asarray(values)[:, None] >> np.arange(width - 1, -1, -1)) & 1


# all 16 codewords, indexed by the integer value of their message bits
_MESSAGES = _bits(np.arange(16, dtype=np.int64), K_BITS)
CODEWORDS = (_MESSAGES @ GENERATOR) % 2
# MSB-first place values: rows of bits @ _PLACES[-width:] packs them to a value
_PLACES = (1 << np.arange(N_BITS - 1, -1, -1)).astype(np.uint8)

# syndrome integer (MSB-first) -> flipped bit position, -1 for no error
_SYNDROME_WEIGHTS = _PLACES[-(N_BITS - K_BITS):]
SYNDROME_TABLE = np.full(8, -1, dtype=np.int64)
for _pos in range(N_BITS):
    SYNDROME_TABLE[int(PARITY_CHECK[:, _pos] @ _SYNDROME_WEIGHTS)] = _pos

assert np.all((GENERATOR @ PARITY_CHECK.T) % 2 == 0)


def _as_bit_batch(bits, width: int) -> tuple[np.ndarray, bool]:
    arr = np.asarray(bits, dtype=np.int64)
    was_1d = arr.ndim == 1
    if was_1d:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ShapeError(f"expected rows of {width} bits, got shape {np.asarray(bits).shape}")
    return arr, was_1d


def hamming_encode(bits4):
    """Message bits -> systematic codeword (first four bits are the message)."""
    msg, was_1d = _as_bit_batch(bits4, K_BITS)
    code = (msg @ GENERATOR) % 2
    return code[0] if was_1d else code


def bpsk_modulate(bits) -> np.ndarray:
    """0 -> +1, 1 -> -1."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


def bpsk_demod_hard(y) -> np.ndarray:
    """Sign slicer; an exact zero resolves to bit 0."""
    return (np.asarray(y, dtype=np.float64) < 0).astype(np.int64)


def syndrome(bits7):
    code, was_1d = _as_bit_batch(bits7, N_BITS)
    s = (code @ PARITY_CHECK.T) % 2
    return s[0] if was_1d else s


def hamming_decode_hd(bits7):
    """Syndrome decoding: corrects any single flipped bit, returns the message."""
    code, was_1d = _as_bit_batch(bits7, N_BITS)
    s_int = ((code @ PARITY_CHECK.T) % 2) @ _SYNDROME_WEIGHTS
    corrected = code.copy()
    err_pos = SYNDROME_TABLE[s_int]
    rows = np.nonzero(err_pos >= 0)[0]
    corrected[rows, err_pos[rows]] ^= 1
    msg = corrected[:, :K_BITS]
    return msg[0] if was_1d else msg


def hamming_decode_ml(y):
    """Exhaustive soft decoding: nearest BPSK codeword image in Euclidean
    distance, ties toward the lower codeword index."""
    yb = np.asarray(y, dtype=np.float64)
    was_1d = yb.ndim == 1
    if was_1d:
        yb = yb[None, :]
    if yb.shape[1] != N_BITS:
        raise ShapeError(f"expected rows of {N_BITS} soft values, got shape {np.asarray(y).shape}")
    # argmin ||y - c||^2 = argmax y.c since all images have equal norm
    best = np.argmax(yb @ _IMAGES.T, axis=1)
    msg = _MESSAGES[best]
    return msg[0] if was_1d else msg


# the driver's tables, indexed by message value (the BPSK images) or by the
# value of a hard-decided 7-bit word (the syndrome decoder's message value)
_IMAGES = bpsk_modulate(CODEWORDS)
_UNCODED = bpsk_modulate(_MESSAGES)
_HD_TABLE = hamming_decode_hd(_bits(np.arange(1 << N_BITS), N_BITS)) @ _PLACES[-K_BITS:]


def _decoded_values(scheme: str, y: np.ndarray) -> np.ndarray:
    """The message value each received row decodes to: hamming_decode_ml's
    product and tie rule, or the sign slicer packed, then looked up in the
    syndrome decoder's table for hamming_hd."""
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
    sigma2 = sigma2_from_ebn0(rate, ebn0_db)
    sigma = np.sqrt(sigma2)
    images = _UNCODED if scheme == "uncoded_bpsk" else _IMAGES

    bit_errors = 0
    block_errors = 0
    done = 0
    while done < blocks:
        b = min(blocks - done, CHUNK_BLOCKS)
        done += b
        sent = rng.integers(0, 2, size=(b, K_BITS)) @ _PLACES[-K_BITS:]
        # sigma * noise + image: the sum commutes, so the bits are those of
        # image + sigma * noise
        y = rng.standard_normal((b, images.shape[1]))
        y *= sigma
        y += np.take(images, sent, axis=0)
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
