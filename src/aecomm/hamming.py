"""BPSK + Hamming(7,4) reference chain.

Classical benchmark at the autoencoder's information rate: four message
bits per seven channel uses. Provides syndrome (hard-decision) decoding
and exhaustive soft maximum-likelihood decoding over the 16 codewords.
"""

from __future__ import annotations

import numpy as np

from .channel import sigma2_from_ebn0
from .errors import DomainError, ShapeError
from .metrics import CHUNK_BLOCKS

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

# all 16 codewords, indexed by the integer value of their message bits
_MESSAGES = ((np.arange(16)[:, None] >> np.arange(K_BITS - 1, -1, -1)) & 1).astype(np.int64)
CODEWORDS = (_MESSAGES @ GENERATOR) % 2

# syndrome integer (MSB-first) -> flipped bit position, -1 for no error
_SYNDROME_WEIGHTS = 1 << np.arange(N_BITS - K_BITS - 1, -1, -1)
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
    images = bpsk_modulate(CODEWORDS)
    # argmin ||y - c||^2 = argmax y.c since all images have equal norm
    best = np.argmax(yb @ images.T, axis=1)
    msg = _MESSAGES[best]
    return msg[0] if was_1d else msg


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

    bit_errors = 0
    block_errors = 0
    done = 0
    while done < blocks:
        b = min(blocks - done, CHUNK_BLOCKS)
        done += b
        msg = rng.integers(0, 2, size=(b, K_BITS))
        if scheme == "uncoded_bpsk":
            y = bpsk_modulate(msg) + sigma * rng.standard_normal((b, K_BITS))
            decoded = bpsk_demod_hard(y)
        else:
            y = bpsk_modulate(hamming_encode(msg)) + sigma * rng.standard_normal((b, N_BITS))
            if scheme == "hamming_hd":
                decoded = hamming_decode_hd(bpsk_demod_hard(y))
            else:
                decoded = hamming_decode_ml(y)
        wrong = decoded != msg
        bit_errors += int(wrong.sum())
        block_errors += int(wrong.any(axis=1).sum())
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
