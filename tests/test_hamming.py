import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aecomm import hamming
from aecomm.channel import sigma2_from_ebn0, spawn_rng
from aecomm.errors import DomainError, ShapeError
from aecomm.hamming import (
    CODEWORDS,
    GENERATOR,
    K_BITS,
    N_BITS,
    RATE,
    baseline_block_errors,
    baseline_sweep,
    hamming_decode_hd,
    hamming_decode_ml,
    hamming_encode,
)
from aecomm.metrics import BASELINE_COLUMNS, CHUNK_BLOCKS, wald_ci95

# row v holds the MSB-first bits of v
ALL_MESSAGES = np.array(list(itertools.product((0, 1), repeat=K_BITS)), dtype=np.int64)
ALL_WORDS = np.array(list(itertools.product((0, 1), repeat=N_BITS)), dtype=np.int64)

# The bit-row references the package's tables are checked against: the
# generator matmul, the parity-check matrix [P^T | I] and its syndrome
# decoder, BPSK and its sign slicer, and soft decoding by an argmax over
# the codeword images.
PARITY_CHECK = np.hstack([GENERATOR[:, K_BITS:].T, np.eye(N_BITS - K_BITS, dtype=np.int64)])


def _encode(msg):
    return (np.asarray(msg) @ GENERATOR) % 2


def _syndrome(words):
    return (np.asarray(words) @ PARITY_CHECK.T) % 2


def _syndrome_decode(words):
    """Flip the bit whose parity-check column equals the syndrome (none for
    a zero syndrome); the message is the first four bits."""
    corrected = np.array(words, dtype=np.int64)
    s = _syndrome(corrected)
    for pos in range(N_BITS):
        rows = np.all(s == PARITY_CHECK[:, pos], axis=1)
        corrected[rows, pos] ^= 1
    return corrected[:, :K_BITS]


def _bpsk(bits):
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


def _slice(y):
    """Sign slicer; an exact zero resolves to bit 0."""
    return (np.asarray(y) < 0).astype(np.int64)


def _ml_decode(y):
    """The message whose codeword image has the largest correlation with y
    (the nearest, all images having equal norm), ties to the lower message."""
    return ALL_MESSAGES[np.argmax(np.asarray(y) @ _bpsk(_encode(ALL_MESSAGES)).T, axis=1)]


def _values(bits):
    """Rows of MSB-first bits -> their integer values."""
    return np.asarray(bits) @ (1 << np.arange(np.shape(bits)[-1] - 1, -1, -1))


def test_generator_and_parity_check_are_orthogonal():
    assert GENERATOR.shape == (4, 7)
    assert PARITY_CHECK.shape == (3, 7)
    np.testing.assert_array_equal((GENERATOR @ PARITY_CHECK.T) % 2, 0)
    assert RATE == pytest.approx(4 / 7)


def test_code_is_systematic_with_min_distance_three():
    cw = hamming_encode(ALL_MESSAGES)
    np.testing.assert_array_equal(cw[:, :K_BITS], ALL_MESSAGES)
    assert len(np.unique(cw, axis=0)) == 16
    dist = np.abs(cw[:, None, :] - cw[None, :, :]).sum(axis=2)
    assert dist[dist > 0].min() == 3


def test_encode_hand_values():
    np.testing.assert_array_equal(hamming_encode(np.zeros(4, dtype=int)), np.zeros(7, dtype=int))
    np.testing.assert_array_equal(hamming_encode([1, 1, 1, 1]), [1, 1, 1, 1, 1, 1, 1])


def test_codewords_have_zero_syndrome():
    np.testing.assert_array_equal(_syndrome(CODEWORDS), 0)


def test_every_single_bit_error_is_corrected():
    for msg in ALL_MESSAGES:
        c = hamming_encode(msg)
        for pos in range(N_BITS):
            r = c.copy()
            r[pos] ^= 1
            np.testing.assert_array_equal(hamming_decode_hd(r), msg)


def test_double_bit_errors_always_decode_wrong():
    # the decoder moves the received word to the codeword one flip away,
    # which for a distance-3 code never recovers the sent message
    for msg in ALL_MESSAGES:
        c = hamming_encode(msg)
        for i, j in itertools.combinations(range(N_BITS), 2):
            r = c.copy()
            r[[i, j]] ^= 1
            decoded = hamming_decode_hd(r)
            assert not np.array_equal(decoded, msg)
            corrected = hamming_encode(decoded)
            assert int(np.abs(corrected - r).sum()) == 1


def test_bpsk_mapping():
    # bit 0 -> +1, bit 1 -> -1; the slicer resolves an exact zero of either
    # sign to bit 0
    np.testing.assert_array_equal(hamming._UNCODED[0b0110], [1.0, -1.0, -1.0, 1.0])
    np.testing.assert_array_equal(hamming._IMAGES[0], np.ones(N_BITS))
    y = np.array([[0.3, -0.3, 0.0, -0.0]])
    np.testing.assert_array_equal(hamming._decoded_values("uncoded_bpsk", y), [0b0100])


def test_ml_decodes_clean_and_scaled_images():
    images = _bpsk(CODEWORDS)
    msgs = CODEWORDS[:, :K_BITS]
    np.testing.assert_array_equal(hamming_decode_ml(images), msgs)
    np.testing.assert_array_equal(hamming_decode_ml(0.37 * images), msgs)


def test_ml_corrects_single_hard_errors_too():
    for msg in ALL_MESSAGES:
        c = hamming_encode(msg)
        for pos in range(N_BITS):
            r = c.copy()
            r[pos] ^= 1
            np.testing.assert_array_equal(hamming_decode_ml(_bpsk(r)), msg)


def test_ml_is_at_least_as_good_as_hd():
    rng = np.random.default_rng(5)
    for ebn0 in (0.0, 3.0, 6.0):
        ml = baseline_block_errors("hamming_ml", ebn0, 40_000, np.random.default_rng(17))
        hd = baseline_block_errors("hamming_hd", ebn0, 40_000, np.random.default_rng(17))
        # identical noise realizations, so the comparison is exact
        assert ml["block_errors"] <= hd["block_errors"]
        assert ml["bit_errors"] <= hd["bit_errors"]


def test_baseline_counter_relations():
    rec = baseline_block_errors("hamming_hd", 2.0, 30_000, np.random.default_rng(3))
    assert rec["bits"] == rec["blocks"] * K_BITS
    assert rec["block_errors"] <= rec["bit_errors"] <= K_BITS * rec["block_errors"]
    assert rec["ber"] == pytest.approx(rec["bit_errors"] / rec["bits"])
    assert rec["bler"] == pytest.approx(rec["block_errors"] / rec["blocks"])


def test_baseline_uncoded_matches_theory():
    # hard BPSK bit error rate is Q(sqrt(2 Eb/N0))
    from math import erfc, sqrt

    rec = baseline_block_errors("uncoded_bpsk", 4.0, 200_000, np.random.default_rng(8))
    q = 0.5 * erfc(sqrt(10 ** 0.4))
    assert rec["ber"] == pytest.approx(q, rel=0.05)


def test_baseline_is_seed_deterministic():
    a = baseline_block_errors("hamming_ml", 1.0, 5_000, np.random.default_rng(9))
    b = baseline_block_errors("hamming_ml", 1.0, 5_000, np.random.default_rng(9))
    assert a == b


def test_baseline_rejects_unknown_scheme():
    with pytest.raises(DomainError):
        baseline_block_errors("turbo", 0.0, 10, np.random.default_rng(0))


def test_encode_rejects_wrong_width():
    with pytest.raises(ShapeError):
        hamming_encode([0, 1, 0])
    with pytest.raises(ShapeError):
        hamming_decode_hd([0, 1, 0, 1])
    with pytest.raises(ShapeError):
        hamming_decode_ml(np.zeros((2, 4)))
    with pytest.raises(ShapeError):
        hamming_encode(np.zeros((2, 2, 4), dtype=int))


def test_bits_other_than_zero_or_one_are_refused():
    for bits in ([0, 1, 2, 0], [0, 1, -1, 0], [0.5, 0, 0, 1], [np.nan, 0, 0, 0]):
        with pytest.raises(DomainError, match="bits must be 0 or 1"):
            hamming_encode(bits)
    with pytest.raises(DomainError, match="got 3"):
        hamming_decode_hd([[0] * N_BITS, [1, 0, 3, 0, 1, 1, 0]])
    # 0/1 given as bools or floats are bits
    np.testing.assert_array_equal(hamming_encode([True, False, False, True]),
                                  hamming_encode([1.0, 0.0, 0.0, 1.0]))


@pytest.mark.parametrize("scheme", ["hamming_hd", "hamming_ml", "uncoded_bpsk"])
def test_baseline_sweep_point_i_is_the_direct_call_on_its_stream(scheme):
    points, key = [0.0, 3.0, 6.0], (8, 2)
    rows = baseline_sweep(scheme, points, 900, key)
    assert [list(r) for r in rows] == [list(BASELINE_COLUMNS)] * 3
    for i, ebn0_db in enumerate(points):
        c = baseline_block_errors(scheme, ebn0_db, 900, spawn_rng(*key, i))
        assert rows[i] == {"scheme": scheme, "ebn0_db": ebn0_db, "ber": c["ber"],
                           "ber_ci95": wald_ci95(c["bit_errors"], c["bits"]),
                           "blocks_simulated": 900}
    # a point does not depend on the rest of the axis: alone, or among others
    assert baseline_sweep(scheme, points[:1], 900, key) == rows[:1]
    assert baseline_sweep(scheme, [9.0, 9.5, points[2]], 900, key)[2] == rows[2]


def _reference_block_errors(scheme, ebn0_db, blocks, rng):
    """baseline_block_errors' chunk body on bit rows through the references
    above: generator matmul, BPSK, sign slicer and syndrome decoder, or the
    ML argmax, and a bit-array compare. The table lookups must match it bit
    for bit."""
    rate = 1.0 if scheme == "uncoded_bpsk" else RATE
    sigma = np.sqrt(sigma2_from_ebn0(rate, ebn0_db))
    bit_errors = block_errors = done = 0
    while done < blocks:
        b = min(blocks - done, CHUNK_BLOCKS)
        done += b
        msg = rng.integers(0, 2, size=(b, K_BITS))
        if scheme == "uncoded_bpsk":
            y = _bpsk(msg) + sigma * rng.standard_normal((b, K_BITS))
            decoded = _slice(y)
        else:
            y = _bpsk(_encode(msg)) + sigma * rng.standard_normal((b, N_BITS))
            if scheme == "hamming_hd":
                decoded = _syndrome_decode(_slice(y))
            else:
                decoded = _ml_decode(y)
        wrong = decoded != msg
        bit_errors += int(wrong.sum())
        block_errors += int(wrong.any(axis=1).sum())
    return {"scheme": scheme, "ebn0_db": float(ebn0_db), "blocks": blocks,
            "bits": blocks * K_BITS, "bit_errors": bit_errors,
            "block_errors": block_errors, "ber": bit_errors / (blocks * K_BITS),
            "bler": block_errors / blocks}


@pytest.mark.parametrize("blocks", [1, 7, CHUNK_BLOCKS, CHUNK_BLOCKS + 1, 2 * CHUNK_BLOCKS + 3])
@pytest.mark.parametrize("ebn0_db", [-10.0, 0.0, 8.0, np.inf])
@pytest.mark.parametrize("scheme", ["hamming_hd", "hamming_ml", "uncoded_bpsk"])
def test_baseline_equals_bit_row_reference_bit_for_bit(scheme, ebn0_db, blocks):
    got = baseline_block_errors(scheme, ebn0_db, blocks, np.random.default_rng(blocks))
    expected = _reference_block_errors(scheme, ebn0_db, blocks, np.random.default_rng(blocks))
    assert repr(got) == repr(expected)


def test_baseline_holds_fewer_than_three_chunks_of_rows():
    # one chunk's transmitted rows and noise; its received rows kept while
    # the next chunk's are drawn would make a third
    tracemalloc.start()
    try:
        baseline_block_errors("hamming_hd", 4.0, 2 * CHUNK_BLOCKS, spawn_rng(15, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * CHUNK_BLOCKS * N_BITS * 8, peak


def test_codeword_table_is_the_generator_matmul():
    np.testing.assert_array_equal(CODEWORDS, _encode(ALL_MESSAGES))
    np.testing.assert_array_equal(hamming_encode(ALL_MESSAGES), _encode(ALL_MESSAGES))


def test_every_word_has_one_nearest_codeword():
    # Hamming(7,4) is perfect: the radius-1 balls around the 16 codewords
    # tile all 128 words, so the nearest codeword is unique
    dist = np.abs(ALL_WORDS[:, None, :] - CODEWORDS[None, :, :]).sum(axis=2)
    assert dist.min(axis=1).max() == 1
    np.testing.assert_array_equal(np.sum(dist == dist.min(axis=1)[:, None], axis=1), 1)


def test_hard_decision_table_is_the_syndrome_decoder():
    expected = _syndrome_decode(ALL_WORDS)
    np.testing.assert_array_equal(hamming._HD_TABLE, _values(expected))
    np.testing.assert_array_equal(hamming_decode_hd(ALL_WORDS), expected)


def test_image_tables_are_the_modulated_codewords_and_messages():
    np.testing.assert_array_equal(hamming._IMAGES, _bpsk(_encode(ALL_MESSAGES)))
    np.testing.assert_array_equal(hamming._UNCODED, _bpsk(ALL_MESSAGES))
    np.testing.assert_array_equal(hamming._UNCODED[0b0110], [1.0, -1.0, -1.0, 1.0])


# soft rows on a coarse grid, so ties between codeword correlations and
# exact zeros (+0 and -0) occur
_SOFT_ROWS = arrays(np.float64, st.tuples(st.integers(1, 20), st.just(N_BITS)),
                    elements=st.sampled_from([-1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5]))


@settings(max_examples=200, deadline=None)
@given(_SOFT_ROWS)
def test_table_decoders_equal_the_public_decoders(y):
    # both equal the bit-row references too
    ml = hamming_decode_ml(y)
    np.testing.assert_array_equal(ml, _ml_decode(y))
    np.testing.assert_array_equal(hamming._decoded_values("hamming_ml", y), _values(ml))
    hd = hamming_decode_hd(_slice(y))
    np.testing.assert_array_equal(hd, _syndrome_decode(_slice(y)))
    np.testing.assert_array_equal(hamming._decoded_values("hamming_hd", y), _values(hd))
    y4 = y[:, :K_BITS]
    np.testing.assert_array_equal(hamming._decoded_values("uncoded_bpsk", y4),
                                  _values(_slice(y4)))
