import itertools

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
    PARITY_CHECK,
    RATE,
    baseline_block_errors,
    baseline_sweep,
    bpsk_demod_hard,
    bpsk_modulate,
    hamming_decode_hd,
    hamming_decode_ml,
    hamming_encode,
    syndrome,
)
from aecomm.metrics import BASELINE_COLUMNS, CHUNK_BLOCKS, wald_ci95

ALL_MESSAGES = np.array(list(itertools.product((0, 1), repeat=4)), dtype=np.int64)


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
    np.testing.assert_array_equal(syndrome(CODEWORDS), 0)


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
    np.testing.assert_array_equal(bpsk_modulate([0, 1, 0]), [1.0, -1.0, 1.0])
    np.testing.assert_array_equal(bpsk_demod_hard([0.3, -0.3, 0.0]), [0, 1, 0])


def test_ml_decodes_clean_and_scaled_images():
    images = bpsk_modulate(CODEWORDS)
    msgs = CODEWORDS[:, :K_BITS]
    np.testing.assert_array_equal(hamming_decode_ml(images), msgs)
    np.testing.assert_array_equal(hamming_decode_ml(0.37 * images), msgs)


def test_ml_corrects_single_hard_errors_too():
    for msg in ALL_MESSAGES:
        c = hamming_encode(msg)
        for pos in range(N_BITS):
            r = c.copy()
            r[pos] ^= 1
            np.testing.assert_array_equal(hamming_decode_ml(bpsk_modulate(r)), msg)


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
    """The driver's chunk body on bit rows: the public encoder (GENERATOR
    matmul), syndrome decoder and ML decoder (_MESSAGES[argmax]), and a
    bit-array compare. The table-driven driver must match it bit for bit."""
    rate = 1.0 if scheme == "uncoded_bpsk" else RATE
    sigma = np.sqrt(sigma2_from_ebn0(rate, ebn0_db))
    bit_errors = block_errors = done = 0
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
    return {"scheme": scheme, "ebn0_db": float(ebn0_db), "blocks": blocks,
            "bits": blocks * K_BITS, "bit_errors": bit_errors,
            "block_errors": block_errors, "ber": bit_errors / (blocks * K_BITS),
            "bler": block_errors / blocks}


@pytest.mark.parametrize("blocks", [1, 7, CHUNK_BLOCKS, CHUNK_BLOCKS + 1, 2 * CHUNK_BLOCKS + 3])
@pytest.mark.parametrize("ebn0_db", [-10.0, 0.0, 8.0])
@pytest.mark.parametrize("scheme", ["hamming_hd", "hamming_ml", "uncoded_bpsk"])
def test_baseline_equals_bit_row_reference_bit_for_bit(scheme, ebn0_db, blocks):
    got = baseline_block_errors(scheme, ebn0_db, blocks, np.random.default_rng(blocks))
    expected = _reference_block_errors(scheme, ebn0_db, blocks, np.random.default_rng(blocks))
    assert repr(got) == repr(expected)


def _values(bits):
    """Rows of MSB-first bits -> their integer values."""
    return np.asarray(bits) @ (1 << np.arange(np.shape(bits)[-1] - 1, -1, -1))


def test_hard_decision_table_is_the_syndrome_decoder():
    words = np.array(list(itertools.product((0, 1), repeat=N_BITS)), dtype=np.int64)
    np.testing.assert_array_equal(hamming._HD_TABLE, _values(hamming_decode_hd(words)))


def test_image_tables_are_the_modulated_codewords_and_messages():
    for v, msg in enumerate(ALL_MESSAGES):
        np.testing.assert_array_equal(hamming._IMAGES[v], bpsk_modulate(hamming_encode(msg)))
        np.testing.assert_array_equal(hamming._UNCODED[v], bpsk_modulate(msg))


# soft rows on a coarse grid, so ties between codeword correlations and
# exact zeros (+0 and -0) occur
_SOFT_ROWS = arrays(np.float64, st.tuples(st.integers(1, 20), st.just(N_BITS)),
                    elements=st.sampled_from([-1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5]))


@settings(max_examples=200, deadline=None)
@given(_SOFT_ROWS)
def test_table_decoders_equal_the_public_decoders(y):
    np.testing.assert_array_equal(hamming._decoded_values("hamming_ml", y),
                                  _values(hamming_decode_ml(y)))
    np.testing.assert_array_equal(hamming._decoded_values("hamming_hd", y),
                                  _values(hamming_decode_hd(bpsk_demod_hard(y))))
    y4 = y[:, :K_BITS]
    np.testing.assert_array_equal(hamming._decoded_values("uncoded_bpsk", y4),
                                  _values(bpsk_demod_hard(y4)))
