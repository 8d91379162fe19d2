import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aecomm.codebooks import (
    Codebook,
    build_gdr,
    build_onehot,
    data_rate,
    decode_batch,
    gray_bit_errors,
    subset_codebook,
)
from aecomm.errors import ConfigError, DomainError, ShapeError


def test_onehot_entries_are_identity_rows():
    cb = build_onehot(8)
    np.testing.assert_array_equal(cb.entries, np.eye(8))
    assert cb.bits_per_message == 3
    assert cb.m == 1


def test_onehot_rejects_non_power_of_two():
    with pytest.raises(DomainError):
        build_onehot(3)
    with pytest.raises(DomainError):
        build_onehot(1)


def test_onehot_warns_outside_validated_sizes():
    with pytest.warns(UserWarning):
        build_onehot(2)
    # decode lookup masks cap the vector size at 64; a refused size is not
    # also warned about
    with warnings.catch_warnings(record=True) as caught, pytest.raises(DomainError):
        warnings.simplefilter("always")
        build_onehot(128)
    assert caught == []


def test_gdr_8_choose_2_layout():
    # 16 of the 28 two-element supports, lexicographic: the first vector is
    # [1/2, 1/2, 0, ...], the last three have supports (2,3), (2,4), (2,5)
    cb = build_gdr(8, 2)
    assert len(cb) == 16
    assert cb.bits_per_message == 4
    first = np.zeros(8)
    first[0] = first[1] = 0.5
    np.testing.assert_allclose(cb.entries[0], first)
    np.testing.assert_array_equal(cb.supports[1], [0, 2])
    np.testing.assert_array_equal(cb.supports[13], [2, 3])
    np.testing.assert_array_equal(cb.supports[14], [2, 4])
    np.testing.assert_array_equal(cb.supports[15], [2, 5])
    np.testing.assert_allclose(cb.entries.sum(axis=1), 1.0)


def test_gdr_m1_matches_onehot():
    a = build_gdr(16, 1)
    b = build_onehot(16)
    np.testing.assert_array_equal(a.entries, b.entries)


def test_gdr_order_bounds():
    with pytest.raises(DomainError):
        build_gdr(8, 0)
    with pytest.raises(DomainError):
        build_gdr(8, 5)  # m must not exceed M/2
    with pytest.raises(DomainError):
        build_gdr(8, 2, selection="fancy")


def test_gdr_random_selection_needs_a_seed():
    # a seedless draw could not be rebuilt when its checkpoint loads
    with pytest.raises(ConfigError, match="selection_seed"):
        build_gdr(8, 3, selection="random")


def test_gdr_random_selection_is_seeded():
    a = build_gdr(16, 2, selection="random", selection_seed=11)
    b = build_gdr(16, 2, selection="random", selection_seed=11)
    c = build_gdr(16, 2, selection="random", selection_seed=12)
    np.testing.assert_array_equal(a.supports, b.supports)
    assert not np.array_equal(a.supports, c.supports)
    # every row is a sorted, valid 2-subset and rows are distinct
    assert np.all(a.supports[:, 0] < a.supports[:, 1])
    assert np.all((a.supports >= 0) & (a.supports < 16))
    assert len(a) == 64


def test_data_rates_for_seven_channel_uses():
    assert data_rate(build_onehot(8), 7) == pytest.approx(3 / 7)
    assert data_rate(build_gdr(8, 2), 7) == pytest.approx(4 / 7)
    assert data_rate(build_gdr(64, 1), 7) == pytest.approx(6 / 7)
    with pytest.raises(DomainError):
        data_rate(build_onehot(8), 0)


def test_decode_recovers_clean_entries():
    for cb in (build_onehot(16), build_gdr(8, 2), build_gdr(8, 3)):
        ids = np.arange(len(cb))
        np.testing.assert_array_equal(decode_batch(cb.entries[ids], cb), ids)


def test_decode_tie_goes_to_lower_index():
    cb = build_onehot(4)
    np.testing.assert_array_equal(
        decode_batch([np.full(4, 0.25), [0.1, 0.4, 0.4, 0.1]], cb), [0, 1])
    # subset {1, 3}: the maximum at index 0 is not kept, and the kept
    # columns tie, so the fallback takes the lower id
    sub, _ = subset_codebook(cb, [1, 3])
    np.testing.assert_array_equal(decode_batch([0.4, 0.2, 0.1, 0.2], sub), [0])


def test_decode_fallback_uses_support_mass():
    # top-2 indices {2,3} form no entry of the 4-entry (4,2) codebook,
    # so the decoder falls back to support probability mass
    cb = build_gdr(4, 2)
    np.testing.assert_array_equal(
        cb.supports, [[0, 1], [0, 2], [0, 3], [1, 2]]
    )
    p = np.array([0.1, 0.2, 0.3, 0.4])
    # masses: (0,1)=0.3 (0,2)=0.4 (0,3)=0.5 (1,2)=0.5 -> tie, lower id wins
    np.testing.assert_array_equal(decode_batch(p, cb), [2])


def test_decode_rejects_wrong_length():
    with pytest.raises(ShapeError):
        decode_batch(np.ones(5) / 5, build_onehot(4))
    with pytest.raises(ShapeError):
        decode_batch(np.ones((2, 2, 4)), build_onehot(4))


def _reference_decode(p, cb):
    """Row by row: the m largest indices by a stable sort that ranks NaN
    above every number, lower index first among NaNs and equal values;
    the entry with that support; else the entry of largest support mass. A
    mass is p times the support's 0/1 indicator, summed over all M columns,
    so a NaN anywhere in the row makes every mass NaN; the first NaN mass
    wins, else the first maximum, as np.argmax picks. For m=1 with ids in
    ascending support order decode_batch is np.argmax over the kept
    columns, so only those are ranked."""
    by_support = {tuple(s): i for i, s in enumerate(cb.supports.tolist())}
    cols = cb.supports[:, 0].tolist()
    if not (cb.m == 1 and cols == sorted(set(cols))):
        cols = range(cb.M)
    out = []
    for row in p.tolist():
        ranked = sorted(cols, key=lambda j: (0, 0.0) if math.isnan(row[j]) else (1, -row[j]))
        top = tuple(sorted(ranked[:cb.m]))
        if top in by_support:
            out.append(by_support[top])
            continue
        mass = [sum(row[j] * (j in s) for j in range(cb.M)) for s in cb.supports.tolist()]
        nan_ids = [i for i, v in enumerate(mass) if math.isnan(v)]
        out.append(nan_ids[0] if nan_ids else mass.index(max(mass)))
    return np.array(out, dtype=np.int64)


_DECODE_PARENTS = (
    build_onehot(4), build_onehot(16), build_onehot(64),
    build_gdr(8, 2), build_gdr(8, 3), build_gdr(8, 4),
    build_gdr(16, 2, selection="random", selection_seed=5),
    # masks spanning several bytes, and rows padded to 8, 16 and 32 bits;
    # M=24 and M=64 look masks up by binary search, the others in the table
    build_gdr(64, 2), build_gdr(12, 3), build_gdr(4, 2), build_gdr(24, 2),
    # ids in descending support order: on a tie the support-mass fallback
    # picks another entry than the stable sort does
    Codebook(8, 1, build_onehot(8).supports[::-1]),
    Codebook(8, 2, build_gdr(8, 2).supports[::-1]),
)


@st.composite
def _decode_cases(draw):
    """A codebook (full, or a subset as adaptive selection builds them) and
    probabilities on a dyadic grid: coarse grids force exact ties, and
    every support mass is an exact sum. Some cases also hold -0.0 entries,
    which tie with 0.0, and NaN entries."""
    cb = draw(st.sampled_from(_DECODE_PARENTS))
    if draw(st.booleans()):
        k = draw(st.sampled_from([t for t in (2, 4, 8, 16) if t < len(cb)]))
        kept = draw(st.lists(st.integers(0, len(cb) - 1), min_size=k, max_size=k,
                             unique=True))
        cb, _ = subset_codebook(cb, kept)
    levels = draw(st.sampled_from((1, 2, 4, 1024)))
    rows = draw(st.integers(1, 16))
    grid = draw(arrays(np.int64, (rows, cb.M), elements=st.integers(0, levels)))
    p = grid / levels
    if draw(st.booleans()):
        special = draw(arrays(np.int64, p.shape, elements=st.integers(0, 7)))
        p[special == 1] = -0.0
        p[special == 2] = np.nan
    return cb, p


@settings(max_examples=300, deadline=None)
@given(_decode_cases())
def test_decode_batch_matches_brute_force_reference(case):
    cb, p = case
    before = p.copy()
    np.testing.assert_array_equal(decode_batch(p, cb), _reference_decode(p, cb))
    np.testing.assert_array_equal(p, before)


def test_decode_ranks_nan_first_for_every_m():
    # the m=1 argmax rule: NaN above every number, the lower index first
    p = [0.5, np.nan, 0.2, np.nan, 0.3, 0.0, 0.0, 0.0]
    assert decode_batch(p, build_onehot(8))[0] == 1
    reversed_onehot = Codebook(8, 1, build_onehot(8).supports[::-1])
    assert decode_batch(p, reversed_onehot)[0] == 6  # the entry of column 1
    cb = build_gdr(8, 2)
    assert cb.supports[decode_batch(p, cb)[0]].tolist() == [1, 3]


def test_mask_table_agrees_with_the_sorted_masks():
    """Every mask of M <= 16 bits finds the same id, or the same miss, in
    the direct table as by binary search in the sorted masks. Codebooks
    that decode by argmax have no table."""
    assert {cb._id_by_mask is None for cb in _DECODE_PARENTS
            if not cb._argmax_decode} == {False, True}
    for parent in _DECODE_PARENTS:
        keep = np.random.default_rng(parent.M).permutation(len(parent))[:len(parent) // 2]
        for cb in (parent, subset_codebook(parent, keep)[0]):
            assert (cb._id_by_mask is None) == (cb._argmax_decode or cb.M > 16)
            if cb._id_by_mask is None:
                continue
            masks = np.arange(1 << cb.M, dtype=np.uint64)
            pos = np.minimum(np.searchsorted(cb._masks_sorted, masks), len(cb) - 1)
            expected = np.where(cb._masks_sorted[pos] == masks, cb._ids_by_mask[pos], -1)
            np.testing.assert_array_equal(cb._id_by_mask, expected)


def test_subset_codebook_keeps_parent_ids():
    cb = build_onehot(8)
    sub, parent_ids = subset_codebook(cb, [5, 1, 3, 7])
    np.testing.assert_array_equal(parent_ids, [1, 3, 5, 7])
    assert len(sub) == 4
    assert sub.bits_per_message == 2
    np.testing.assert_array_equal(sub.entries, cb.entries[[1, 3, 5, 7]])
    assert sub.selection.startswith("subset-of-")


def test_codebook_rejects_duplicate_supports():
    with pytest.raises(DomainError):
        Codebook(4, 1, [[0], [0]])
    with pytest.raises(DomainError):
        Codebook(4, 1, [[0], [1], [2]])  # not a power of two


def test_gray_adjacent_ids_differ_by_one_bit():
    for k in (2, 3, 4, 5, 6):
        ids = np.arange((1 << k) - 1)
        np.testing.assert_array_equal(gray_bit_errors(ids, ids + 1), 1)


def test_gray_bit_errors_hand_values():
    assert gray_bit_errors(0, 0) == 0
    assert gray_bit_errors(0, 3) == 1  # gray(0)=00, gray(3)=10
    assert gray_bit_errors(1, 2) == 1  # gray(1)=01, gray(2)=11
    np.testing.assert_array_equal(gray_bit_errors([0, 1], [1, 1]), [1, 0])


def _gray_popcount(a: int, b: int) -> int:
    return bin((a ^ (a >> 1)) ^ (b ^ (b >> 1))).count("1")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, (1 << 63) - 1), st.integers(0, (1 << 63) - 1)),
                min_size=1, max_size=32))
def test_gray_bit_errors_is_the_popcount_of_gray_code_xor(pairs):
    a, b = (np.array(ids, dtype=np.uint64) for ids in zip(*pairs))
    expected = [_gray_popcount(x, y) for x, y in pairs]
    np.testing.assert_array_equal(gray_bit_errors(a, b), expected)


def test_manifest_round_trip_fields():
    cb = build_gdr(8, 2, selection="random", selection_seed=3)
    man = cb.manifest()
    rebuilt = build_gdr(man["M"], man["m"], man["selection"], man["selection_seed"])
    np.testing.assert_array_equal(rebuilt.supports, cb.supports)
