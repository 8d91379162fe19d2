import numpy as np
import pytest

from aecomm import metrics
from aecomm.channel import ChannelSpec, awgn, spawn_rng
from aecomm.codebooks import (build_gdr, build_onehot, data_rate, gray_bit_errors,
                              subset_codebook)
from aecomm.errors import DomainError
from aecomm.metrics import (
    CHUNK_BLOCKS,
    EVALUATE_COLUMNS,
    estimate_bler,
    format_value,
    read_csv,
    sweep,
    wald_ci95,
    write_csv,
)
from aecomm.model import build_model


def test_wald_ci_hand_value():
    assert wald_ci95(25, 100) == pytest.approx(1.96 * np.sqrt(0.25 * 0.75 / 100))
    assert wald_ci95(0, 100) == 0.0
    assert wald_ci95(100, 100) == 0.0


def test_wald_ci_shrinks_like_inverse_sqrt_n():
    assert wald_ci95(100, 1000) == pytest.approx(2 * wald_ci95(400, 4000), rel=1e-12)


def test_trained_model_is_error_free_without_noise(model_zoo):
    model, _ = model_zoo(4, 1, 10.0, seed=2)
    spec = ChannelSpec.from_snr_db(7, 2 / 7, np.inf)
    assert spec.sigma2 == 0.0
    rec = estimate_bler(model, None, spec, 10_000, spawn_rng(1, 0))
    assert rec.block_errors == 0
    assert rec.bit_errors == 0
    assert rec.low_confidence  # zero observed errors cannot certify a rate


def test_noiseless_mse_matches_direct_computation(model_zoo):
    model, _ = model_zoo(4, 1, 10.0, seed=2)
    spec = ChannelSpec.from_snr_db(7, 2 / 7, np.inf)
    rec = estimate_bler(model, None, spec, 5_000, spawn_rng(2, 0))
    # replay the same id stream; the zero-noise channel consumes no draws
    rng = spawn_rng(2, 0)
    ids = rng.integers(0, 4, size=5_000)
    s = model.codebook.entries[ids]
    p = model.receive(model.transmit(s))
    assert rec.mse == pytest.approx(float(np.mean(np.sum((p - s) ** 2, axis=1))))


def _reference_estimate(model, codebook, spec, blocks, rng, chunk=CHUNK_BLOCKS):
    """estimate_bler's counts the slow way, chunk by chunk: transmit the
    gathered entries, decode by a stable sort of each row, build s for MSE."""
    block_errors = bit_errors = 0
    mse_sum = 0.0
    for start in range(0, blocks, chunk):
        ids = rng.integers(0, len(codebook), size=min(chunk, blocks - start))
        s = codebook.entries[ids]
        p = model.receive(awgn(model.transmit(s), spec.sigma2, rng))
        top = np.sort(np.argsort(-p, axis=1, kind="stable")[:, :codebook.m], axis=1)
        match = np.all(top[:, None, :] == codebook.supports[None, :, :], axis=2)
        ids_hat = match.argmax(axis=1)
        miss = ~match.any(axis=1)
        ids_hat[miss] = p[miss][:, codebook.supports].sum(axis=2).argmax(axis=1)
        block_errors += int(np.count_nonzero(ids_hat != ids))
        bit_errors += int(gray_bit_errors(ids, ids_hat).sum())
        mse_sum += float(np.sum((p - s) ** 2))
    return block_errors, bit_errors, mse_sum / blocks


@pytest.mark.parametrize("kind", ["onehot", "onehot_subset", "gdr", "gdr_subset"])
def test_estimate_matches_reference_loop(kind):
    codebook = build_onehot(16) if kind.startswith("onehot") else build_gdr(8, 4)
    model = build_model(codebook, 7, seed=0)
    if kind.endswith("subset"):
        codebook, _ = subset_codebook(codebook, [13, 2, 7, 11, 4, 9, 0, 15])
    for ebn0_db in (0.0, 8.0):
        spec = ChannelSpec.from_ebn0(7, codebook.bits_per_message / 7, ebn0_db)
        blocks = CHUNK_BLOCKS // 4  # one chunk, as the reference assumes
        rec = estimate_bler(model, codebook, spec, blocks, spawn_rng(9, 0))
        block_errors, bit_errors, mse = _reference_estimate(
            model, codebook, spec, blocks, spawn_rng(9, 0))
        assert rec.block_errors > 0
        assert (rec.block_errors, rec.bit_errors) == (block_errors, bit_errors)
        assert rec.mse == pytest.approx(mse, rel=1e-12)


def test_estimate_transmits_its_symbol_table_in_chunks(monkeypatch):
    codebook = build_onehot(16)
    model = build_model(codebook, 7, seed=0)
    spec = ChannelSpec.from_ebn0(7, 4 / 7, 4.0)
    expected = _reference_estimate(model, codebook, spec, 500, spawn_rng(9, 1), chunk=5)
    rows = []
    transmit = model.transmit

    def counting_transmit(s):
        rows.append(len(s))
        return transmit(s)

    monkeypatch.setattr(model, "transmit", counting_transmit)
    monkeypatch.setattr(metrics, "CHUNK_BLOCKS", 5)
    rec = estimate_bler(model, codebook, spec, 500, spawn_rng(9, 1))
    assert rows == [5, 5, 5, 1]
    assert rec.block_errors > 0
    assert (rec.block_errors, rec.bit_errors) == expected[:2]
    assert rec.mse == pytest.approx(expected[2], rel=1e-12)


def test_untrained_model_is_mostly_wrong():
    model = build_model(build_onehot(16), 7, seed=0)
    spec = ChannelSpec.from_snr_db(7, 4 / 7, 0.0)
    rec = estimate_bler(model, None, spec, 20_000, spawn_rng(3, 0))
    assert rec.bler > 0.5
    assert not rec.low_confidence


def test_counter_relations_hold():
    model = build_model(build_onehot(16), 7, seed=0)
    spec = ChannelSpec.from_snr_db(7, 4 / 7, 5.0)
    rec = estimate_bler(model, None, spec, 30_000, spawn_rng(4, 0))
    k = 4
    assert rec.block_errors <= rec.bit_errors <= k * rec.block_errors
    assert rec.ber <= rec.bler <= k * rec.ber + 1e-12
    assert rec.bler_ci95 == pytest.approx(wald_ci95(rec.block_errors, rec.blocks))


def test_estimates_are_seed_deterministic():
    model = build_model(build_onehot(8), 7, seed=1)
    spec = ChannelSpec.from_ebn0(7, 3 / 7, 4.0)
    a = estimate_bler(model, None, spec, 8_000, spawn_rng(5, 0))
    b = estimate_bler(model, None, spec, 8_000, spawn_rng(5, 0))
    assert a.as_dict() == b.as_dict()


def test_ci_follows_inverse_sqrt_of_blocks():
    model = build_model(build_onehot(8), 7, seed=1)
    spec = ChannelSpec.from_snr_db(7, 3 / 7, 0.0)
    small = estimate_bler(model, None, spec, 10_000, spawn_rng(6, 0))
    large = estimate_bler(model, None, spec, 40_000, spawn_rng(6, 1))
    assert small.bler_ci95 / large.bler_ci95 == pytest.approx(2.0, rel=0.1)


def test_estimate_rejects_zero_blocks():
    model = build_model(build_onehot(8), 7, seed=1)
    spec = ChannelSpec.from_snr_db(7, 3 / 7, 0.0)
    with pytest.raises(DomainError):
        estimate_bler(model, None, spec, 0, spawn_rng(0, 0))


def test_scheme_label_defaults_by_codebook_order(model_zoo):
    model, _ = model_zoo(4, 1, 10.0, seed=2)
    spec = ChannelSpec.from_snr_db(7, 2 / 7, 10.0)
    rec = estimate_bler(model, None, spec, 100, spawn_rng(7, 0))
    assert rec.scheme == "onehot"
    rec = estimate_bler(model, None, spec, 100, spawn_rng(7, 0), scheme="custom")
    assert rec.scheme == "custom"


def test_format_value_stability():
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(None) == ""
    assert format_value(0.1) == "0.1"
    assert format_value(np.float64(1 / 3)) == repr(1 / 3)
    assert format_value(np.int64(7)) == "7"


def test_csv_round_trip_and_byte_identical_replay(tmp_path):
    rows = [
        {"scheme": "onehot", "snr_db": -2.0, "blocks": 1000, "bler": 1 / 3,
         "low_confidence": True},
        {"scheme": "gdr", "snr_db": 10.0, "blocks": 1000, "bler": 0.0,
         "low_confidence": False},
    ]
    columns = ("scheme", "snr_db", "blocks", "bler", "low_confidence")
    config = {"master_seed": 7, "blocks": 1000, "note": "x"}
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, columns, rows, config)
    write_csv(b, columns, rows, config)
    assert a.read_bytes() == b.read_bytes()

    got_config, got_rows = read_csv(a)
    assert got_config == {"master_seed": "7", "blocks": "1000", "note": "x"}
    assert len(got_rows) == 2
    assert float(got_rows[0]["bler"]) == 1 / 3  # repr floats survive the trip
    assert got_rows[0]["low_confidence"] == "1"
    assert got_rows[1]["bler"] == "0.0"


def test_metric_record_serializes_through_csv(tmp_path, model_zoo):
    model, _ = model_zoo(4, 1, 10.0, seed=2)
    spec = ChannelSpec.from_ebn0(7, 2 / 7, 2.0)
    rec = estimate_bler(model, None, spec, 2_000, spawn_rng(8, 0))
    path = tmp_path / "rec.csv"
    write_csv(path, EVALUATE_COLUMNS, [rec], {"blocks": 2000})
    _, rows = read_csv(path)
    assert len(rows) == 1
    assert int(rows[0]["blocks"]) == rec.blocks
    assert float(rows[0]["bler"]) == rec.bler
    assert rows[0]["snr_kind"] == "ebn0_db"


@pytest.mark.parametrize("kind,make_spec", [("ebn0_db", ChannelSpec.from_ebn0),
                                            ("snr_db", ChannelSpec.from_snr_db)])
def test_sweep_point_i_is_the_direct_call_on_its_stream(kind, make_spec):
    model = build_model(build_gdr(8, 2), 7, seed=1)
    points, key = [-2.0, 3.0, 8.0], (9, 4)
    recs = sweep(model, kind, points, 700, key)
    rate = data_rate(model.codebook, 7)
    for i, point in enumerate(points):
        direct = estimate_bler(model, None, make_spec(7, rate, point), 700,
                               spawn_rng(*key, i))
        assert recs[i] == direct
        assert recs[i].snr_kind == kind
    # a point does not depend on the rest of the axis: alone, or among others
    assert sweep(model, kind, points[:1], 700, key) == recs[:1]
    assert sweep(model, kind, [20.0, 21.0, points[2]], 700, key)[2] == recs[2]
    assert sweep(model, kind, points[:1], 700, key, scheme="lbl")[0].scheme == "lbl"
