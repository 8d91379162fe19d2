import sys
import threading
import tracemalloc

import numpy as np
import pytest

from aecomm import analysis, hamming, metrics, nn
from aecomm.adaptive import probe_mses
from aecomm.channel import ChannelSpec, awgn, spawn_rng
from aecomm.codebooks import (build_gdr, build_onehot, data_rate, decode_batch,
                              gray_bit_errors, subset_codebook)
from aecomm.errors import ConfigError, DomainError
from aecomm.metrics import (
    EVALUATE_COLUMNS,
    atomic_write,
    chunk_sizes,
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


def _reference_estimate(model, codebook, spec, blocks, rng):
    """estimate_bler's counts the slow way, in chunks of nn.tile_rows(M)
    blocks: transmit the gathered entries, decode by a stable sort of each
    row, build s for MSE."""
    block_errors = bit_errors = 0
    mse_sum = 0.0
    chunk = nn.tile_rows(model.M)
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
        blocks = 16_384  # two to four chunks
        rec = estimate_bler(model, codebook, spec, blocks, spawn_rng(9, 0))
        block_errors, bit_errors, mse = _reference_estimate(
            model, codebook, spec, blocks, spawn_rng(9, 0))
        assert rec.block_errors > 0
        assert (rec.block_errors, rec.bit_errors, rec.mse) == (block_errors, bit_errors, mse)


def test_estimate_transmits_its_symbol_table_in_chunks(monkeypatch):
    # 4,096 entries are two tiles at M=32; the tile slices the symbol table,
    # and the record is the one an unsliced table gives
    codebook = build_gdr(32, 3)
    model = build_model(codebook, 7, seed=0)
    spec = ChannelSpec.from_ebn0(7, 12 / 7, 4.0)
    expected = _fresh_array_estimate(model, codebook, spec, 500, spawn_rng(9, 1))
    rows = []
    transmit = model.transmit

    def counting_transmit(s):
        rows.append(len(s))
        return transmit(s)

    monkeypatch.setattr(model, "transmit", counting_transmit)
    rec = estimate_bler(model, codebook, spec, 500, spawn_rng(9, 1))
    assert rows == [2048, 2048]
    assert rec.block_errors > 0
    assert _counts(rec) == expected


def _fresh_array_estimate(model, codebook, spec, blocks, rng):
    """estimate_bler's chunk body with fresh arrays: per chunk of
    nn.tile_rows(M) blocks a new (b, M) receiver output, the noise added out
    of place, the MSE update as one 2-D fancy index, and one np.sum."""
    count = len(codebook)
    table = model.transmit(codebook.entries)
    block_errors = bit_errors = 0
    mse_sum = 0.0
    chunk = nn.tile_rows(model.M)
    for start in range(0, blocks, chunk):
        b = min(chunk, blocks - start)
        ids = rng.integers(0, count, size=b)
        x = table[ids]
        y = x + np.sqrt(spec.sigma2) * rng.standard_normal(x.shape) if spec.sigma2 else x
        p = model.receive(y)
        ids_hat = decode_batch(p, codebook)
        block_errors += int(np.count_nonzero(ids_hat != ids))
        bit_errors += int(gray_bit_errors(ids, ids_hat).sum())
        p[np.arange(b)[:, None], codebook.supports[ids]] -= 1.0 / codebook.m
        np.square(p, out=p)
        mse_sum += float(np.sum(p))
    return block_errors, bit_errors, (mse_sum / blocks).hex()


def _counts(rec):
    return rec.block_errors, rec.bit_errors, rec.mse.hex()


def _buffer_case(kind):
    """(model, codebook) for 'onehot_4' ... 'gdr_8x4', '+subset' keeping half
    the entries in a scrambled order."""
    name, _, subset = kind.partition("+")
    if name.startswith("gdr_8x"):
        codebook = build_gdr(8, int(name[6:]))
    else:
        codebook = build_onehot(int(name[7:]))
    model = build_model(codebook, 7, seed=1)
    if subset:
        keep = np.random.default_rng(2).permutation(len(codebook))[:len(codebook) // 2]
        codebook, _ = subset_codebook(codebook, keep)
    return model, codebook


BUFFER_CASES = [f"{name}{subset}"
                for name in ("onehot_4", "onehot_16", "onehot_64", "gdr_8x3", "gdr_8x4")
                for subset in ("", "+subset")]
# one chunk, a short one, and full chunks with a remainder at every width
BUFFER_BLOCKS = (1, 7, 8_193, 65_535, 65_536, 65_537, 131_075)


@pytest.mark.parametrize("kind", BUFFER_CASES)
def test_estimate_equals_fresh_array_reference_bit_for_bit(kind):
    model, codebook = _buffer_case(kind)
    spec = ChannelSpec.from_ebn0(7, codebook.bits_per_message / 7, 2.0)
    for blocks in BUFFER_BLOCKS:
        rec = estimate_bler(model, codebook, spec, blocks, spawn_rng(11, blocks))
        assert _counts(rec) == _fresh_array_estimate(
            model, codebook, spec, blocks, spawn_rng(11, blocks)), f"blocks={blocks}"


def test_estimate_ignores_what_its_buffers_held():
    small, _ = _buffer_case("onehot_4")
    large, _ = _buffer_case("onehot_64")
    spec4 = ChannelSpec.from_ebn0(7, 2 / 7, 2.0)
    spec64 = ChannelSpec.from_ebn0(7, 6 / 7, 2.0)
    blocks = 65_539
    expected = _fresh_array_estimate(small, small.codebook, spec4, blocks, spawn_rng(12, 0))
    assert _counts(estimate_bler(small, None, spec4, blocks, spawn_rng(12, 0))) == expected
    # nothing a wider receiver's call left in memory reaches the next call
    estimate_bler(large, None, spec64, blocks, spawn_rng(12, 1))
    assert _counts(estimate_bler(small, None, spec4, blocks, spawn_rng(12, 0))) == expected


def test_one_m64_chunk_allocates_no_chunk_sized_output():
    # a fresh thread, so that nothing an earlier call kept is reused; a
    # (65,536, 64) float64 receiver output alone is 32 MiB
    model = build_model(build_onehot(64), 7, seed=1)
    spec = ChannelSpec.from_ebn0(7, 6 / 7, 2.0)
    peaks = []

    def run():
        tracemalloc.start()
        try:
            estimate_bler(model, None, spec, 65_536, spawn_rng(14, 0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    assert peaks and peaks[0] < 8 << 20, peaks


@pytest.mark.parametrize("case", ["estimate_bler", "probe_mses", "mse_decomposition",
                                  "hamming_hd", "hamming_ml", "uncoded_bpsk"])
def test_monte_carlo_loops_draw_their_noise_one_tile_at_a_time(case, model_zoo, monkeypatch):
    # every loop over rows works in chunks of nn.tile_rows(w), w its widest
    # row: M for the autoencoder, hamming_ml's 16 correlations for the
    # baselines; each call here sends two tiles and a few rows more
    rows = []

    def counting_awgn(x, *args, **kwargs):
        rows.append(len(x))
        return awgn(x, *args, **kwargs)

    for module in (metrics, hamming, analysis):
        monkeypatch.setattr(module, "awgn", counting_awgn)
    if case in ("estimate_bler", "probe_mses"):
        model = build_model(build_onehot(64), 7, seed=1)
        spec = ChannelSpec.from_ebn0(7, 6 / 7, 2.0)
        tile = nn.tile_rows(64)
        if case == "estimate_bler":
            total = 2 * tile + 3
            estimate_bler(model, None, spec, total, spawn_rng(16, 0))
        else:
            K = (2 * tile + 3) // 64 + 1
            total = K * 64
            probe_mses(model, spec, K, spawn_rng(16, 1))
    elif case == "mse_decomposition":
        model, _ = model_zoo(4, 1, 10.0, seed=2)
        tile = nn.tile_rows(4)
        total = 2 * tile + 3
        analysis.mse_decomposition(model, None, 0.05, total, spawn_rng(16, 2))
    else:
        tile = nn.tile_rows(16)
        total = 2 * tile + 3
        hamming.baseline_block_errors(case, 4.0, total, spawn_rng(16, 3))
    assert sum(rows) == total and max(rows) <= tile, rows


def test_threads_evaluating_at_once_match_their_serial_records():
    # more threads than cores, switching often, on a narrow and a wide
    # receiver: a buffer shared between threads would mix their chunks
    models = [_buffer_case("onehot_4")[0], _buffer_case("onehot_64")[0]]
    specs = [ChannelSpec.from_ebn0(7, 2 / 7, 2.0), ChannelSpec.from_ebn0(7, 6 / 7, 2.0)]
    blocks = 65_541
    jobs = [(i % 2, i) for i in range(4)]

    def run(job):
        which, key = job
        return estimate_bler(models[which], None, specs[which], blocks, spawn_rng(13, key))

    serial = [run(job) for job in jobs]
    results = {i: [] for i in range(len(jobs))}
    errors = []

    def worker(i):
        try:
            for _ in range(3):
                results[i].append(run(jobs[i]))
        except Exception as exc:  # the main thread reports it
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    for i, records in results.items():
        assert records == [serial[i]] * 3


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


@pytest.mark.parametrize("total", [1, 7, 65_535, 65_536, 65_537, 196_608, 196_613])
def test_chunk_sizes_are_full_chunks_then_the_rest(total):
    sizes = list(chunk_sizes(total, "blocks", 65_536))
    assert sum(sizes) == total
    assert sizes[:-1] == [65_536] * (len(sizes) - 1)
    assert 1 <= sizes[-1] <= 65_536
    assert list(chunk_sizes(total, "blocks", 1_000)) == [
        min(1_000, total - start) for start in range(0, total, 1_000)]


@pytest.mark.parametrize("total", [0, -5])
def test_chunk_sizes_refuse_a_count_below_one_by_name(total):
    with pytest.raises(DomainError, match=f"^samples must be >= 1, got {total}$"):
        chunk_sizes(total, "samples", 1_000)


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


@pytest.mark.parametrize("row, config, name", [
    ({"scheme": "a,b", "bler": 0.5}, {}, "column scheme"),
    ({"scheme": "a\nb", "bler": 0.5}, {}, "column scheme"),
    ({"scheme": "a\rb", "bler": 0.5}, {}, "column scheme"),
    ({"scheme": "onehot", "bler": 0.5}, {"note": "two\nlines"}, "config value note"),
])
def test_csv_refuses_a_field_it_cannot_keep_whole(tmp_path, row, config, name):
    # a comma would shift every later column of its row as read_csv reads
    # it, and a line break would start a row; the file is never opened
    path = tmp_path / "out.csv"
    with pytest.raises(ConfigError, match=name):
        write_csv(path, ("scheme", "bler"), [row], config)
    assert list(tmp_path.iterdir()) == []
    # a comma in a config value stays on its line
    write_csv(path, ("scheme",), [{"scheme": "onehot"}], {"checkpoint": "a,b.ckpt"})
    assert read_csv(path) == ({"checkpoint": "a,b.ckpt"}, [{"scheme": "onehot"}])


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


def test_atomic_write_that_fails_part_way_keeps_the_previous_file(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ("a",), [{"a": 1}])
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("half a fi")
            raise RuntimeError("interrupted")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
    with atomic_write(path) as fh:
        fh.write("whole\n")
    assert path.read_text() == "whole\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_atomic_write_writes_through_a_symlink(tmp_path):
    target = tmp_path / "data" / "out.csv"
    target.parent.mkdir()
    target.write_text("old\n")
    link = tmp_path / "out.csv"
    link.symlink_to(target)
    with atomic_write(link) as fh:
        fh.write("new\n")
    assert link.is_symlink()
    assert target.read_text() == "new\n"
    assert [p.name for p in target.parent.iterdir()] == ["out.csv"]
