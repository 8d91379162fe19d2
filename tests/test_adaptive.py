import numpy as np
import pytest

from aecomm import metrics
from aecomm.adaptive import (
    AdaptiveState,
    adaptive_sweep,
    probe_mses,
    run_adaptive,
    select_vectors,
    selected_codebook,
)
from aecomm.channel import ChannelSpec, awgn, spawn_rng
from aecomm.codebooks import build_gdr, build_onehot, data_rate
from aecomm.errors import DomainError
from aecomm.model import build_model


def test_select_all_feasible_keeps_everything():
    st = select_vectors(np.full(64, 1e-6), threshold=1e-4)
    assert st.M1 == 64
    assert not st.outage
    np.testing.assert_array_equal(np.sort(st.feedback_labels), np.arange(64))


def test_select_picks_largest_feasible_tier():
    # 20 entries below threshold: 16 is the largest tier fully covered
    mses = np.full(64, 1.0)
    mses[:20] = 1e-6
    st = select_vectors(mses, threshold=1e-4)
    assert st.M1 == 16
    assert not st.outage
    assert set(st.feedback_labels) <= set(range(20))


def test_select_exact_tier_boundary():
    mses = np.full(64, 1.0)
    mses[:8] = 1e-6
    st = select_vectors(mses, threshold=1e-4)
    assert st.M1 == 8


def test_select_outage_falls_back_to_smallest_tier():
    # only 3 feasible entries: no tier works, keep the best 4 and flag it
    mses = np.full(64, 1.0)
    mses[:3] = 1e-6
    st = select_vectors(mses, threshold=1e-4)
    assert st.outage
    assert st.M1 == 4
    np.testing.assert_array_equal(np.sort(st.feedback_labels), [0, 1, 2, 3])


def test_select_infinite_threshold_saturates():
    rng = np.random.default_rng(0)
    st = select_vectors(rng.uniform(0.1, 2.0, size=64), threshold=np.inf)
    assert st.M1 == 64


def test_select_tightening_threshold_never_grows_m1():
    rng = np.random.default_rng(1)
    mses = rng.uniform(0.0, 1.0, size=64)
    sizes = [select_vectors(mses, th).M1 for th in (1.0, 0.5, 0.2, 0.05, 1e-4)]
    assert sizes == sorted(sizes, reverse=True)


def test_select_ties_resolve_to_lower_labels():
    st = select_vectors(np.zeros(64), threshold=1.0)
    assert st.M1 == 64
    st = select_vectors(np.zeros(8), threshold=1.0)
    np.testing.assert_array_equal(st.feedback_labels, np.arange(8))


def test_select_rejects_too_few_entries():
    with pytest.raises(DomainError):
        select_vectors(np.zeros(3), threshold=1.0)
    with pytest.raises(DomainError):
        select_vectors(np.zeros((8, 8)), threshold=1.0)


def test_select_rejects_nan_threshold():
    # a NaN threshold names no MSE level: no tier would meet it, which
    # would read as an outage
    with pytest.raises(DomainError, match="NaN"):
        select_vectors(np.zeros(64), threshold=np.nan)


def test_probe_requires_positive_k():
    model = build_model(build_onehot(64), 7, seed=0)
    spec = ChannelSpec.from_snr_db(7, 6 / 7, 5.0)
    with pytest.raises(DomainError):
        probe_mses(model, spec, 0, spawn_rng(0, 0))


def test_probe_noiseless_is_k_independent():
    model = build_model(build_onehot(64), 7, seed=0)
    spec = ChannelSpec.from_snr_db(7, 6 / 7, 5.0)
    quiet = ChannelSpec(n=7, rate=6 / 7, sigma2=0.0, snr_kind="snr_db", snr_db=np.inf)
    a = probe_mses(model, quiet, 1, spawn_rng(0, 1))
    b = probe_mses(model, quiet, 7, spawn_rng(0, 2))
    np.testing.assert_allclose(a, b, atol=1e-12)
    # and must equal the direct per-entry reconstruction error
    p = model.receive(model.transmit(model.codebook.entries))
    np.testing.assert_allclose(a, np.sum((p - model.codebook.entries) ** 2, axis=1))


def test_probe_is_seed_deterministic():
    model = build_model(build_onehot(64), 7, seed=0)
    spec = ChannelSpec.from_snr_db(7, 6 / 7, 0.0)
    a = probe_mses(model, spec, 5, spawn_rng(3, 0))
    b = probe_mses(model, spec, 5, spawn_rng(3, 0))
    np.testing.assert_array_equal(a, b)


def _probe_loop(model, spec, K, rng):
    """K separate probes of every entry, summed in probe order."""
    entries = model.codebook.entries
    x = model.transmit(entries)
    total = np.zeros(len(entries))
    for _ in range(K):
        p = model.receive(awgn(x, spec.sigma2, rng))
        total += np.sum((p - entries) ** 2, axis=1)
    return total / K


@pytest.mark.parametrize("codebook", [build_onehot(64), build_gdr(8, 4)],
                         ids=["onehot_m64", "gdr_m8x4"])
@pytest.mark.parametrize("K", [1, 3, 100, 1025])
def test_batched_probe_equals_probe_loop_bit_for_bit(codebook, K):
    # K = 1025 sends 65,600 rows: 65 tiles of up to 16 probes at M=64, and
    # nine of up to 128 at M=8
    model = build_model(codebook, 7, seed=4)
    spec = ChannelSpec.from_snr_db(7, data_rate(codebook, 7), 2.0)
    batched, looped = spawn_rng(6, K), spawn_rng(6, K)
    np.testing.assert_array_equal(probe_mses(model, spec, K, batched),
                                  _probe_loop(model, spec, K, looped))
    assert batched.standard_normal() == looped.standard_normal()


def _fresh_buffer_probe(model, spec, K, rng):
    """probe_mses with fresh arrays: one receiver output per group of up to
    65,536 rows, whole probes each, and the noise added out of place; the
    order of the draws and of the sums is probe_mses' at any group size."""
    entries = model.codebook.entries
    count = entries.shape[0]
    x = model.transmit(entries)
    total = np.zeros(count)
    group = max(1, 65_536 // count)
    for done in range(0, K, group):
        g = min(group, K - done)
        xg = np.tile(x, (g, 1))
        p = model.receive(xg + np.sqrt(spec.sigma2) * rng.standard_normal(xg.shape))
        d = p.reshape(g, count, -1)
        d -= entries
        np.square(d, out=d)
        for errors in d.sum(axis=2):
            total += errors
    return total / K


@pytest.mark.parametrize("codebook", [build_onehot(64), build_gdr(8, 4)],
                         ids=["onehot_m64", "gdr_m8x4"])
def test_probe_equals_fresh_array_reference_bit_for_bit(codebook):
    # the probes streamed one receiver row tile at a time against one
    # receiver output per group; K = 100 puts probes across tile boundaries
    # at M=64, and K = 1025 spans two probe groups at 64 entries
    model = build_model(codebook, 7, seed=4)
    spec = ChannelSpec.from_snr_db(7, data_rate(codebook, 7), 2.0)
    for K in (1, 100, 1025):
        expected = _fresh_buffer_probe(model, spec, K, spawn_rng(7, K)).tobytes()
        assert probe_mses(model, spec, K, spawn_rng(7, K)).tobytes() == expected, f"K={K}"


def test_run_adaptive_requires_64_entries():
    model = build_model(build_onehot(16), 7, seed=0)
    spec = ChannelSpec.from_snr_db(7, 4 / 7, 5.0)
    with pytest.raises(DomainError):
        run_adaptive(model, spec, 1e-4, 1, spawn_rng(0, 0))


def test_run_adaptive_reports_rate():
    model = build_model(build_onehot(64), 7, seed=0)
    spec = ChannelSpec.from_snr_db(7, 6 / 7, 5.0)
    st = run_adaptive(model, spec, np.inf, 1, spawn_rng(0, 0))
    assert st.M1 == 64
    assert st.rate_bits_per_use == pytest.approx(6 / 7)
    st = run_adaptive(model, spec, -1.0, 1, spawn_rng(0, 0))
    assert st.outage and st.M1 == 4
    assert st.rate_bits_per_use == pytest.approx(2 / 7)


def test_selected_codebook_maps_back_to_parent():
    model = build_model(build_onehot(64), 7, seed=0)
    state = AdaptiveState(
        mse_threshold=1e-4,
        probe_mses=np.zeros(64),
        feedback_labels=np.array([9, 2, 33, 17]),
        M1=4,
        outage=False,
    )
    sub, parents = selected_codebook(model, state)
    np.testing.assert_array_equal(parents, [2, 9, 17, 33])
    np.testing.assert_array_equal(sub.entries, model.codebook.entries[[2, 9, 17, 33]])
    assert sub.bits_per_message == 2


def test_adaptive_sweep_point_i_is_the_direct_call_on_its_stream():
    model = build_model(build_gdr(8, 4), 7, seed=2)
    snrs, key = [-3.0, 2.0, 9.0], (5, 1)
    rows = adaptive_sweep(model, snrs, 0.5, 2, 400, key)
    assert set(metrics.ADAPTIVE_COLUMNS) < set(rows[0])
    for i, snr_db in enumerate(snrs):
        spec = ChannelSpec.from_snr_db(7, data_rate(model.codebook, 7), snr_db)
        rng = spawn_rng(*key, i)
        state = run_adaptive(model, spec, 0.5, 2, rng)
        sub, _ = selected_codebook(model, state)
        rec = metrics.estimate_bler(model, sub, spec, 400, rng, scheme="adaptive")
        assert rows[i] == {
            "snr_db": snr_db, "threshold": 0.5, "K": 2, "M1": state.M1,
            "outage": state.outage, "rate_bits_per_use": state.rate_bits_per_use,
            "bler": rec.bler, "bler_ci95": rec.bler_ci95, "mse": rec.mse,
            "blocks": 400,
        }
    # a point does not depend on the rest of the axis: alone, or among others
    assert adaptive_sweep(model, snrs[:1], 0.5, 2, 400, key) == rows[:1]
    assert adaptive_sweep(model, [0.0, snrs[1]], 0.5, 2, 400, key)[1] == rows[1]
