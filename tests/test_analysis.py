import numpy as np
import pytest

from aecomm.analysis import (
    achievable_rate,
    build_F,
    mse_decomposition,
)
from aecomm.channel import spawn_rng
from aecomm.errors import DomainError, SingularityError
from aecomm.metrics import CHUNK_BLOCKS
from aecomm.nn import softmax


def test_linearization_approximates_softmax():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        u = rng.uniform(0.1, 5.0, size=8)
        p = build_F(u).predict(u)
        worst = max(worst, float(np.max(np.abs(softmax(u) - p))))
    assert worst <= 1e-6


def test_linearization_error_shrinks_with_order():
    rng = np.random.default_rng(1)
    u = rng.uniform(0.5, 3.0, size=6)
    target = softmax(u)
    errs = [
        float(np.max(np.abs(build_F(u, taylor_order=N).predict(u) - target)))
        for N in (1, 2, 4, 8, 16)
    ]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < errs[0] / 1e6


def test_linearization_uniform_reference_predicts_uniform():
    u = np.full(5, 1.3)
    np.testing.assert_allclose(build_F(u).predict(u), 0.2, atol=1e-9)


def test_linearization_rejects_near_zero_components():
    with pytest.raises(SingularityError) as err:
        build_F(np.array([1.0, 1e-5, 2.0]))
    assert err.value.index == 1
    with pytest.raises(DomainError):
        build_F(np.ones((2, 2)))
    with pytest.raises(DomainError):
        build_F(np.ones(3), taylor_order=0)


def test_achievable_rate_gain_near_published_value():
    high = achievable_rate(16, 6, 7, 20.0)
    low = achievable_rate(16, 1, 7, 20.0)
    assert float(high - low) == pytest.approx(1.577, abs=0.01)


def test_achievable_rate_monotone_in_ebn0_and_bits():
    curve = achievable_rate(16, 2, 7, np.arange(0.0, 20.1, 2.0))
    assert np.all(np.diff(curve) > 0)
    assert float(achievable_rate(16, 2, 7, 10.0)) > float(achievable_rate(16, 1, 7, 10.0))
    assert float(achievable_rate(64, 1, 7, -100.0)) == pytest.approx(0.0, abs=1e-6)


def test_achievable_rate_rejects_bad_order():
    with pytest.raises(DomainError):
        achievable_rate(16, 0, 7, 10.0)
    with pytest.raises(DomainError):
        achievable_rate(16, 9, 7, 10.0)


def test_decomposition_noise_term_is_exactly_linear_in_sigma2(model_zoo):
    model, _ = model_zoo(4, 1, 10.0, seed=2)
    lo = mse_decomposition(model, None, 0.01, 1000, spawn_rng(6, 0))
    hi = mse_decomposition(model, None, 0.02, 1000, spawn_rng(6, 1))
    assert hi["noise_term"] == pytest.approx(2.0 * lo["noise_term"], rel=1e-12)
    assert hi["signal_term"] == pytest.approx(lo["signal_term"], rel=1e-12)


def test_decomposition_zero_noise_collapses_to_signal_term(model_zoo):
    model, _ = model_zoo(4, 1, 10.0, seed=2)
    out = mse_decomposition(model, None, 0.0, 5000, spawn_rng(7, 0))
    assert out["noise_term"] == 0.0
    assert out["predicted_total"] == out["signal_term"]
    # noiseless simulation over included entries is deterministic, so the
    # simulated value must equal the exact restricted MSE of the softmax path
    assert out["active_fraction"] == pytest.approx(1.0)


def test_decomposition_agrees_with_simulation(model_zoo):
    model, _ = model_zoo(4, 1, 10.0, seed=2)
    out = mse_decomposition(model, None, 0.05, 100_000, spawn_rng(8, 0))
    rel = abs(out["predicted_total"] - out["simulated_mse"]) / out["simulated_mse"]
    assert rel < 0.2
    assert 0.0 < out["active_fraction"] <= 1.0


def test_decomposition_rejects_model_with_no_active_entry():
    # an untrained receiver almost never keeps every relu unit active
    from aecomm.codebooks import build_onehot
    from aecomm.model import build_model

    model = build_model(build_onehot(4), 7, seed=0)
    u = model.transmit(model.codebook.entries) @ model.W3.T + model.b3
    assert not np.any(np.all(u > 0, axis=1))  # precondition for this seed
    with pytest.raises(DomainError):
        mse_decomposition(model, None, 0.01, 100, spawn_rng(9, 0))


def test_decomposition_rejects_bad_noise_variance():
    from aecomm.codebooks import build_onehot
    from aecomm.model import build_model

    model = build_model(build_onehot(4), 7, seed=0)
    for sigma2 in (-0.1, np.nan, np.inf):
        with pytest.raises(DomainError, match="noise variance"):
            mse_decomposition(model, None, sigma2, 100, spawn_rng(9, 0))


def test_decomposition_refuses_what_build_F_refuses(model_zoo):
    # each entry's linearization is build_F's, checks included
    model, _ = model_zoo(4, 1, 10.0, seed=2)
    with pytest.raises(DomainError, match="taylor order must be >= 1, got 0"):
        mse_decomposition(model, None, 0.01, 100, spawn_rng(9, 0), taylor_order=0)


def _per_entry_terms(model, sigma2, taylor_order):
    """The signal and noise terms as build_F gives them, one entry at a time."""
    entries = model.codebook.entries
    u0 = model.transmit(entries) @ model.W3.T + model.b3
    row_norms2 = np.sum(model.W3 ** 2, axis=1)
    signal, noise = [], []
    for i in np.nonzero(np.all(np.abs(u0) >= 1e-3, axis=1) & np.all(u0 > 0, axis=1))[0]:
        f = build_F(u0[i], taylor_order).f_diag
        signal.append(np.sum((f * u0[i] - entries[i]) ** 2))
        noise.append(np.sum(f ** 2 * row_norms2) * sigma2)
    return float(np.mean(signal)), float(np.mean(noise))


def _positive_bias_gdr():
    """An untrained GDR 8-of-4 model whose positive receiver bias keeps many
    entries all-active."""
    from aecomm.codebooks import build_gdr
    from aecomm.model import build_model

    gdr = build_model(build_gdr(8, 4), 7, seed=1)
    gdr.b3[...] = np.random.default_rng(3).uniform(0.5, 2.0, gdr.b3.shape)
    return gdr


def test_decomposition_terms_equal_per_entry_build_F_bit_for_bit(model_zoo):
    trained, _ = model_zoo(4, 1, 10.0, seed=2)
    for model in (trained, _positive_bias_gdr()):
        for sigma2 in (0.0, 0.01, 0.37):
            for order in (1, 3, 20):
                out = mse_decomposition(model, None, sigma2, 10, spawn_rng(11, 0),
                                        taylor_order=order)
                assert (repr((out["signal_term"], out["noise_term"]))
                        == repr(_per_entry_terms(model, sigma2, order)))


def _reference_simulated_mse(model, sigma2, samples, rng):
    """mse_decomposition's Monte Carlo loop, out of place: x[ids] + sigma n
    (no noise drawn at sigma2 = 0), W_r y + b_r, np.all(u > 0, axis=1) and
    sum((p - s) ** 2); returns (simulated_mse, active_fraction)."""
    entries = model.codebook.entries
    x = model.transmit(entries)
    u0 = x @ model.W3.T + model.b3
    included = np.nonzero(np.all(np.abs(u0) >= 1e-3, axis=1) & np.all(u0 > 0, axis=1))[0]
    sim_sum, sim_blocks, done = 0.0, 0, 0
    while done < samples:
        b = min(samples - done, CHUNK_BLOCKS)
        done += b
        ids = included[rng.integers(0, included.size, size=b)]
        y = x[ids]
        if sigma2:
            y = y + np.sqrt(sigma2) * rng.standard_normal((b, x.shape[1]))
        u = y @ model.W3.T + model.b3
        active = np.all(u > 0, axis=1)
        if np.any(active):
            p = softmax(u[active])
            sim_sum += float(np.sum((p - entries[ids[active]]) ** 2))
            sim_blocks += int(active.sum())
    return sim_sum / sim_blocks, sim_blocks / samples


@pytest.mark.parametrize("sigma2", [0.0, 0.01, 0.1])
def test_decomposition_simulation_equals_out_of_place_reference_bit_for_bit(model_zoo, sigma2):
    trained, _ = model_zoo(4, 1, 10.0, seed=2)
    samples = 2 * CHUNK_BLOCKS + 3
    # the trained model has one all-active entry, the GDR model several, so
    # only the GDR model's later chunks see the noiseless point's draw order
    for model in (trained, _positive_bias_gdr()):
        out = mse_decomposition(model, None, sigma2, samples, spawn_rng(10, 0))
        mse, fraction = _reference_simulated_mse(model, sigma2, samples, spawn_rng(10, 0))
        assert repr((out["simulated_mse"], out["active_fraction"])) == repr((mse, fraction))
