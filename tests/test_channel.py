import numpy as np
import pytest

from aecomm.channel import (
    ChannelSpec,
    awgn,
    sigma2_from_ebn0,
    snr_db_to_sigma2,
    spawn_rng,
)
from aecomm.errors import DomainError


def test_noise_variance_from_ebn0_hand_values():
    # sigma^2 = 1 / (2 R Eb/N0)
    assert sigma2_from_ebn0(4 / 7, 0.0) == pytest.approx(7 / 8)
    assert sigma2_from_ebn0(1.0, 0.0) == pytest.approx(0.5)
    assert sigma2_from_ebn0(3 / 7, 10.0) == pytest.approx(7 / 60)
    with pytest.raises(DomainError):
        sigma2_from_ebn0(0.0, 0.0)
    with pytest.raises(DomainError):
        sigma2_from_ebn0(-1.0, 0.0)


def test_noise_variance_from_snr_round_trips():
    assert snr_db_to_sigma2(0.0) == pytest.approx(1.0)
    assert snr_db_to_sigma2(10.0) == pytest.approx(0.1)
    assert snr_db_to_sigma2(-10.0) == pytest.approx(10.0)
    for s in (-17.0, 0.0, 3.0, 30.0):
        assert -10.0 * np.log10(snr_db_to_sigma2(s)) == pytest.approx(s)


def test_awgn_moments():
    rng = np.random.default_rng(1)
    x = np.zeros((200_000, 7))
    y = awgn(x, 0.25, rng)
    assert abs(float(y.mean())) < 2e-3
    assert float(y.var()) == pytest.approx(0.25, rel=5e-3)


def test_awgn_zero_variance_is_exact_copy():
    x = np.arange(14.0).reshape(2, 7)
    y = awgn(x, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(y, x)
    assert y is not x


def test_awgn_broadcasts_per_row_variance():
    rng = np.random.default_rng(2)
    x = np.zeros((2000, 4))
    sigma2 = np.concatenate([np.full((1000, 1), 4.0), np.full((1000, 1), 0.01)])
    y = awgn(x, sigma2, rng)
    assert float(y[:1000].var()) == pytest.approx(4.0, rel=0.1)
    assert float(y[1000:].var()) == pytest.approx(0.01, rel=0.1)


@pytest.mark.parametrize("sigma2", [0.0, 0.3, "per_row"])
def test_awgn_returns_a_new_array_with_the_out_of_place_bits(sigma2):
    x = np.random.default_rng(3).standard_normal((500, 7))
    if sigma2 == "per_row":
        sigma2 = np.random.default_rng(4).uniform(0.0, 2.0, size=(500, 1))
    before = x.copy()
    y = awgn(x, sigma2, np.random.default_rng(5))
    assert y is not x
    assert not np.shares_memory(y, x)
    assert x.tobytes() == before.tobytes()
    replay = np.random.default_rng(5)
    expected = x + np.sqrt(sigma2) * replay.standard_normal(x.shape) if np.any(sigma2) else x
    assert y.tobytes() == expected.tobytes()


@pytest.mark.parametrize("sigma2", [0.0, 0.3, "per_row"])
def test_awgn_into_out_has_the_bits_of_a_new_array(sigma2):
    x = np.random.default_rng(3).standard_normal((500, 7))
    if sigma2 == "per_row":
        sigma2 = np.random.default_rng(4).uniform(0.0, 2.0, size=(500, 1))
    out = np.full(x.shape, np.nan)
    assert awgn(x, sigma2, np.random.default_rng(5), out=out) is out
    assert out.tobytes() == awgn(x, sigma2, np.random.default_rng(5)).tobytes()


def test_awgn_rejects_negative_variance():
    with pytest.raises(DomainError):
        awgn(np.zeros(3), -0.1, np.random.default_rng(0))


def test_awgn_rejects_non_finite_variance():
    for bad in (np.nan, np.inf, np.array([[0.1], [np.nan]])):
        with pytest.raises(DomainError, match="finite"):
            awgn(np.zeros((2, 3)), bad, np.random.default_rng(0))


def test_channel_spec_rejects_non_finite_points():
    for build in (lambda: ChannelSpec.from_snr_db(7, 4 / 7, np.nan),
                  lambda: ChannelSpec.from_snr_db(7, 4 / 7, -np.inf),
                  lambda: ChannelSpec.from_ebn0(7, 4 / 7, np.nan),
                  lambda: ChannelSpec.from_ebn0(7, 4 / 7, -np.inf),
                  lambda: ChannelSpec(n=7, rate=np.nan, sigma2=0.1),
                  lambda: ChannelSpec(n=7, rate=4 / 7, sigma2=0.1, snr_db=np.nan)):
        with pytest.raises(DomainError):
            build()
    # +inf SNR is the noiseless point
    assert ChannelSpec.from_snr_db(7, 4 / 7, np.inf).sigma2 == 0.0
    assert ChannelSpec.from_ebn0(7, 4 / 7, np.inf).sigma2 == 0.0


def test_channel_spec_constructors():
    spec = ChannelSpec.from_ebn0(7, 4 / 7, 0.0)
    assert spec.snr_kind == "ebn0_db"
    assert spec.sigma2 == pytest.approx(7 / 8)
    assert spec.snr_db == pytest.approx(0.0)
    spec = ChannelSpec.from_snr_db(7, 4 / 7, 10.0)
    assert spec.snr_kind == "snr_db"
    assert spec.sigma2 == pytest.approx(0.1)
    assert 1 / spec.sigma2 == pytest.approx(10.0)


def test_spawn_rng_streams_are_order_independent():
    a = spawn_rng(99, 3).standard_normal(5)
    spawn_rng(99, 0).standard_normal(1)  # unrelated draw in between
    b = spawn_rng(99, 3).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    c = spawn_rng(99, 4).standard_normal(5)
    assert not np.array_equal(a, c)


def test_spawn_rng_multipart_keys():
    a = spawn_rng(7, 1, 2).standard_normal(3)
    b = spawn_rng(7, 1, 3).standard_normal(3)
    c = spawn_rng(7, 2, 2).standard_normal(3)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
