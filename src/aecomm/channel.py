"""AWGN channel: the two SNR conventions and seeded noise sampling.

Two conventions coexist and are kept apart by name everywhere:
  - Eb/N0 (energy per information bit), used for coded-baseline sweeps;
    noise variance per dimension is sigma2 = 1 / (2 R Eb/N0).
  - SNR = 1/sigma2, used for training and operating points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def sigma2_from_ebn0(rate: float, ebn0_db: float) -> float:
    """Noise variance per dimension at a given rate and Eb/N0 in dB."""
    if rate <= 0:
        raise DomainError(f"rate must be positive, got {rate}")
    # NaN and -inf name no noise level; +inf is the noiseless point
    if not ebn0_db > -np.inf:
        raise DomainError(f"Eb/N0 must be a number above -inf dB, got {ebn0_db}")
    return 1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))


def snr_db_to_sigma2(snr_db: float) -> float:
    """Noise variance per dimension from SNR = 1/sigma2 in dB."""
    return 10.0 ** (-snr_db / 10.0)


def awgn(x, sigma2, rng: np.random.Generator, out: np.ndarray | None = None):
    """y = x + n with n i.i.d. Normal(0, sigma2) per element.

    sigma2 may be a scalar or an array that broadcasts to x's shape (e.g.
    one variance per batch row, shaped (B, 1)). sigma2 = 0 returns a copy
    of x. The result is a new array, or `out` when given: a C-contiguous
    float64 array of x's shape that does not overlap x. The noise is drawn
    into it, scaled and has x added in place, which gives the bits of
    x + sqrt(sigma2) * noise, since IEEE products and sums commute exactly.
    """
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if not (np.isfinite(sigma2) & (sigma2 >= 0)).all():
        raise DomainError("noise variance must be finite and non-negative")
    x = np.asarray(x, dtype=np.float64)
    if not sigma2.any():
        if out is None:
            return x.copy()
        np.copyto(out, x)
        return out
    y = rng.standard_normal(x.shape, out=out)
    y *= np.sqrt(sigma2)
    y += x
    return y


@dataclass(frozen=True)
class ChannelSpec:
    """One operating point: block length, rate, and noise variance."""

    n: int
    rate: float
    sigma2: float
    snr_kind: str = "snr_db"  # which convention snr_db quotes
    snr_db: float = 0.0

    def __post_init__(self):
        # snr_db = +inf is the noiseless point (sigma2 = 0); NaN is no point
        if not (np.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise DomainError(f"noise variance must be finite and non-negative, "
                              f"got {self.sigma2}")
        if not np.isfinite(self.rate):
            raise DomainError(f"rate must be finite, got {self.rate}")
        if np.isnan(self.snr_db):
            raise DomainError("SNR must not be NaN")

    @classmethod
    def from_ebn0(cls, n: int, rate: float, ebn0_db: float) -> "ChannelSpec":
        return cls(n=n, rate=rate, sigma2=sigma2_from_ebn0(rate, ebn0_db),
                   snr_kind="ebn0_db", snr_db=ebn0_db)

    @classmethod
    def from_snr_db(cls, n: int, rate: float, snr_db: float) -> "ChannelSpec":
        return cls(n=n, rate=rate, sigma2=snr_db_to_sigma2(snr_db),
                   snr_kind="snr_db", snr_db=snr_db)


def spawn_rng(master_seed, *key) -> np.random.Generator:
    """Independent generator stream for (master seed, key...), order-free.

    Evaluating sweep points in any order gives identical per-point noise
    because each point derives its own stream from the master seed.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(key)))
