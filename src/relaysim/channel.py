"""System configuration and per-block Rayleigh fading realizations.

Noise power is normalized to 1 at every node; any noise imbalance is folded
into the per-link mean power gains (lambda_sd, lambda_sr, lambda_rd).  The
transmit power ``snr`` therefore doubles as the transmit SNR E_s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError, is_int, is_number, is_positive


@dataclass(frozen=True)
class SystemConfig:
    """Antenna counts, per-link mean power gains, and transmit SNR.

    n_s, n_r, n_d: antennas at source, relay, destination.
    lambda_sd/sr/rd: mean per-entry channel power gain of each link (linear).
    snr: transmit power E_s with unit noise power (linear).
    All four lie in [1e-30, 1e30] (+-300 dB), where the engines' products stay finite.
    """

    n_s: int
    n_r: int
    n_d: int
    lambda_sd: float = 1.0
    lambda_sr: float = 1.0
    lambda_rd: float = 1.0
    snr: float = 1.0

    def __post_init__(self):
        for name in ("n_s", "n_r", "n_d"):
            v = getattr(self, name)
            if not is_int(v) or v < 1:
                raise InvalidParameterError(f"{name} must be a positive integer, got {v!r}")
        for name in ("lambda_sd", "lambda_sr", "lambda_rd", "snr"):
            v = getattr(self, name)
            if not is_number(v) or not 1e-30 <= v <= 1e30:
                raise InvalidParameterError(f"{name} must be in [1e-30, 1e30], got {v!r}")

    def with_snr(self, snr: float) -> "SystemConfig":
        if not is_positive(snr):
            raise InvalidParameterError(f"snr must be a finite positive number, got {snr!r}")
        return replace(self, snr=float(snr))


@dataclass(frozen=True)
class ChannelRealization:
    """One fading block: the three link matrices.

    h_sd: N_D x N_S, h_sr: N_R x N_S, h_rd: N_D x N_R.  Column i of h_xy is
    the vector channel seen from transmit antenna i.
    """

    h_sd: np.ndarray
    h_sr: np.ndarray
    h_rd: np.ndarray


@dataclass(frozen=True)
class LinkSnrs:
    """Per-antenna receive SNRs gamma_xy = ||column||^2 * snr (linear)."""

    gamma_sd: np.ndarray  # (N_S,)
    gamma_sr: np.ndarray  # (N_S,)
    gamma_rd: np.ndarray  # (N_R,)


def link_snrs(cfg: SystemConfig, ch: ChannelRealization) -> LinkSnrs:
    """Squared column norms scaled by the transmit SNR, for every antenna."""
    if ch.h_sd.shape != (cfg.n_d, cfg.n_s) or ch.h_sr.shape != (cfg.n_r, cfg.n_s) \
            or ch.h_rd.shape != (cfg.n_d, cfg.n_r):
        raise InvalidParameterError("realization dimensions do not match the config")
    return LinkSnrs(
        gamma_sd=np.sum(np.abs(ch.h_sd) ** 2, axis=0) * cfg.snr,
        gamma_sr=np.sum(np.abs(ch.h_sr) ** 2, axis=0) * cfg.snr,
        gamma_rd=np.sum(np.abs(ch.h_rd) ** 2, axis=0) * cfg.snr,
    )


def lambda_from_mean_snr_db(mean_snr_db: float, snr: float, n_rx: int = 1,
                            reference: str = "per-pair") -> float:
    """Convert a mean receive SNR in dB into a per-entry power gain lambda.

    reference="per-pair": mean_snr_db is the mean SNR of one tx/rx antenna
    pair, i.e. lambda * snr.  reference="aggregate": mean_snr_db is the mean
    per-column receive SNR, i.e. n_rx * lambda * snr.
    """
    target = 10.0 ** (mean_snr_db / 10.0)
    if reference == "per-pair":
        return target / snr
    if reference == "aggregate":
        return target / (snr * n_rx)
    raise InvalidParameterError(f"unknown snr reference {reference!r}")


def config_from_mean_snrs_db(n_s: int, n_r: int, n_d: int,
                             sd_db: float, sr_db: float, rd_db: float,
                             snr: float = 1.0,
                             reference: str = "per-pair") -> SystemConfig:
    """Build a config whose link gains realize the given mean SNRs in dB."""
    return SystemConfig(
        n_s=n_s, n_r=n_r, n_d=n_d,
        lambda_sd=lambda_from_mean_snr_db(sd_db, snr, n_d, reference),
        lambda_sr=lambda_from_mean_snr_db(sr_db, snr, n_r, reference),
        lambda_rd=lambda_from_mean_snr_db(rd_db, snr, n_d, reference),
        snr=snr,
    )
