"""Relay-side processing.

The relay receives on all antennas, combines with a matched filter, rescales
to its power constraint, and retransmits either on one selected antenna or
through the rank-one SVD filter.  The two-slot observation at the destination
is summarized by a stacked equivalent channel with spatially colored noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, SystemConfig
from .errors import DegenerateInputError, InvalidParameterError, is_number, is_positive
from .numerics import dominant_singular_pair


@dataclass(frozen=True)
class EquivalentChannel:
    """Stacked two-slot model y = h s + n for one (source, relay) choice.

    h: length 2*N_D effective channel; the top half is the direct link, the
    bottom half the relayed path scaled by the first-hop quality.
    r_n: 2*N_D x 2*N_D Hermitian noise covariance; identity in the first
    slot, identity plus a rank-one term from the amplified relay noise in
    the second.
    relay_antenna is None when the relay applies the SVD filter instead of
    transmitting on a single antenna.
    """

    h: np.ndarray
    r_n: np.ndarray
    source_antenna: int
    relay_antenna: int | None

    def __post_init__(self):
        h, r_n = np.shape(self.h), np.shape(self.r_n)
        if len(h) != 1 or h[0] < 2 or h[0] % 2 or r_n != (h[0], h[0]):
            raise InvalidParameterError(
                f"h must have length 2*N_D and r_n shape (2*N_D, 2*N_D), got {h} and {r_n}")


@dataclass(frozen=True)
class RelayFilter:
    """Rank-one relay filter W = v (h_sr)^H scaled to the power constraint.

    lambda_rd is the squared top singular value of H_RD; it plays the role
    of the selected-antenna channel power in the post-SNR closed forms.
    """

    w_relay: np.ndarray
    v: np.ndarray
    lambda_rd: float
    source_antenna: int


def af_constants(g, snr: float):
    """Amplify-and-forward constants for first-hop channel power g (scalar or
    array), g = ||h_sr^(i)||^2:

    a = sqrt(g)/sqrt(g + 1/snr) scales the relayed path in the stacked channel,
    c = 1/(g + 1/snr) weighs the amplified relay noise in its covariance, and
    alpha = 1/sqrt(g^2 + g/snr) is the relay gain.
    """
    g = np.asarray(g, dtype=float)
    a = np.sqrt(g) / np.sqrt(g + 1.0 / snr)
    c = 1.0 / (g + 1.0 / snr)
    alpha = 1.0 / np.sqrt(g * g + g / snr)
    return a, c, alpha


def relay_gain(g: float, snr: float) -> float:
    """Amplification that holds the relay's expected transmit power at E_s.

    g is the received channel power ||h_sr^(i)||^2.  alpha = 1/sqrt(g^2 + g/snr).
    """
    if not is_positive(snr):
        raise InvalidParameterError(f"snr must be a finite positive number, got {snr!r}")
    if not is_number(g) or g < 0:
        raise InvalidParameterError(f"channel power must be a finite number >= 0, got {g!r}")
    if g == 0:
        raise DegenerateInputError("relay receives nothing (zero source-relay channel)")
    return float(af_constants(g, snr)[2])


def stacked_channel(h_sd_i: np.ndarray, g, r_vec: np.ndarray, snr: float):
    """Batched :class:`EquivalentChannel` model, trial-last, from the direct
    columns h_sd_i (N_D, T), first-hop powers g (T,) and relayed path vectors
    r_vec (N_D, T).

    Returns h (2N_D, T) and the relayed slot's noise covariance
    R_2 = I + c r r^H (N_D, N_D, T), formed explicitly one row at a time,
    each entry a length-T array.  The two noise slots are independent and
    the direct slot's covariance is the identity, so R_n = diag(I, R_2).
    """
    a, c, _ = af_constants(g, snr)
    h = np.concatenate([h_sd_i, a * r_vec])
    r_conj = r_vec.conj()
    r_2 = np.empty((len(r_vec), *r_vec.shape), dtype=complex)
    for i, row in enumerate(r_2):
        np.multiply(c * r_vec[i], r_conj, out=row)
        row[i] += 1.0
    return h, r_2


def _equivalent(cfg: SystemConfig, ch: ChannelRealization, i: int, r_vec: np.ndarray,
                relay_antenna: int | None) -> EquivalentChannel:
    """The batch of one of :func:`stacked_channel` for source antenna i, with
    the full noise covariance R_n = diag(I, R_2)."""
    g = float(np.sum(np.abs(ch.h_sr[:, i]) ** 2))
    if g == 0:
        raise DegenerateInputError("zero source-relay channel for antenna %d" % i)
    h, r_2 = stacked_channel(ch.h_sd[:, i, None], [g], r_vec[:, None], cfg.snr)
    n_d = cfg.n_d
    r_n = np.eye(2 * n_d, dtype=complex)
    r_n[n_d:, n_d:] = r_2[..., 0]
    return EquivalentChannel(h=h[:, 0], r_n=r_n, source_antenna=i,
                             relay_antenna=relay_antenna)


def equivalent_channel(cfg: SystemConfig, ch: ChannelRealization,
                       i: int, k: int) -> EquivalentChannel:
    """Equivalent channel for source antenna i relaying through antenna k."""
    if not (0 <= i < cfg.n_s) or not (0 <= k < cfg.n_r):
        raise InvalidParameterError(f"antenna indices out of range: i={i}, k={k}")
    return _equivalent(cfg, ch, i, ch.h_rd[:, k], k)


def equivalent_channel_with_filter(cfg: SystemConfig, ch: ChannelRealization,
                                   rf: RelayFilter) -> EquivalentChannel:
    """Equivalent channel when the relay applies the rank-one SVD filter.

    The relayed path vector becomes H_RD v, whose squared norm is lambda_rd.
    """
    return _equivalent(cfg, ch, rf.source_antenna, ch.h_rd @ rf.v, None)


def optimal_relay_filter(ch: ChannelRealization, i_o: int, snr: float) -> RelayFilter:
    """SNR-optimal rank-one relay filter: beamform along the top right
    singular vector of H_RD after matched-filtering the first hop."""
    alpha = relay_gain(float(np.sum(np.abs(ch.h_sr[:, i_o]) ** 2)), snr)  # raises on zero h_sr
    sigma, v = dominant_singular_pair(ch.h_rd)  # raises on zero H_RD
    w = alpha * np.outer(v, ch.h_sr[:, i_o].conj())
    return RelayFilter(w_relay=w, v=v, lambda_rd=sigma * sigma, source_antenna=i_o)
