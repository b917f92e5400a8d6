"""Destination-side linear filtering, numerical post-SNR, BPSK detection.

The numerical post-SNR computed here from the stacked observation model is
the ground truth that the closed forms in :mod:`relaysim.selection` are
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SystemConfig, draw_links
from .errors import InvalidParameterError, NumericalError
from .numerics import RngStream
from .relaying import EquivalentChannel, stacked_channel
from .selection import mmse_post_snr, mrc_post_snr


@dataclass(frozen=True)
class ReceiverFilter:
    """A linear combining vector and the post-SNR it achieves."""

    w: np.ndarray
    kind: str  # "mmse" | "mrc"
    numerical_post_snr: float


def filter_snr(w: np.ndarray, h: np.ndarray, r_n: np.ndarray, snr: float) -> np.ndarray:
    """Batched SNR at the output of linear filters, E_s |w^H h|^2 / (w^H R_n w),
    for w, h (T, M) and R_n (T, M, M).  Invariant to rescaling of each w."""
    signal = snr * np.abs(np.einsum("ti,ti->t", w.conj(), h)) ** 2
    noise = np.real(np.einsum("ti,tij,tj->t", w.conj(), r_n, w))
    return signal / noise


def post_snr_of_filter(w: np.ndarray, eq: EquivalentChannel, snr: float) -> float:
    """SNR at the output of one nonzero linear filter (a batch of one of
    :func:`filter_snr`)."""
    w = np.asarray(w, dtype=complex)
    if not np.any(w):
        raise InvalidParameterError("filter vector must be nonzero")
    return float(filter_snr(w[None], eq.h[None], eq.r_n[None], snr)[0])


def mmse_weights(h: np.ndarray, r_n: np.ndarray, snr: float) -> np.ndarray:
    """Batched MMSE combiners w = R_y^{-1} E_s h with R_y = E_s h h^H + R_n,
    for h (T, M) and R_n (T, M, M)."""
    r_y = snr * np.einsum("ti,tj->tij", h, h.conj()) + r_n
    return np.linalg.solve(r_y, snr * h[..., None])[..., 0]


def mmse_filter(eq: EquivalentChannel, snr: float) -> ReceiverFilter:
    """MMSE combiner w = R_y^{-1} R_ys (a batch of one of :func:`mmse_weights`).

    Raises :class:`NumericalError` unless R_y is Hermitian positive definite.
    """
    r_y = snr * np.outer(eq.h, eq.h.conj()) + eq.r_n
    if not np.allclose(r_y, r_y.conj().T):
        raise NumericalError("R_y is not Hermitian")
    try:
        np.linalg.cholesky(r_y)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"R_y is not positive definite: {exc}") from exc
    w = mmse_weights(eq.h[None], eq.r_n[None], snr)[0]
    return ReceiverFilter(w=w, kind="mmse",
                          numerical_post_snr=post_snr_of_filter(w, eq, snr))


def mrc_filter(eq: EquivalentChannel, snr: float) -> ReceiverFilter:
    """Maximal ratio combiner w = h (SNR-optimal only under white noise)."""
    w = eq.h.copy()
    return ReceiverFilter(w=w, kind="mrc",
                          numerical_post_snr=post_snr_of_filter(w, eq, snr))


def detect_bpsk(w: np.ndarray, y_d: np.ndarray) -> int:
    """Hard BPSK decision: bit 0 for Re(w^H y) >= 0, bit 1 otherwise.

    Bit b maps to the symbol (1 - 2b) * sqrt(E_s); the tie Re(w^H y) == 0
    decides for +1 (bit 0).
    """
    return int(np.real(np.vdot(w, y_d)) < 0)


def closed_form_check(n_s: int, n_r: int, n_d: int, snr: float,
                      trials: int, seed: int, stream_index: int = 0) -> tuple[float, float]:
    """Max relative deviation of the closed-form post-SNRs from numerically
    evaluated filters over random realizations with random antenna choices.

    Returns (max_mmse_rel_err, max_mrc_rel_err).  The numerical route builds
    the stacked channel and noise covariance explicitly, solves the MMSE
    system with a batched linear solve, and evaluates E_s|w^H h|^2/(w^H R w);
    it never touches the closed forms.
    """
    gen = RngStream(seed, stream_index).generator()
    sd, sr, rd = draw_links(gen, trials, SystemConfig(n_s, n_r, n_d, snr=snr))
    i = gen.integers(0, n_s, trials)
    k = gen.integers(0, n_r, trials)

    rows = np.arange(trials)
    hsd_i = sd.values(np.s_[rows, :, i])          # (T, N_D)
    r_vec = rd.values(np.s_[rows, :, k])          # (T, N_D)
    g = np.sum(np.abs(sr.values(np.s_[rows, :, i])) ** 2, axis=1)  # (T,)
    h, r_n = stacked_channel(hsd_i, g, r_vec, snr)

    w_mmse = mmse_weights(h, r_n, snr)
    gains = (snr * np.sum(np.abs(hsd_i) ** 2, axis=1), snr * g,
             snr * np.sum(np.abs(r_vec) ** 2, axis=1))
    return tuple(float(np.max(np.abs(filter_snr(w, h, r_n, snr) - cf) / cf))
                 for w, cf in ((w_mmse, mmse_post_snr(*gains)), (h, mrc_post_snr(*gains))))
