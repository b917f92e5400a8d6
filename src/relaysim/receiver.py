"""Destination-side linear filtering, numerical post-SNR, BPSK detection.

The numerical post-SNR computed here from the stacked observation model is
the ground truth that the closed forms in :mod:`relaysim.selection` are
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .numerics import RngStream, hermitian_solve, sample_complex_gaussian
from .relaying import EquivalentChannel, af_constants


@dataclass(frozen=True)
class ReceiverFilter:
    """A linear combining vector and the post-SNR it achieves."""

    w: np.ndarray
    kind: str  # "mmse" | "mrc"
    numerical_post_snr: float


def post_snr_of_filter(w: np.ndarray, eq: EquivalentChannel, snr: float) -> float:
    """SNR at the output of an arbitrary linear filter:
    E_s |w^H h|^2 / (w^H R_n w).  Invariant to rescaling of w."""
    w = np.asarray(w, dtype=complex)
    if not np.any(w):
        raise InvalidParameterError("filter vector must be nonzero")
    signal = abs(np.vdot(w, eq.h)) ** 2 * snr
    noise = np.real(np.vdot(w, eq.r_n @ w))
    return float(signal / noise)


def mmse_filter(eq: EquivalentChannel, snr: float) -> ReceiverFilter:
    """MMSE combiner w = R_y^{-1} R_ys, solved as a Hermitian PD system."""
    r_y = snr * np.outer(eq.h, eq.h.conj()) + eq.r_n
    r_y = 0.5 * (r_y + r_y.conj().T)  # symmetrize roundoff
    w = hermitian_solve(r_y, snr * eq.h)
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
    h_sd = sample_complex_gaussian(gen, trials, n_d, n_s)
    h_sr = sample_complex_gaussian(gen, trials, n_r, n_s)
    h_rd = sample_complex_gaussian(gen, trials, n_d, n_r)
    i = gen.integers(0, n_s, trials)
    k = gen.integers(0, n_r, trials)

    rows = np.arange(trials)
    hsd_i = h_sd[rows, :, i]                      # (T, N_D)
    hsr_i = h_sr[rows, :, i]                      # (T, N_R)
    r_vec = h_rd[rows, :, k]                      # (T, N_D)
    g = np.sum(np.abs(hsr_i) ** 2, axis=1)        # (T,)

    a, c, _ = af_constants(g, snr)
    h = np.concatenate([hsd_i, a[:, None] * r_vec], axis=1)          # (T, 2N_D)
    r_n = np.broadcast_to(np.eye(2 * n_d, dtype=complex), (trials, 2 * n_d, 2 * n_d)).copy()
    r_n[:, n_d:, n_d:] += c[:, None, None] * np.einsum("ti,tj->tij", r_vec, r_vec.conj())

    def num_post_snr(w):
        sig = snr * np.abs(np.einsum("ti,ti->t", w.conj(), h)) ** 2
        noise = np.real(np.einsum("ti,tij,tj->t", w.conj(), r_n, w))
        return sig / noise

    r_y = snr * np.einsum("ti,tj->tij", h, h.conj()) + r_n
    w_mmse = np.linalg.solve(r_y, snr * h[..., None])[..., 0]
    num_mmse = num_post_snr(w_mmse)
    num_mrc = num_post_snr(h)

    from .selection import mmse_post_snr, mrc_post_snr

    g_sd = snr * np.sum(np.abs(hsd_i) ** 2, axis=1)
    g_sr = snr * g
    g_rd = snr * np.sum(np.abs(r_vec) ** 2, axis=1)
    cf_mmse = mmse_post_snr(g_sd, g_sr, g_rd)
    cf_mrc = mrc_post_snr(g_sd, g_sr, g_rd)

    err_mmse = float(np.max(np.abs(num_mmse - cf_mmse) / cf_mmse))
    err_mrc = float(np.max(np.abs(num_mrc - cf_mrc) / cf_mrc))
    return err_mmse, err_mrc
