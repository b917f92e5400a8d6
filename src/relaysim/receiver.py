"""Destination-side linear filtering, numerical post-SNR, BPSK detection.

The numerical post-SNR computed here from the stacked observation model is
the ground truth that the closed forms in :mod:`relaysim.selection` are
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SystemConfig
from .errors import InvalidParameterError, NumericalError
from .numerics import RngStream, row_blocks, sample_complex_gaussian
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
    """Batched MMSE combiners w = E_s R_n^{-1} h for h (T, M) and R_n (T, M, M).

    With R_y = E_s h h^H + R_n, the matrix inversion lemma gives
    R_y^{-1} E_s h = w / (1 + E_s h^H R_n^{-1} h), a positive multiple of w,
    so w attains the MMSE post-SNR.  Solving with R_n keeps the rank-one term
    E_s h h^H, which swamps R_n in float64 at large receive SNR, out of the
    system.
    """
    return np.linalg.solve(r_n, snr * h[..., None])[..., 0]


def mmse_filter(eq: EquivalentChannel, snr: float) -> ReceiverFilter:
    """MMSE combiner w = E_s R_n^{-1} h, the filter :func:`mmse_weights`
    computes for a batch, a positive multiple of R_y^{-1} R_ys.

    R_n = I + c r r^H is as ill-conditioned as the relay's noise gain c|r|^2.
    Past about 1e16 float64 loses the identity beside c r r^H, and the stored
    R_n turns singular or slightly indefinite.  So w is solved by least
    squares on the unit-diagonal scaling D^{-1} R_n D^{-1}, D = sqrt(diag R_n),
    which drops only the directions that rounding made singular.  Those carry
    a negligible share of the noise, so the post-SNR is unaffected.

    Raises :class:`NumericalError` unless R_n is Hermitian, has a positive
    diagonal and is positive semidefinite up to rounding.
    """
    r_n = eq.r_n
    if not np.allclose(r_n, r_n.conj().T):
        raise NumericalError("R_n is not Hermitian")
    d = np.real(np.diag(r_n))
    if not np.all(d > 0):
        raise NumericalError("R_n is not positive definite: its diagonal is not positive")
    d = np.sqrt(d)
    scaled = r_n / np.outer(d, d)
    lam = np.linalg.eigvalsh(scaled)
    if lam[0] < -len(lam) * np.finfo(float).eps * lam[-1]:
        raise NumericalError(f"R_n is not positive definite: eigenvalue {lam[0]:.3g} "
                             f"of its unit-diagonal scaling")
    w = np.linalg.lstsq(scaled, snr * eq.h / d, rcond=None)[0] / d
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
    evaluated filters over random realizations of one (source, relay)
    antenna pair.

    Returns (max_mmse_rel_err, max_mrc_rel_err).  The numerical route builds
    the stacked channel and noise covariance explicitly, solves the MMSE
    system with a batched linear solve, and evaluates E_s|w^H h|^2/(w^H R w);
    it never touches the closed forms.  Under i.i.d. unit-gain Rayleigh links
    the pair's columns h_sd,i (N_D), h_sr,i (N_R) and h_rd,k (N_D) are
    independent CN(0, I) vectors, so each row block draws just these, in that
    order, from the one generator of ``RngStream(seed, stream_index)``, and
    memory does not grow with ``trials``.  n_s is only validated.
    """
    SystemConfig(n_s, n_r, n_d, snr=snr)  # raises on bad sizes or snr
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    gen = RngStream(seed, stream_index).generator()
    sizes = (n_d, n_r, n_d)  # h_sd,i, h_sr,i, h_rd,k
    devs = [_check_rows(*(sample_complex_gaussian(gen, b.stop - b.start, m) for m in sizes), snr)
            for b in row_blocks(trials)]
    return tuple(max(col) for col in zip(*devs))


def _check_rows(hsd_i, hsr_i, r_vec, snr: float) -> tuple[float, float]:
    """:func:`closed_form_check` over the (T, N_D), (T, N_R) and (T, N_D)
    vectors of one row block."""
    g = np.sum(np.abs(hsr_i) ** 2, axis=1)  # (T,)
    h, r_n = stacked_channel(hsd_i, g, r_vec, snr)

    w_mmse = mmse_weights(h, r_n, snr)
    gains = (snr * np.sum(np.abs(hsd_i) ** 2, axis=1), snr * g,
             snr * np.sum(np.abs(r_vec) ** 2, axis=1))
    return tuple(float(np.max(np.abs(filter_snr(w, h, r_n, snr) - cf) / cf))
                 for w, cf in ((w_mmse, mmse_post_snr(*gains)), (h, mrc_post_snr(*gains))))
