"""Destination-side linear filtering, numerical post-SNR, BPSK detection.

The numerical post-SNR computed here from the stacked observation model is
the ground truth that the closed forms in :mod:`relaysim.selection` are
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SystemConfig
from .errors import InvalidParameterError, NumericalError, is_int
from .numerics import (GaussianBlocks, RngStream, re_inner, row_blocks,
                       sample_gaussian_blocks, solve_hpd)
from .relaying import EquivalentChannel, stacked_channel
from .selection import mmse_post_snr, mrc_post_snr


@dataclass(frozen=True)
class ReceiverFilter:
    """A linear combining vector and the post-SNR it achieves."""

    w: np.ndarray
    kind: str  # "mmse" | "mrc"
    numerical_post_snr: float


def post_snr_of_filter(w: np.ndarray, eq: EquivalentChannel, snr: float) -> float:
    """SNR at the output of one nonzero linear filter,
    E_s |w^H h|^2 / (w^H R_n w), on the full noise covariance of ``eq``.
    Invariant to rescaling of w."""
    w = np.asarray(w, dtype=complex)
    if not np.any(w):
        raise InvalidParameterError("filter vector must be nonzero")
    return float(snr * np.abs(np.vdot(w, eq.h)) ** 2 / np.real(np.vdot(w, eq.r_n @ w)))


def mmse_filter(eq: EquivalentChannel, snr: float) -> ReceiverFilter:
    """MMSE combiner w = E_s R_n^{-1} h, a positive multiple of R_y^{-1} R_ys.

    With R_y = E_s h h^H + R_n, the matrix inversion lemma gives
    R_y^{-1} E_s h = w / (1 + E_s h^H R_n^{-1} h).  Solving with R_n keeps the
    rank-one term E_s h h^H, which swamps R_n in float64 at large receive SNR,
    out of the system.

    R_n = diag(I, I + c r r^H) is as ill-conditioned as the relay's noise gain
    c|r|^2.  Past about 1e16 float64 loses the identity beside c r r^H, and
    the stored R_n turns singular or slightly indefinite.  So w is solved by
    least squares on the unit-diagonal scaling D^{-1} R_n D^{-1},
    D = sqrt(diag R_n), which drops only the directions that rounding made
    singular.  Those carry a negligible share of the noise, so the post-SNR
    is unaffected.

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

    Returns (max_mmse_rel_err, max_mrc_rel_err).  The numerical route never
    touches the closed forms.  It works on the two-slot model slot by slot:
    the noise slots are independent and the direct one is white, so
    R_n = diag(I, R_2), and only the relayed slot's R_2 = I + c r r^H (from
    :func:`~relaysim.relaying.stacked_channel`) is built and solved, for all
    trials of a row block at once (:func:`_row_snrs`).  Under i.i.d.
    unit-gain Rayleigh links the pair's columns h_sd,i (N_D), h_sr,i (N_R)
    and h_rd,k (N_D) are independent CN(0, I) vectors, so each row block
    draws just these, in that order, from the one generator of
    ``RngStream(seed, stream_index)``, and memory does not grow with
    ``trials``.  The closed forms read their link gains from the drawn
    blocks.  n_s is only validated.
    """
    SystemConfig(n_s, n_r, n_d, snr=snr)  # raises on bad sizes or snr
    if not is_int(trials) or trials < 1:
        raise InvalidParameterError(f"trials must be an integer >= 1, got {trials!r}")
    gen = RngStream(seed, stream_index).generator()
    sizes = (n_d, n_r, n_d)  # h_sd,i, h_sr,i, h_rd,k
    worst = np.zeros(2)  # (MMSE, MRC)
    for b in row_blocks(trials):
        numerical, closed = _row_snrs(
            *(sample_gaussian_blocks(gen, b.stop - b.start, m) for m in sizes), snr)
        worst = np.maximum(worst, np.max(np.abs(np.subtract(numerical, closed)) / closed, axis=1))
    return tuple(map(float, worst))


def _row_snrs(sd: GaussianBlocks, sr: GaussianBlocks, rd: GaussianBlocks, snr: float):
    """Per-trial post-SNRs of one row block: the numerical (MMSE, MRC) pair
    and the closed-form (MMSE, MRC) pair.

    The numerical side is trial-last: each vector is (N_D, T) and R_2 is
    (N_D, N_D, T), so every step works on length-T arrays and the
    Python-level steps grow with N_D, not with T.  The MMSE combiner
    w = E_s R_n^{-1} h has the direct half E_s h_sd,i and the relayed half
    w_2 from R_2 w_2 = E_s a r, solved by Gaussian elimination on the explicit
    R_2 (:func:`~relaysim.numerics.solve_hpd`); the MRC combiner is h.  Each
    filter's output SNR E_s |w^H h|^2 / (|w_1|^2 + w_2^H R_2 w_2) is taken on
    the same explicit R_2.  Neither step reads the closed forms or uses the
    rank-one structure of R_2, so the check tests the closed forms instead of
    restating them.
    """
    n_d = sd.re.shape[1]
    g = re_inner(sr, sr)
    h, r_2 = stacked_channel(_trial_last(sd), g, _trial_last(rd), snr)
    h_1, h_2 = h[:n_d], h[n_d:]
    p = _inner(h_1, h_1).real  # |h_1|^2: w_1 = E_s h_1 (MMSE) or h_1 (MRC)
    numerical = []
    for e, w_2 in ((snr, solve_hpd(r_2, snr * h_2)), (1.0, h_2)):
        r_w = sum(r_2[:, j] * w_2[j] for j in range(n_d))
        signal = e * p + _inner(w_2, h_2)
        noise = e * e * p + _inner(w_2, r_w).real
        numerical.append(snr * (signal.real ** 2 + signal.imag ** 2) / noise)
    gains = (snr * re_inner(sd, sd), snr * g, snr * re_inner(rd, rd))
    return numerical, (mmse_post_snr(*gains), mrc_post_snr(*gains))


def _trial_last(x: GaussianBlocks) -> np.ndarray:
    """The complex values of a (T, N) draw as a C-contiguous (N, T) array."""
    out = np.empty(x.re.shape[::-1], dtype=complex)
    out.real, out.imag = x.re.T, x.im.T
    out *= x.scale
    return out


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_t^H y_t per trial t of two trial-last (N, T) arrays."""
    return np.sum(x.conj() * y, axis=0)
