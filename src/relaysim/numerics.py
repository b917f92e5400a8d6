"""Reproducible random sampling, the dominant singular pair of complex
matrices, and trace bounds on its value.

Draws are kept as real and imaginary blocks (:class:`GaussianBlocks`).  No
routine mutates its inputs.  The samplers take an :class:`RngStream` or a
numpy Generator that they advance, so draws are a function of (seed, index)
and the calls made, independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DegenerateInputError, InvalidParameterError, is_int, is_positive

# Rows per block of the batched kernels.  A block's temporaries stay small
# enough for glibc's allocator to reuse them block after block, where whole
# chunks made it return them to the kernel and fault them in again.  On the
# outage sweeps of the diversity criterion at 10^6 trials per point, 8192 rows
# took 128-212k minor faults against 3k at 4096, and 2048 rows took 15-19%
# more user time in per-block Python overhead.
ROW_BLOCK = 4096


@dataclass(frozen=True)
class RngStream:
    """Counter-based random substream keyed by (master seed, stream index).

    Each (seed, index) pair names an independent Philox substream, so trial t
    can be regenerated bit-for-bit no matter which worker runs it or in what
    order.  ``generator()`` returns a fresh generator positioned at the start
    of the substream every time it is called.
    """

    seed: int
    index: int = 0

    def __post_init__(self):
        for name in ("seed", "index"):
            if not (is_int(v := getattr(self, name)) and 0 <= v < 2**64):
                raise InvalidParameterError(f"{name} must be a 64-bit unsigned int, got {v!r}")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


class GaussianBlocks(NamedTuple):
    """A draw of i.i.d. CN(0, variance) entries kept as its real and imaginary
    standard-normal blocks: entry e is ``scale * (re[e] + 1j * im[e])`` with
    ``scale = sqrt(variance / 2)``."""

    scale: float
    re: np.ndarray
    im: np.ndarray

    def values(self, index=...) -> np.ndarray:
        """The complex entries at ``index`` (all of them by default), each
        computed by the same expression whatever the index."""
        return self.scale * (self.re[index] + 1j * self.im[index])


def re_inner(x: GaussianBlocks, y: GaussianBlocks):
    """Re(x_t^H y_t) per trial t of two (T, M) draws, from the real and
    imaginary blocks alone; re_inner(x, x) is the squared norm of each row."""
    return x.scale * y.scale * (np.einsum("ti,ti->t", x.re, y.re)
                                + np.einsum("ti,ti->t", x.im, y.im))


def row_blocks(n: int) -> Iterator[slice]:
    """Lazy consecutive slices of at most :data:`ROW_BLOCK` rows covering range(n)."""
    return (slice(lo, min(lo + ROW_BLOCK, n)) for lo in range(0, n, ROW_BLOCK))


def gaussian_scale(variance: float) -> float:
    """The ``scale`` of a CN(0, variance) draw's :class:`GaussianBlocks`,
    sqrt(variance / 2)."""
    return np.sqrt(variance / 2.0)


def sample_gaussian_blocks(rng, *shape: int, variance: float = 1.0) -> GaussianBlocks:
    """Draw an array of the given shape of i.i.d. CN(0, variance) entries as
    :class:`GaussianBlocks`.

    Real and imaginary parts are independent N(0, variance/2); the whole real
    block is drawn before the whole imaginary block.  ``rng`` may be an
    :class:`RngStream` (a fresh generator is derived, so repeated calls with
    the same stream return the same array) or a ``numpy.random.Generator``
    (which is advanced in place).
    """
    if not is_positive(variance):
        raise InvalidParameterError(f"variance must be a finite positive number, got {variance!r}")
    if not shape or not all(is_int(m) and m >= 1 for m in shape):
        raise InvalidParameterError(f"dimensions must be positive, got {shape}")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    re = gen.standard_normal(shape)
    return GaussianBlocks(gaussian_scale(variance), re, gen.standard_normal(shape))


def sample_complex_gaussian(rng, *shape: int, variance: float = 1.0) -> np.ndarray:
    """The complex values of :func:`sample_gaussian_blocks` (same arguments,
    same stream use)."""
    return sample_gaussian_blocks(rng, *shape, variance=variance).values()


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate each unit-norm row of v (B, n) so its first non-negligible
    entry is real and nonnegative."""
    first = np.argmax(np.abs(v) > 1e-12, axis=1)
    pivot = np.take_along_axis(v, first[:, None], axis=1)
    return v * (np.abs(pivot) / pivot)


def dominant_singular_pair(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest singular value of ``a`` and its right singular vector.

    A batch of one for :func:`dominant_singular_pair_batch`.  The returned
    vector has unit norm and its first nonzero entry is real nonnegative.
    With a repeated top singular value any unit vector in the dominant
    subspace may be returned.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise InvalidParameterError(f"expected a matrix, got ndim={a.ndim}")
    if not np.any(a):
        raise DegenerateInputError("zero matrix has no dominant singular pair")
    sigma, v = dominant_singular_pair_batch(a[None])
    return float(sigma[0]), v[0]


def dominant_singular_pair_batch(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top singular value and right singular vector of every batch item.

    ``a`` has shape (B, m, n); returns (sigma (B,), v (B, n)).  The pair is
    the top eigenpair of the Gram matrix a^H a (a Hermitian eigensolve per
    item), with v under the phase convention of :func:`dominant_singular_pair`.
    """
    a = np.asarray(a, dtype=complex)
    eigval, eigvec = np.linalg.eigh(np.einsum("bmi,bmj->bij", a.conj(), a))
    sigma = np.sqrt(np.maximum(eigval[:, -1], 0.0))
    return sigma, _fix_phase(eigvec[:, :, -1])


def gram_top_eigenvalue_bounds(re: np.ndarray, im: np.ndarray,
                               k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on the largest eigenvalue of every Gram matrix H^H H, as
    fractions of its trace.

    ``re`` and ``im`` (B, m, n) are the real and imaginary parts of H, at any
    common scale, and ``k`` (B,) is a column index per item, of a nonzero
    column of H (the kernels pass the strongest).  With
    N = H^H H / tr(H^H H), whose eigenvalues lie in [0, 1], returns
    (low, high) per item: the Rayleigh quotient of N at N^2 e_k, and
    (tr N^4)^(1/4) = ||N^2||_F^(1/2).  In exact arithmetic
    low <= lambda_max(N) <= high, with equality when N has rank one; the
    closer e_k is to the top eigenvector, the tighter low (Wolkowicz &
    Styan, Linear Algebra Appl. 29, 1980).

    Everything runs in real arithmetic with batched matmul on the real and
    imaginary parts of N = a + ib (a symmetric, b antisymmetric) and of
    N^2 = p + iq.  Dividing by the trace first keeps every entry of N and
    N^2 in [-1, 1], whatever the scale of H.
    """
    # matmul on contiguous operands; a transposed view takes a slower path
    re_t, im_t = (np.ascontiguousarray(x.transpose(0, 2, 1)) for x in (re, im))
    a = re_t @ re
    a += im_t @ im
    b = re_t @ im
    b -= b.transpose(0, 2, 1)  # im^T re = (re^T im)^T
    del re_t, im_t  # freed before N^2: a chunk's transient peak stays near the eigensolve's
    trace = np.einsum("bii->b", a)[:, None, None]
    a /= trace
    b /= trace
    p = a @ a
    p -= b @ b
    q = a @ b
    q -= q.transpose(0, 2, 1)  # b a = -(a b)^T
    high = np.sqrt(np.sqrt(np.einsum("bij,bij->b", p, p) + np.einsum("bij,bij->b", q, q)))
    rows = np.arange(len(k))
    u, v = p[rows, :, k][:, :, None], q[rows, :, k][:, :, None]  # N^2 e_k = u + iv
    # Re((u + iv)^H N (u + iv)) / |u + iv|^2
    low = (np.sum(u * (a @ u - b @ v) + v * (a @ v + b @ u), axis=(1, 2))
           / np.sum(u * u + v * v, axis=(1, 2)))
    return low, high
