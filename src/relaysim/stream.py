"""Stream format 1: which variates a sweep draws, and from which substream.

A sweep's randomness is a function of (seed, point, chunk) alone.  Chunk c
of sweep point p draws from the Philox substream (seed, p * 2^32 + c)
(:func:`chunk_stream`); its n <= CHUNK trials draw :func:`layout` in order,
each Gaussian block's whole real half before its whole imaginary half.
:func:`draw` is the reference draw, one call per half; a half split into
consecutive calls on the same generator gives the same variates, so the
kernels draw each half one row block at a time.  A change to any definition
here changes the variates and bumps STREAM_FORMAT.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelRealization, SystemConfig
from .numerics import RngStream, sample_gaussian_blocks

STREAM_FORMAT = 1
CHUNK = 1 << 14
POINT_STRIDE = 1 << 32  # substream indices per sweep point
MAX_TRIALS = CHUNK * POINT_STRIDE  # per point; more would read the next point's substreams


def chunk_stream(seed: int, point: int, chunk: int) -> RngStream:
    """The substream of chunk ``chunk`` of sweep point ``point``."""
    return RngStream(seed, point * POINT_STRIDE + chunk)


def layout(cfg: SystemConfig, ber: bool = False) -> list:
    """A chunk's draws in stream order, each (variance, *shape per trial) of a
    Gaussian block or None for the bits.  h_sd, h_sr, h_rd (N_rx, N_tx), then
    for BER the bits, the relay noise (N_R) and the two destination noise
    slots (N_D)."""
    blocks = [(cfg.lambda_sd, cfg.n_d, cfg.n_s), (cfg.lambda_sr, cfg.n_r, cfg.n_s),
              (cfg.lambda_rd, cfg.n_d, cfg.n_r)]
    if ber:
        blocks += [None, (1.0, cfg.n_r), (1.0, cfg.n_d), (1.0, cfg.n_d)]
    return blocks


def draw(cfg: SystemConfig, gen: np.random.Generator, n: int, ber: bool = False) -> list:
    """Draw n trials of :func:`layout` from ``gen``, in order, each half in
    one call: the bits as ``gen.integers(0, 2, n)``, each Gaussian block as
    :class:`~relaysim.numerics.GaussianBlocks` of shape (n, *shape)."""
    return [gen.integers(0, 2, n) if block is None else
            sample_gaussian_blocks(gen, n, *block[1:], variance=block[0])
            for block in layout(cfg, ber)]


def draw_realization(cfg: SystemConfig, rng: RngStream) -> ChannelRealization:
    """Draw one independent Rayleigh block for all three links: a one-trial
    :func:`draw` from a fresh generator of ``rng``."""
    return ChannelRealization(*(link.values(0) for link in draw(cfg, rng.generator(), 1)))
