"""BER and outage Monte Carlo engines, confidence intervals, diversity fits.

Both engines run one batched pipeline per chunk: draw the channels, take the
per-antenna link SNRs (gains), apply the selection rule (:func:`select`),
and count outages; the BER engine also pushes one symbol per trial through
the two-slot relay chain and counts detection errors.  Detection reads only
Re(w^H y), so the chain computes that statistic with real inner products on
the drawn real and imaginary blocks of the links and the noise; complex
arrays remain only for the ``optimal-relay-filter`` relay beam.

Both kernels draw their chunk of trials, whose substream and draws
:mod:`~relaysim.stream` defines, one row block at a time into their worker
thread's workspace (:func:`_chunk_rows`), which lives as long as the thread
and never shrinks, and select on each row block of h_rd's imaginary half as
it lands.  An outage worker reduces each link to its gains as it lands and
holds those and a row block (under ``optimal-relay-filter`` h_rd's real half
in place of its gains).  A BER worker holds h_sd, h_sr and h_rd's real half,
keeps of the selection the antennas and r's imaginary half (the beam), and
reduces each row block of a later half at once to the sums the chain reads;
the chain runs as the chunk's last half lands each row block.  So each chunk
reuses the same memory, and the allocator keeps its small temporaries
instead of returning them to the kernel.  Kernels return only counts; no
view of the workspace leaves a chunk.  Chunk boundaries never depend on the
worker count, and counts are summed in chunk order, so results are
bit-identical for any number of threads.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .channel import SystemConfig
from .errors import InsufficientStatisticsError, InvalidParameterError, is_int, is_positive
from .numerics import (ROW_BLOCK, GaussianBlocks, RngStream, dominant_singular_pair_batch,
                       gaussian_scale, gram_top_eigenvalue_bounds, row_blocks)
from .relaying import af_constants
from .selection import STRATEGIES, gamma_srd, mrc_post_snr
from .stream import CHUNK, MAX_TRIALS, chunk_stream, layout

# Relative margin around gamma0 inside which an optimal-relay-filter outage
# trial is left to the eigensolve: about 1e6 times the rounding of the bounds.
_BRACKET_MARGIN = 1e-9
_WORKSPACE = threading.local()  # per-thread kernel buffers, see _workspace
_RX_SUM = "nij,nij->nj"  # per-antenna sums of squares over a link's receive axis


@dataclass(frozen=True)
class BerPoint:
    snr_db: float
    strategy: str
    trials: int
    bit_errors: int
    ber: float
    ci_low: float
    ci_high: float

    @property
    def value(self) -> float:
        return self.ber

    @property
    def errors(self) -> int:
        return self.bit_errors


@dataclass(frozen=True)
class OutagePoint:
    snr_db: float
    strategy: str
    gamma0: float
    trials: int
    outage_count: int
    p_out: float
    ci_low: float
    ci_high: float

    @property
    def value(self) -> float:
        return self.p_out

    @property
    def errors(self) -> int:
        return self.outage_count


@dataclass(frozen=True)
class DiversityFit:
    """Log-log slope estimates of a probability-vs-SNR curve."""

    snr_db: np.ndarray
    values: np.ndarray
    local_slopes: np.ndarray  # between consecutive points, decades/decade
    ls_slope: float           # least-squares slope over the window
    order_estimate: int


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def diversity_order(n_s: int, n_r: int, n_d: int) -> int:
    """Full diversity order of the selection scheme: N_S*N_D + N_R*min(N_S, N_D)."""
    if not all(is_int(n) and n >= 1 for n in (n_s, n_r, n_d)):
        raise InvalidParameterError(f"antenna counts must be integers >= 1, got {(n_s, n_r, n_d)}")
    return n_s * n_d + n_r * min(n_s, n_d)


# ---------------------------------------------------------------------------
# chunk kernels
# ---------------------------------------------------------------------------

def _gains(cfg: SystemConfig, *links):
    """Per-antenna link SNRs gamma_xy = snr * ||column||^2, each (n, antennas),
    taken from the drawn blocks as snr * scale^2 * sum(re^2 + im^2) over the
    receive axis, without building the complex matrices."""
    return tuple(cfg.snr * link.scale ** 2 * (np.einsum(_RX_SUM, link.re, link.re)
                                              + np.einsum(_RX_SUM, link.im, link.im))
                 for link in links)


def select(cfg: SystemConfig, strategy: str, g_sd, g_sr, g_rd, h_rd):
    """Batched selection rules with perfect CSI.

    Returns (i, k, v, gamma): the source antenna and relay antenna per trial
    (k is None when the relay does not transmit on one antenna), the relay
    beam (n, N_R) of ``optimal-relay-filter`` or None, and the closed-form
    post-SNR of the selected configuration.
    """
    rows = np.arange(g_sd.shape[0])
    k = v = None
    if strategy == "direct-only":
        per_i = g_sd
    elif strategy == "mmse-receiver":
        k = np.argmax(g_rd, axis=1)
        per_i = g_sd + gamma_srd(g_sr, g_rd[rows, k][:, None])
    elif strategy == "mrc-receiver":
        grid = mrc_post_snr(g_sd[:, :, None], g_sr[:, :, None], g_rd[:, None, :])
        grid = grid.reshape(rows.size, -1)
        flat = np.argmax(grid, axis=1)
        i, k = np.unravel_index(flat, (cfg.n_s, cfg.n_r))
        return i, k, None, grid[rows, flat]
    elif strategy == "optimal-relay-filter":
        sigma, v = dominant_singular_pair_batch(h_rd)
        per_i = g_sd + gamma_srd(g_sr, (cfg.snr * sigma * sigma)[:, None])
    elif strategy == "fixed-antenna":
        k = np.zeros(rows.size, dtype=int)
        per_i = g_sd[:, :1] + gamma_srd(g_sr[:, :1], g_rd[:, :1])
    else:
        raise InvalidParameterError(f"unknown strategy {strategy!r} (choose from {STRATEGIES})")
    i = np.argmax(per_i, axis=1)
    return i, k, v, per_i[rows, i]


def _workspace(sizes: list[int]) -> list[np.ndarray]:
    """This thread's workspace: flat float64 arrays, entry j at least
    sizes[j] long.  An entry that is too short is replaced and a missing one
    added; every other array is kept, also when a call needs less than it
    holds, so a thread's workspace never shrinks and is not reallocated
    while its calls fit."""
    held = getattr(_WORKSPACE, "arrays", None)
    if held is None:
        held = _WORKSPACE.arrays = []
    for j, size in enumerate(sizes):
        if j == len(held):
            held.append(np.empty(size))
        elif held[j].size < size:
            held[j] = np.empty(size)
    return held


def _view(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """The leading entries of a flat workspace array as a C-contiguous array
    of the given shape."""
    return buffer[:math.prod(shape)].reshape(shape)


def _chunk_rows(cfg: SystemConfig, stream: RngStream, n: int, ber: bool,
                read: Sequence[int]) -> Iterator:
    """The n trials of ``stream.draw(cfg, stream.generator(), n, ber)``, one
    row block at a time.

    Each half (real or imaginary block) of :func:`~relaysim.stream.layout`
    is drawn in order, one :data:`~relaysim.numerics.ROW_BLOCK` at a time,
    into this thread's workspace: chunk-sized for the halves of the links at
    the layout indices ``read``, but h_rd's imaginary one, and into one row
    block otherwise.  A link not read is reduced as it lands into
    chunk-sized gains, the per-antenna sums of :func:`_gains`; a link read
    gets its gains per row block from its halves.  As h_rd's imaginary half
    lands a row block, this yields the block's gains, then its rows of the
    links read; the rows of the kept halves stay valid through the chunk,
    h_rd's imaginary ones only until the next draw.  Under ``ber`` it then
    yields the bits, and (entry, half, rows, block) as each row block of
    each later half lands in the row block.
    """
    entries = layout(cfg, ber)
    kept = [(j, half) for j in read for half in "ri" if (j, half) != (2, "i")]
    reduced = [j for j in range(3) if j not in read]
    size = [math.prod(e[1:]) if e else 0 for e in entries]
    rows = max(n, CHUNK)
    # entry 0 is _ber_chunk's; then the row block, a row block of per-antenna
    # sums, the gains of the links not read and the halves kept
    arrays = _workspace([0, ROW_BLOCK * max(size[j] for j, e in enumerate(entries)
                                            if e and (j, "i") not in kept),
                         ROW_BLOCK * max((entries[j][2] for j in reduced), default=0)]
                        + [rows * entries[j][2] for j in reduced]
                        + [rows * size[j] for j, _ in kept])
    block, scratch = arrays[1:3]
    gains = {j: _view(a, n, entries[j][2]) for j, a in zip(reduced, arrays[3:])}
    halves = {(j, half): _view(a, n, *entries[j][1:])
              for (j, half), a in zip(kept, arrays[3 + len(reduced):])}
    scales = [gaussian_scale(e[0]) if e else None for e in entries]
    gen = stream.generator()
    for j, entry in enumerate(entries):
        if entry is None:
            yield gen.integers(0, 2, n)
            continue
        for half in "ri":
            for b in row_blocks(n):
                m = b.stop - b.start
                out = halves[j, half][b] if (j, half) in halves else _view(block, m, *entry[1:])
                x = gen.standard_normal(out.shape, out=out)
                if j > 2:
                    yield j, half, b, x
                elif j in reduced and half == "r":
                    np.einsum(_RX_SUM, x, x, out=gains[j][b])
                elif j in reduced:
                    gains[j][b] += np.einsum(_RX_SUM, x, x, out=_view(scratch, m, entry[-1]))
                    gains[j][b] *= cfg.snr * scales[j] ** 2
                if (j, half) == (2, "i"):
                    links = [GaussianBlocks(scales[i], halves[i, "r"][b],
                                            x if i == 2 else halves[i, "i"][b]) for i in read]
                    own = dict(zip(read, _gains(cfg, *links)))
                    yield (*(own[i] if i in own else gains[i][b] for i in range(3)), *links)


def _outage_chunk(cfg: SystemConfig, strategy: str, gamma0: float,
                  stream: RngStream, n: int) -> int:
    """Count the trials whose selected post-SNR falls below gamma0, one row
    block of :func:`_chunk_rows` at a time, from the gains and, under
    ``optimal-relay-filter``, h_rd's blocks."""
    read = (2,) if strategy == "optimal-relay-filter" else ()
    return sum(_outage_rows(cfg, strategy, gamma0, *rows)
               for rows in _chunk_rows(cfg, stream, n, False, read))


def _outage_rows(cfg: SystemConfig, strategy: str, gamma0: float, g_sd: np.ndarray,
                 g_sr: np.ndarray, g_rd: np.ndarray, rd: GaussianBlocks | None = None) -> int:
    """The outage count of the trials of one row block, from their gains (and
    under ``optimal-relay-filter`` their h_rd blocks: the real half's rows of
    the chunk and the imaginary row block just drawn).

    Under ``optimal-relay-filter`` the post-SNR grows with the beam's power
    snr*sigma^2, the top eigenvalue of snr*H_RD^H H_RD, whose trace is the
    total relay-destination gain sum_k g_rd.  Two brackets decide most trials
    without the eigensolve.  The first puts the power between the best relay
    antenna's gain g_rd,k (antenna selection, the ``mmse-receiver`` rule) and
    the trace; on 4x4x4 chunks near the benchmark's SNRs it leaves 10-22% of
    the trials undecided.  The second, on those only, puts it between the
    trace times the bounds of :func:`gram_top_eigenvalue_bounds` at that k;
    it leaves under 1%.  A trial whose upper post-SNR is below gamma0, or
    whose lower one reaches it, by a relative margin far above the rounding
    of either side is decided; only the rest run the unchanged rule, on their
    own rows.
    """
    gains = (g_sd, g_sr, g_rd)
    if strategy != "optimal-relay-filter":
        return int(np.count_nonzero(select(cfg, strategy, *gains, None)[3] < gamma0))
    k = np.argmax(g_rd, axis=1)
    trace = np.sum(g_rd, axis=1)
    sure, undecided = _bracket(g_sd, g_sr, gamma0, _row_max(g_rd), trace)
    idx = np.flatnonzero(undecided)
    low, high = gram_top_eigenvalue_bounds(rd.re[idx], rd.im[idx], k[idx])
    sure_2, undecided = _bracket(g_sd[idx], g_sr[idx], gamma0, trace[idx] * low, trace[idx] * high)
    idx = idx[undecided]
    gamma = select(cfg, strategy, g_sd[idx], g_sr[idx], g_rd[idx], rd.values(np.s_[idx]))[3]
    return sum(int(np.count_nonzero(x)) for x in (sure, sure_2, gamma < gamma0))


def _bracket(g_sd: np.ndarray, g_sr: np.ndarray, gamma0: float, low: np.ndarray,
             high: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decide trials from a bracket [low, high] of the relay beam's power:
    masks of the trials certainly in outage, whose post-SNR at ``high`` is
    below gamma0 by the margin, and of those left undecided, whose post-SNR
    at ``low`` does not reach gamma0 by the margin either."""
    post_low, post_high = (_row_max(g_sd + gamma_srd(g_sr, power[:, None]))
                           for power in (low, high))
    sure = post_high < gamma0 * (1.0 - _BRACKET_MARGIN)
    return sure, ~sure & (post_low < gamma0 * (1.0 + _BRACKET_MARGIN))


def _row_max(x: np.ndarray) -> np.ndarray:
    """The largest entry of each row of x (rows, antennas), as an elementwise
    maximum over its columns: with so few columns, ``np.max(x, axis=1)``
    took 25 times as long on 4096 rows."""
    return functools.reduce(np.maximum, x.T)


def _column(half: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Column j[t] of every trial t of a drawn half (T, N_rx, N_tx), as (T, N_rx)."""
    return np.swapaxes(half, 1, 2)[np.arange(len(j)), j]


def _ber_chunk(cfg: SystemConfig, strategy: str, stream: RngStream, n: int) -> int:
    """Simulate n one-symbol blocks through the two-slot chain and count the
    errors, as the halves of :func:`_chunk_rows` land.

    Detection reads only Re(w^H y), so of each noise vector the chain reads
    two reals per trial: Re(x^H noise) and the squared norm of the column x
    it meets, h_sr,i for n_r, h_sd,i for n_d1 and r for n_d2.  r is the
    relay's transmit direction as the destination hears it: column k of
    H_RD, or the beam H_RD v under ``optimal-relay-filter``.  Selection runs
    on each row block of h_rd's imaginary half and keeps i, k and r's
    imaginary half (the whole beam).  Each row block of a noise half is
    reduced as it lands to its share of both reals, from one gather of x's
    half, and the chain runs on each row block of the chunk's last half.
    """
    relay, beam = strategy != "direct-only", strategy == "optimal-relay-filter"
    n_d = cfg.n_d
    width = 2 * n_d if beam else n_d
    # workspace entry 0, per trial: i and k, the two reals per noise vector
    # (unscaled sums over both halves), r's imaginary half or the beam
    state = _workspace([max(n, CHUNK) * (8 + width)])[0]
    ik = state[:2 * n].view(np.int64).reshape(2, n)
    sums = state[2 * n:8 * n].reshape(3, 2, n)
    r = state[8 * n:(8 + width) * n]
    r = r.view(complex).reshape(n, n_d) if beam else r.reshape(n, n_d)
    walk = _chunk_rows(cfg, stream, n, True, (0, 1, 2))
    links = []  # per row block, its rows of h_sr, h_sd and h_rd's real half
    # the walker yields once per row block of h_rd's imaginary half, then
    # the bits and the later halves' row blocks
    for b, (g_sd, g_sr, g_rd, sd, sr, rd) in zip(row_blocks(n), walk):
        h_rd = rd.values() if beam else None
        ik[0, b], k, v, _ = select(cfg, strategy, g_sd, g_sr, g_rd, h_rd)
        if beam:
            r[b] = np.einsum("tdr,tr->td", h_rd, v)
        elif k is not None:
            ik[1, b] = k
            r[b] = _column(rd.im, k)
        links.append((sr, sd, rd.re))
    scales = (sr.scale, sd.scale, 1.0 if beam else rd.scale)
    noise = [gaussian_scale(e[0]) for e in layout(cfg, ber=True)[4:]]
    bits = next(walk)
    errors = 0
    for j, half, b, x in walk:  # n_r, n_d1, n_d2: x meets h_sr,i, h_sd,i, r
        vec = j - 4
        if relay or vec == 1:
            if vec == 2 and beam:
                y = r[b].real if half == "r" else r[b].imag
            elif vec == 2 and half == "i":
                y = r[b]
            else:
                sr, sd, rd_re = links[b.start // ROW_BLOCK]
                rows = (sr.re, sd.re, rd_re) if half == "r" else (sr.im, sd.im)
                y = _column(rows[vec], ik[1 if vec == 2 else 0, b])
            for acc, part in zip(sums[vec, :, b], (np.einsum("ti,ti->t", y, y),
                                                 np.einsum("ti,ti->t", y, x))):
                acc[:] = part if half == "r" else acc + part
        if (j, half) == (6, "i"):
            errors += _ber_rows(cfg, strategy, bits[b], sums[:, :, b], scales, noise)
    return errors


def _ber_rows(cfg: SystemConfig, strategy: str, bits: np.ndarray, sums: np.ndarray,
              scales: Sequence[float], noise: Sequence[float]) -> int:
    """The bit errors of the trials of one row block, from the sums of
    :func:`_ber_chunk` for n_r, n_d1 and n_d2, and the scales of the columns
    they meet and of the noise: Re(x^H y) is x.scale * y.scale times a sum,
    as in :func:`~relaysim.numerics.re_inner`."""
    (g_sr, p_r), (g_sd, p_d1), (g_r, p_d2) = sums
    (c_sr, c_sd, c_r), (w_r, w_d1, w_d2) = scales, noise

    # first slot: the destination hears the selected source antenna directly
    s = (1.0 - 2.0 * bits) * math.sqrt(cfg.snr)
    stat = s * (c_sd * c_sd * g_sd) + c_sd * w_d1 * p_d1

    if strategy != "direct-only":
        # relay: matched-filter combine, rescale, retransmit along r; only the
        # real part of the relayed symbol alpha * h_sr_i^H y_r reaches Re(stat)
        g = np.maximum(c_sr * c_sr * g_sr, 1e-300)  # measure-zero guard
        a, c, alpha = af_constants(g, cfg.snr)
        s_relay = alpha * (s * g + c_sr * w_r * p_r)
        r_power = c_r * c_r * g_r

        # destination: MRC weights the relayed slot by a; MMSE also whitens
        # the amplified relay noise (R_n^{-1} h, a positive multiple of the
        # MMSE filter)
        coef = a if strategy == "mrc-receiver" else a / (1.0 + c * r_power)
        stat = stat + coef * (s_relay * r_power + c_r * w_d2 * p_d2)
    return int(np.count_nonzero((stat < 0) != bits.astype(bool)))


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

def sweep_workers(threads: int, n_rows: int, trials: int) -> int:
    """Worker count of a sweep: min(threads, chunks in the whole sweep, CPUs
    this process may run on).  The CPUs are the affinity mask where the
    platform has one, else ``os.cpu_count()``."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(threads, n_rows * -(-trials // CHUNK), cpus)


def _sweep(points: Sequence[tuple[float, SystemConfig]], strategies: Sequence[str],
           trials: int, seed: int, threads: int, early_stop_errors: int | None,
           kernel) -> list[tuple[str, float, int, int, float, float]]:
    """Run kernel(cfg, strategy, stream, n) chunk by chunk over the (strategy,
    point) rows, strategy-major; chunk c of point p reads ``chunk_stream(seed,
    p, c)`` whatever the strategy.  Returns per row (strategy, label_db, count,
    trials_used, ci_low, ci_high).

    Every chunk runs on one pool of :func:`sweep_workers` workers, also when
    that is one, and the pool is joined before returning.  A free worker
    starts the lowest (row, chunk) that is certainly needed: its row's
    count stays below ``early_stop_errors`` even if every trial of its
    running chunks is an event, so no result in flight can stop the row
    before that chunk.
    Only when no chunk is certainly needed does it start the lowest chunk
    not yet started.  Each row folds its counts in chunk order and stops
    at the first chunk where the count reaches ``early_stop_errors``; later
    results for it are discarded.  One worker therefore runs exactly the
    chunks used, in (strategy, point, chunk) order.
    """
    if not (is_int(trials) and 1 <= trials <= MAX_TRIALS):
        raise InvalidParameterError(
            f"trials_per_point must be an integer in [1, {MAX_TRIALS}], got {trials!r}")
    if not (is_int(threads) and threads >= 1):
        raise InvalidParameterError(f"threads must be an integer >= 1, got {threads!r}")
    if not (early_stop_errors is None or is_int(early_stop_errors) and early_stop_errors >= 1):
        raise InvalidParameterError(
            f"early_stop_errors must be an integer >= 1 or None, got {early_stop_errors!r}")
    if isinstance(strategies, str):
        raise InvalidParameterError(
            f"strategies must be a list of strategy names, got the string {strategies!r}")
    if unknown := [s for s in strategies if s not in STRATEGIES]:
        raise InvalidParameterError(f"unknown strategy {unknown[0]!r} (choose from {STRATEGIES})")
    rows = [(strategy, p) for strategy in strategies for p in range(len(points))]
    n_chunks = (trials + CHUNK - 1) // CHUNK
    limit = math.inf if early_stop_errors is None else early_stop_errors
    started = [0] * len(rows)     # chunks started, in chunk order
    folded = [0] * len(rows)      # chunks folded into count, in chunk order
    count = [0] * len(rows)
    bound = [0] * len(rows)       # count once every started chunk is in, at most
    arrived = [{} for _ in rows]  # chunk -> events, arrived but not yet folded

    def size(c) -> int:  # trials of chunk c; only the last one can be short
        return min(CHUNK, trials - c * CHUNK)

    def live(r) -> bool:
        """Row r has neither stopped early nor folded all its chunks."""
        return count[r] < limit and folded[r] < n_chunks

    def next_chunk() -> tuple[int, int] | None:
        open_ = [r for r in range(len(rows)) if live(r) and started[r] < n_chunks]
        if not open_:
            return None
        r = next((r for r in open_ if bound[r] < limit), open_[0])
        c = started[r]
        started[r] += 1
        bound[r] += size(c)
        return r, c

    def run(r, c):
        strategy, p = rows[r]
        return kernel(points[p][1], strategy, chunk_stream(seed, p, c), size(c))

    workers = sweep_workers(threads, len(rows), trials)
    pool = ThreadPoolExecutor(max_workers=max(workers, 1))  # no rows: no chunks
    in_flight: dict[Future, tuple[int, int]] = {}
    try:
        while True:
            while len(in_flight) < workers and (rc := next_chunk()) is not None:
                in_flight[pool.submit(run, *rc)] = rc
            if not in_flight:
                break
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in done:
                r, c = in_flight.pop(future)
                events = future.result()
                if not live(r):
                    continue
                bound[r] += events - size(c)
                arrived[r][c] = events
                while live(r) and folded[r] in arrived[r]:
                    count[r] += arrived[r].pop(folded[r])
                    folded[r] += 1
    finally:
        pool.shutdown(cancel_futures=True)
    used = [min(f * CHUNK, trials) for f in folded]
    return [(strategy, float(points[p][0]), count[r], used[r], *wilson_interval(count[r], used[r]))
            for r, (strategy, p) in enumerate(rows)]


def run_ber_points(points: Sequence[tuple[float, SystemConfig]], strategies: Sequence[str],
                   trials_per_point: int, seed: int, threads: int = 1,
                   early_stop_errors: int | None = None) -> list[BerPoint]:
    """BER sweep of each strategy over (label_db, config) points, strategy-major.

    Per trial: draw a fading block, run the selection rule with perfect CSI,
    push one BPSK symbol through the two-slot chain, filter, detect.
    """
    results = _sweep(points, strategies, trials_per_point, seed, threads, early_stop_errors,
                     _ber_chunk)
    return [BerPoint(snr_db=db, strategy=strategy, trials=used, bit_errors=errors,
                     ber=errors / used, ci_low=lo, ci_high=hi)
            for strategy, db, errors, used, lo, hi in results]


def run_ber(cfg: SystemConfig, strategy: str, snr_sweep_db: Sequence[float],
            trials_per_point: int, seed: int, threads: int = 1,
            early_stop_errors: int | None = None) -> list[BerPoint]:
    """BER sweep where each point scales the transmit SNR of all links."""
    points = [(db, cfg.with_snr(10.0 ** (db / 10.0))) for db in snr_sweep_db]
    return run_ber_points(points, [strategy], trials_per_point, seed, threads, early_stop_errors)


def run_outage_points(points: Sequence[tuple[float, SystemConfig]], strategies: Sequence[str],
                      gamma0: float, trials_per_point: int, seed: int,
                      threads: int = 1,
                      early_stop_errors: int | None = None) -> list[OutagePoint]:
    """Outage sweep of each strategy over (label_db, config) points, strategy-major.

    Outage is evaluated on the closed-form post-SNR of the selected strategy;
    no symbols are simulated.
    """
    if not is_positive(gamma0):
        raise InvalidParameterError(f"gamma0 must be a finite positive number, got {gamma0!r}")
    results = _sweep(points, strategies, trials_per_point, seed, threads, early_stop_errors,
                     lambda cfg, s, stream, n: _outage_chunk(cfg, s, gamma0, stream, n))
    return [OutagePoint(snr_db=db, strategy=strategy, gamma0=gamma0, trials=used,
                        outage_count=count, p_out=count / used, ci_low=lo, ci_high=hi)
            for strategy, db, count, used, lo, hi in results]


def run_outage(cfg: SystemConfig, strategy: str, gamma0: float,
               snr_sweep_db: Sequence[float], trials_per_point: int, seed: int,
               threads: int = 1,
               early_stop_errors: int | None = None) -> list[OutagePoint]:
    """Outage sweep where each point scales the transmit SNR of all links."""
    points = [(db, cfg.with_snr(10.0 ** (db / 10.0))) for db in snr_sweep_db]
    return run_outage_points(points, [strategy], gamma0, trials_per_point, seed, threads,
                             early_stop_errors)


def fit_diversity(points: Sequence, window: Sequence[float] | None = None) -> DiversityFit:
    """Slope of log10(probability) vs log10(SNR) from a sweep.

    ``points`` are BerPoint/OutagePoint (or anything with .snr_db and .value).
    ``window`` restricts the fit to points whose probability lies inside
    [lo, hi].  Slopes are reported as positive diversity orders.
    """
    sel = list(points)
    if window is not None:
        lo, hi = window
        if lo <= 0:
            raise InvalidParameterError("window bounds must be positive")
        sel = [p for p in sel if lo <= p.value <= hi]
    if len(sel) < 2:
        raise InsufficientStatisticsError("need at least 2 points with probabilities in the window")
    for p in sel:
        if p.value <= 0.0:
            raise InsufficientStatisticsError(
                f"zero probability at snr_db={p.snr_db}: increase trials or shrink the window")
    snr_db = np.array([p.snr_db for p in sel], dtype=float)
    vals = np.array([p.value for p in sel], dtype=float)
    x = snr_db / 10.0  # log10 of linear SNR
    y = np.log10(vals)
    xc = x - x.mean()
    with np.errstate(divide="ignore", invalid="ignore"):  # unresolvable spacing, checked below
        local = -(np.diff(y) / np.diff(x))
        ls = -float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))  # least-squares slope
    if not math.isfinite(ls):
        raise InsufficientStatisticsError("sweep points too close together to fit a slope")
    return DiversityFit(snr_db=snr_db, values=vals, local_slopes=local,
                        ls_slope=ls, order_estimate=int(round(ls)))
