import functools
import itertools
import os
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relaysim.montecarlo

from relaysim.channel import (
    ChannelRealization,
    LinkSnrs,
    SystemConfig,
    config_from_mean_snrs_db,
    link_snrs,
)
from relaysim.errors import InsufficientStatisticsError, InvalidParameterError
from relaysim.montecarlo import (
    BerPoint,
    OutagePoint,
    _ber_chunk,
    _chunk_rows,
    _gains,
    _outage_chunk,
    diversity_order,
    fit_diversity,
    run_ber,
    run_ber_points,
    run_outage,
    run_outage_points,
    select,
    sweep_workers,
    wilson_interval,
)
from relaysim.numerics import (
    ROW_BLOCK,
    RngStream,
    dominant_singular_pair_batch,
    gram_top_eigenvalue_bounds,
)
from relaysim.receiver import detect_bpsk, mmse_filter, mrc_filter
from relaysim.relaying import (
    equivalent_channel,
    equivalent_channel_with_filter,
    optimal_relay_filter,
    relay_gain,
)
from relaysim.selection import (
    STRATEGIES,
    gamma_srd,
    mmse_post_snr,
    select_relay_antenna,
    select_source_antenna,
)
from relaysim.stream import CHUNK, MAX_TRIALS, chunk_stream, draw

# the CPUs this process may run on, counted by the rule of sweep_workers
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class TestWilsonInterval:
    def test_brackets_proportion(self):
        lo, hi = wilson_interval(50, 1000)
        assert lo < 0.05 < hi

    def test_degenerate_counts(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == pytest.approx(0.0, abs=1e-12) and hi > 0.0
        lo, hi = wilson_interval(100, 100)
        assert lo < 1.0 and hi == 1.0

    def test_requires_trials(self):
        with pytest.raises(InvalidParameterError):
            wilson_interval(0, 0)


class TestDiversityOrder:
    @pytest.mark.parametrize("dims,expected", [
        ((2, 2, 2), 8),
        ((3, 3, 3), 18),
        ((2, 3, 1), 5),
        ((1, 1, 1), 2),
    ])
    def test_formula(self, dims, expected):
        assert diversity_order(*dims) == expected

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            diversity_order(0, 1, 1)


def outage_points(snr_db, probs, trials=10**6):
    return [
        OutagePoint(snr_db=s, strategy="mmse-receiver", gamma0=1.0, trials=trials,
                    outage_count=int(p * trials), p_out=p, ci_low=p, ci_high=p)
        for s, p in zip(snr_db, probs)
    ]


class TestFitDiversity:
    def test_exact_power_law(self):
        snr_db = [10.0, 15.0, 20.0, 25.0]
        probs = [10 ** (-2 * s / 10) for s in snr_db]
        fit = fit_diversity(outage_points(snr_db, probs))
        assert fit.ls_slope == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(fit.local_slopes, 2.0)
        assert fit.order_estimate == 2

    def test_noisy_power_law(self):
        gen = np.random.default_rng(0)
        snr_db = np.arange(10, 21, 1.0)
        probs = [3.0 * 10 ** (-8 * s / 10) * (1 + 0.01 * gen.standard_normal())
                 for s in snr_db]
        fit = fit_diversity(outage_points(snr_db, probs))
        assert fit.ls_slope == pytest.approx(8.0, abs=0.2)

    def test_single_point_rejected(self):
        with pytest.raises(InsufficientStatisticsError):
            fit_diversity(outage_points([10.0], [1e-3]))

    def test_zero_probability_named(self):
        pts = outage_points([10.0, 15.0], [1e-3, 0.0])
        with pytest.raises(InsufficientStatisticsError, match="15"):
            fit_diversity(pts)

    def test_unresolvable_spacing_rejected(self):
        # 0 and 5e-211 dB are distinct sweep values, but no slope is fittable
        pts = outage_points([0.0, 4.809057376031833e-211], [0.5, 0.25])
        with pytest.raises(InsufficientStatisticsError, match="too close"):
            fit_diversity(pts)

    def test_window_filters(self):
        snr_db = [0.0, 10.0, 20.0, 30.0]
        probs = [0.5, 1e-3, 1e-5, 1e-8]
        fit = fit_diversity(outage_points(snr_db, probs), window=(1e-6, 1e-2))
        assert len(fit.snr_db) == 2
        assert fit.ls_slope == pytest.approx(2.0)

    @pytest.mark.parametrize("low", [0.0, -1e-3])
    def test_window_bounds_must_be_positive(self, low):
        with pytest.raises(InvalidParameterError, match="window bounds must be positive"):
            fit_diversity(outage_points([10.0, 20.0], [1e-2, 1e-4]), window=(low, 0.1))

    def test_accepts_ber_points(self):
        pts = [BerPoint(s, "direct-only", 10**6, 100, 10 ** (-s / 10), 0, 1)
               for s in (10.0, 20.0)]
        assert fit_diversity(pts).ls_slope == pytest.approx(1.0)


class TestRunBer:
    def test_pure_noise_limit(self):
        cfg = SystemConfig(1, 1, 1)
        p = run_ber(cfg, "direct-only", [-60.0], 10**5, seed=1)[0]
        assert p.ci_low <= 0.5 <= p.ci_high

    def test_rayleigh_bpsk_oracle(self):
        cfg = SystemConfig(1, 1, 1)
        for p in run_ber(cfg, "direct-only", [0.0, 10.0], 10**5, seed=1):
            rho = 10 ** (p.snr_db / 10)
            exact = 0.5 * (1 - np.sqrt(rho / (1 + rho)))
            assert p.ci_low <= exact <= p.ci_high

    def test_selection_beats_fixed_antenna(self):
        cfg = SystemConfig(2, 2, 2)
        sel = run_ber(cfg, "mmse-receiver", [5.0], 10**5, seed=2)[0]
        fix = run_ber(cfg, "fixed-antenna", [5.0], 10**5, seed=2)[0]
        assert sel.ci_high < fix.ci_low

    def test_monotone_in_snr(self):
        cfg = SystemConfig(2, 2, 2)
        pts = run_ber(cfg, "mmse-receiver", [-5.0, 0.0, 5.0], 10**4, seed=3)
        for a, b in zip(pts, pts[1:]):
            assert b.ci_low <= a.ci_high  # nonincreasing up to CI overlap

    def test_deterministic_across_threads(self):
        cfg = SystemConfig(2, 2, 2)
        a = run_ber(cfg, "mrc-receiver", [0.0, 5.0], 10**5, seed=4, threads=1)
        b = run_ber(cfg, "mrc-receiver", [0.0, 5.0], 10**5, seed=4, threads=4)
        assert [p.bit_errors for p in a] == [p.bit_errors for p in b]

    def test_early_stop(self):
        cfg = SystemConfig(1, 1, 1)
        p = run_ber(cfg, "direct-only", [0.0], 10**6, seed=5, early_stop_errors=400)[0]
        assert p.bit_errors >= 400
        assert p.trials < 10**6
        q = run_ber(cfg, "direct-only", [0.0], 10**6, seed=5, early_stop_errors=400)[0]
        assert (p.trials, p.bit_errors) == (q.trials, q.bit_errors)

    def test_unknown_strategy(self):
        with pytest.raises(InvalidParameterError):
            run_ber(SystemConfig(1, 1, 1), "alamouti", [0.0], 100, seed=1)

    def test_strategy_ordering_mid_snr(self):
        cfg = SystemConfig(2, 2, 2)
        best = run_ber(cfg, "optimal-relay-filter", [8.0], 10**5, seed=6)[0]
        mid = run_ber(cfg, "mmse-receiver", [8.0], 10**5, seed=6)[0]
        worst = run_ber(cfg, "mrc-receiver", [8.0], 10**5, seed=6)[0]
        assert best.ber <= mid.ci_high
        assert mid.ber <= worst.ci_high


class TestRunOutage:
    def test_exponential_oracle(self):
        cfg = SystemConfig(1, 1, 1)
        for p in run_outage(cfg, "direct-only", 1.0, [0.0, 10.0], 10**6, seed=7):
            rho = 10 ** (p.snr_db / 10)
            exact = 1 - np.exp(-p.gamma0 / rho)
            assert p.ci_low <= exact <= p.ci_high

    def test_tiny_threshold(self):
        cfg = SystemConfig(1, 1, 1)
        p = run_outage(cfg, "mmse-receiver", 1e-9, [0.0], 10**5, seed=8)[0]
        assert p.p_out <= 1e-4

    def test_mmse_dominates_direct(self):
        cfg = SystemConfig(2, 2, 2)
        for sel, direct in zip(
                run_outage(cfg, "mmse-receiver", 1.0, [0.0, 5.0], 10**5, seed=9),
                run_outage(cfg, "direct-only", 1.0, [0.0, 5.0], 10**5, seed=9)):
            assert sel.p_out <= direct.p_out

    def test_gamma0_validated(self):
        with pytest.raises(InvalidParameterError):
            run_outage(SystemConfig(1, 1, 1), "direct-only", 0.0, [0.0], 100, seed=1)

    def test_deterministic_across_threads(self):
        cfg = SystemConfig(2, 2, 2)
        a = run_outage(cfg, "optimal-relay-filter", 1.0, [0.0], 10**5, seed=10, threads=1)
        b = run_outage(cfg, "optimal-relay-filter", 1.0, [0.0], 10**5, seed=10, threads=3)
        assert a[0].outage_count == b[0].outage_count


class TestWorkerPool:
    """A sweep joins its worker pool before returning, so no engine thread
    outlives the call, also after an early stop or a failed chunk."""

    def test_no_worker_outlives_a_sweep(self):
        cfg = SystemConfig(2, 2, 2)
        before = set(threading.enumerate())
        stopped = run_ber(cfg, "mmse-receiver", [-6.0, -3.0], 6 * CHUNK, seed=3, threads=2,
                          early_stop_errors=1)
        assert set(threading.enumerate()) <= before
        assert all(p.trials == CHUNK for p in stopped)
        serial = run_ber(cfg, "mmse-receiver", [-6.0, -3.0], 6 * CHUNK, seed=3, threads=1,
                         early_stop_errors=1)
        assert stopped == serial
        run_outage(cfg, "mmse-receiver", 1.0, [0.0, 3.0], 3 * CHUNK, seed=3, threads=2)
        assert set(threading.enumerate()) <= before

    def test_failed_chunk_joins_the_pool(self, monkeypatch, threads=2):
        real = relaysim.montecarlo._outage_chunk

        def kernel(cfg, strategy, gamma0, stream, n):
            if stream.index % 4 == 3:
                raise RuntimeError("chunk failed")
            return real(cfg, strategy, gamma0, stream, n)

        monkeypatch.setattr(relaysim.montecarlo, "_outage_chunk", kernel)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="chunk failed"):
            run_outage(SystemConfig(1, 1, 1), "direct-only", 1.0, [0.0], 64 * 1024, seed=1,
                       threads=threads)
        assert set(threading.enumerate()) <= before

    def test_failed_chunk_joins_the_pool_of_one(self, monkeypatch):
        self.test_failed_chunk_joins_the_pool(monkeypatch, threads=1)

    def test_one_worker_runs_exactly_the_chunks_used(self, monkeypatch):
        real = relaysim.montecarlo._ber_chunk
        calls = []

        def kernel(cfg, strategy, stream, n):
            calls.append(stream)
            return real(cfg, strategy, stream, n)

        monkeypatch.setattr(relaysim.montecarlo, "_ber_chunk", kernel)
        points = run_ber(SystemConfig(2, 2, 2), "mmse-receiver", [-6.0, -3.0, 0.0, 8.0],
                         3 * CHUNK + 77, seed=5, threads=1, early_stop_errors=2000)
        used = [-(-p.trials // CHUNK) for p in points]
        assert len(set(used)) >= 2
        assert calls == [chunk_stream(5, p, c) for p, n in enumerate(used) for c in range(n)]

    def test_pool_counts_usable_cpus(self, monkeypatch):
        # a process pinned to one CPU (taskset -c 0) still sees the
        # machine's count in os.cpu_count()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert sweep_workers(8, 4, 4 * CHUNK) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert sweep_workers(8, 4, 4 * CHUNK) == 3

    def test_pool_no_larger_than_the_work(self, monkeypatch):
        # --threads is a cap: the pool has at most min(threads, chunks, CPUs)
        # workers, so a huge thread count starts no more threads than that
        real = relaysim.montecarlo._outage_chunk
        before = set(threading.enumerate())
        alive = []

        def kernel(cfg, strategy, gamma0, stream, n):
            alive.append(len(set(threading.enumerate()) - before))
            time.sleep(0.05)  # keep the chunks overlapping
            return real(cfg, strategy, gamma0, stream, n)

        monkeypatch.setattr(relaysim.montecarlo, "_outage_chunk", kernel)
        cfg = SystemConfig(1, 1, 1)
        for chunks in (2, CPUS + 1):
            alive.clear()
            wide = run_outage(cfg, "direct-only", 1.0, [0.0], chunks * CHUNK, seed=1,
                              threads=10**6)
            assert len(alive) == chunks and max(alive) <= min(chunks, CPUS)
            assert wide == run_outage(cfg, "direct-only", 1.0, [0.0], chunks * CHUNK, seed=1)
        assert set(threading.enumerate()) <= before

    def test_no_chunk_past_an_early_stop_while_needed_work_waits(self, monkeypatch):
        # every point stops at its first chunk; a free worker starts another
        # point's first chunk rather than a chunk that may follow a stop, so
        # at most points + workers - 1 chunks run
        real = relaysim.montecarlo._ber_chunk
        calls = []

        def kernel(cfg, strategy, stream, n):
            calls.append(stream.index)
            time.sleep(0.05)  # keep the chunks overlapping
            return real(cfg, strategy, stream, n)

        cfg = SystemConfig(1, 1, 1)
        snrs = [-6.0, -5.0, -4.0, -3.0, -2.0, -1.0]
        serial = run_ber(cfg, "direct-only", snrs, 4 * CHUNK, seed=8, early_stop_errors=1)
        assert all(p.trials == CHUNK for p in serial)
        monkeypatch.setattr(relaysim.montecarlo, "_ber_chunk", kernel)
        wide = run_ber(cfg, "direct-only", snrs, 4 * CHUNK, seed=8, threads=2,
                       early_stop_errors=1)
        assert wide == serial
        assert len(calls) <= len(snrs) + 2 - 1

    def test_bookkeeping_does_not_grow_with_trials(self, monkeypatch):
        # every chunk is all events, so each row stops at its first chunk; the
        # sweep's own state must not grow with the 610k chunks it was asked for
        monkeypatch.setattr(relaysim.montecarlo, "_outage_chunk",
                            lambda cfg, strategy, gamma0, stream, n: n)
        tracemalloc.start()
        try:
            points = run_outage(SystemConfig(1, 1, 1), "direct-only", 1.0, [0.0, 3.0], 10**10,
                                seed=1, threads=2, early_stop_errors=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert [p.trials for p in points] == [CHUNK, CHUNK]

    @pytest.mark.skipif(CPUS < 2, reason="needs two CPUs")
    def test_single_chunk_points_run_in_parallel(self, monkeypatch):
        # the pool is sized by the chunks of the whole sweep, not of one point
        real = relaysim.montecarlo._outage_chunk
        before = set(threading.enumerate())
        alive = []

        def kernel(cfg, strategy, gamma0, stream, n):
            alive.append(len(set(threading.enumerate()) - before))
            time.sleep(0.05)
            return real(cfg, strategy, gamma0, stream, n)

        monkeypatch.setattr(relaysim.montecarlo, "_outage_chunk", kernel)
        run_outage(SystemConfig(1, 1, 1), "direct-only", 1.0, [0.0, 1.0, 2.0, 3.0], CHUNK,
                   seed=1, threads=2)
        assert max(alive) == 2
        assert set(threading.enumerate()) <= before


class TestStrategyRows:
    """One sweep runs every (strategy, point) row of a multi-strategy call on
    one pool; each row is what its own one-strategy sweep returns."""

    POINTS = [(db, config_from_mean_snrs_db(2, 3, 2, sd_db=db, sr_db=2.0, rd_db=2.0))
              for db in (-8.0, -4.0, 4.0)]
    TRIALS = 2 * CHUNK + 77

    def sweep(self, engine, strategies, threads=1, trials=TRIALS):
        if engine == "ber":
            return run_ber_points(self.POINTS, strategies, trials, 11, threads,
                                  early_stop_errors=1500)
        return run_outage_points(self.POINTS, strategies, 1.0, trials, 11, threads,
                                 early_stop_errors=4000)

    @pytest.mark.parametrize("engine", ["ber", "outage"])
    def test_rows_equal_one_strategy_sweeps(self, engine):
        single = [p for s in STRATEGIES for p in self.sweep(engine, [s])]
        used = [-(-p.trials // CHUNK) for p in single]
        assert {1, 2, 3} <= set(used)  # rows stop at different chunks, some never
        for threads in (1, 2, 3):
            assert self.sweep(engine, list(STRATEGIES), threads) == single

    def test_one_worker_runs_exactly_the_chunks_used(self, monkeypatch):
        real = relaysim.montecarlo._ber_chunk
        calls = []

        def kernel(cfg, strategy, stream, n):
            calls.append((strategy, stream))
            return real(cfg, strategy, stream, n)

        monkeypatch.setattr(relaysim.montecarlo, "_ber_chunk", kernel)
        strategies = ["direct-only", "mmse-receiver", "direct-only"]
        rows = self.sweep("ber", strategies)
        used = [-(-p.trials // CHUNK) for p in rows]
        assert len(set(used)) >= 2
        n_points = len(self.POINTS)
        assert calls == [(strategies[r // n_points], chunk_stream(11, r % n_points, c))
                         for r, n in enumerate(used) for c in range(n)]

    @pytest.mark.parametrize("engine", ["ber", "outage"])
    def test_unknown_strategy_raises_before_any_chunk(self, monkeypatch, engine):
        calls = []
        for name in ("_ber_chunk", "_outage_chunk"):
            monkeypatch.setattr(relaysim.montecarlo, name, lambda *args: calls.append(args))
        before = set(threading.enumerate())
        with pytest.raises(InvalidParameterError, match="alamouti"):
            self.sweep(engine, ["mmse-receiver", "alamouti"], threads=2)
        assert calls == []
        assert set(threading.enumerate()) <= before

    def test_select_rejects_unknown_strategy(self):
        cfg = SystemConfig(2, 2, 2)
        g = np.ones((4, 2))
        with pytest.raises(InvalidParameterError, match="unknown strategy 'alamouti'"):
            select(cfg, "alamouti", g, g, g, None)

    @pytest.mark.parametrize("engine", ["ber", "outage"])
    def test_bare_strategy_string_raises_before_any_pool(self, monkeypatch, engine):
        # a string is a sequence of one-letter names; it must not be taken
        # for a list of strategies
        calls = []
        for name in ("_ber_chunk", "_outage_chunk", "ThreadPoolExecutor"):
            monkeypatch.setattr(relaysim.montecarlo, name, lambda *args, **kw: calls.append(args))
        before = set(threading.enumerate())
        with pytest.raises(InvalidParameterError, match="list of strategy names"):
            self.sweep(engine, "mmse-receiver", threads=2)
        assert calls == []
        assert set(threading.enumerate()) <= before

    @pytest.mark.parametrize("engine", ["ber", "outage"])
    def test_trials_past_the_substreams_raise_before_any_pool(self, monkeypatch, engine):
        # chunk 2^32 of a point would read the substream of the next point's
        # chunk 0, so two points would share draws
        calls = []
        for name in ("_ber_chunk", "_outage_chunk", "ThreadPoolExecutor"):
            monkeypatch.setattr(relaysim.montecarlo, name, lambda *args, **kw: calls.append(args))
        before = set(threading.enumerate())
        with pytest.raises(InvalidParameterError, match="trials_per_point"):
            self.sweep(engine, ["mmse-receiver"], threads=2, trials=MAX_TRIALS + 1)
        assert calls == []
        assert set(threading.enumerate()) <= before

    @pytest.mark.parametrize("engine", ["ber", "outage"])
    @pytest.mark.parametrize("kwargs,name", [
        ({"threads": 0}, "threads"), ({"threads": -2}, "threads"),
        ({"early_stop_errors": 0}, "early_stop_errors"),
        ({"early_stop_errors": -1}, "early_stop_errors")])
    def test_bad_threads_or_early_stop_raise_before_any_pool(self, monkeypatch, engine, kwargs,
                                                               name):
        calls = []
        for fn in ("_ber_chunk", "_outage_chunk", "ThreadPoolExecutor"):
            monkeypatch.setattr(relaysim.montecarlo, fn, lambda *args, **kw: calls.append(args))
        before = set(threading.enumerate())
        run, gamma0 = (run_ber, {}) if engine == "ber" else (run_outage, {"gamma0": 1.0})
        with pytest.raises(InvalidParameterError, match=f"^{name} must be"):
            run(SystemConfig(2, 2, 2), "mmse-receiver", snr_sweep_db=[0.0],
                trials_per_point=1000, seed=1, **gamma0, **kwargs)
        assert calls == []
        assert set(threading.enumerate()) <= before

    def test_no_strategies_no_rows(self):
        assert self.sweep("outage", []) == []


@pytest.mark.parametrize("engine", ["ber", "outage"])
def test_early_stop_sweep_equal_across_threads(engine):
    # points stop at different chunks, the last chunk is short, and the
    # 8 dB point never stops
    cfg = SystemConfig(2, 2, 2)
    snrs = [-6.0, -3.0, 0.0, 8.0]
    trials = 3 * CHUNK + 77

    def sweep(threads):
        if engine == "ber":
            return run_ber(cfg, "mmse-receiver", snrs, trials, seed=5, threads=threads,
                           early_stop_errors=2000)
        return run_outage(cfg, "mrc-receiver", 1.0, snrs, trials, seed=5, threads=threads,
                          early_stop_errors=300)

    serial = sweep(1)
    used = [p.trials for p in serial]
    assert len(set(used)) >= 2 and used[-1] == trials and serial[-1].errors < 300
    for threads in (2, 3):
        assert sweep(threads) == serial


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 3, 4), (3, 3, 3)])
def test_gains_match_link_snrs(dims):
    cfg = SystemConfig(*dims, lambda_sd=0.7, lambda_sr=1.9, lambda_rd=0.2, snr=3.0)
    links = draw(cfg, RngStream(9, 4).generator(), 200)
    gains = _gains(cfg, *links)
    mats = [link.values() for link in links]
    for t in range(200):
        snrs = link_snrs(cfg, ChannelRealization(*(h[t] for h in mats)))
        for g, ref in zip(gains, (snrs.gamma_sd, snrs.gamma_sr, snrs.gamma_rd)):
            np.testing.assert_allclose(g[t], ref, rtol=1e-13, atol=0)


@pytest.mark.parametrize("read", [(), (2,)])
@pytest.mark.parametrize("dims", [(1, 1, 1), (3, 3, 3), (4, 4, 4), (2, 5, 3)])
def test_outage_walker_reduces_gains_as_they_land(dims, read):
    # the outage kernel's gains: the walker reduces each half of a link to
    # per-antenna sums as it lands, and they must equal _gains of the whole draw
    cfg = SystemConfig(*dims, lambda_sd=0.7, lambda_sr=1.9, lambda_rd=0.2, snr=3.0)
    rng, n = RngStream(9, 4), ROW_BLOCK + 77
    rows = list(_chunk_rows(cfg, rng, n, False, read))
    assert len(rows) == 2
    walked = [np.concatenate(blocks) for blocks in zip(*(r[:3] for r in rows))]
    for got, want in zip(walked, _gains(cfg, *draw(cfg, rng.generator(), n)), strict=True):
        np.testing.assert_array_equal(got, want)


# Fixed-seed counts of stream format 1 (seed 2026, 2 * CHUNK + 500 trials per
# point, so three chunks with a short last one).  Any change to the random
# stream or to the rounding that decides a selection or a detection shows here.
GOLDEN_COUNTS = {
    # (dims, strategy): (outage counts at -6 and -3 dB, bit errors at -3 and 0 dB)
    ((2, 2, 2), "mmse-receiver"): ([24099, 4728], [1481, 329]),
    ((2, 2, 2), "mrc-receiver"): ([24758, 5694], [1580, 401]),
    ((2, 2, 2), "optimal-relay-filter"): ([23348, 3945], [1408, 286]),
    ((2, 2, 2), "direct-only"): ([27327, 11557], [2322, 817]),
    ((2, 2, 2), "fixed-antenna"): ([28733, 13900], [2630, 920]),
    ((3, 3, 3), "mmse-receiver"): ([5733, 7], [379, 36]),
    ((3, 3, 3), "mrc-receiver"): ([7124, 23], [444, 46]),
    ((3, 3, 3), "optimal-relay-filter"): ([4053, 3], [339, 29]),
    ((3, 3, 3), "direct-only"): ([14516, 1096], [847, 168]),
    ((3, 3, 3), "fixed-antenna"): ([20333, 3670], [1248, 252]),
}


@pytest.mark.parametrize("dims,strategy", sorted(GOLDEN_COUNTS))
def test_fixed_seed_counts(dims, strategy):
    cfg = SystemConfig(*dims)
    outage = run_outage(cfg, strategy, 1.0, [-6.0, -3.0], 2 * CHUNK + 500, seed=2026)
    ber = run_ber(cfg, strategy, [-3.0, 0.0], 2 * CHUNK + 500, seed=2026)
    counts = ([p.outage_count for p in outage], [p.bit_errors for p in ber])
    assert counts == GOLDEN_COUNTS[dims, strategy]


# Optimal-relay-filter outage counts at 4x4x4, -9 and -7.5 dB, gamma0 = 1 (seed
# 2026, 2 * CHUNK + 500 trials per point), recorded while every trial still ran
# the eigensolve.  Here 10-21% of the trials fall between the beam's first
# bounds (antenna selection and the trace), and 0.4-0.8% between its second
# (the trace-scaled Gram bounds), which leaves them to the eigensolve.
GOLDEN_ORF_4X4X4 = [18027, 2286]


# BER counts at 4x4x4, -6 and -3 dB (seed 2026, 2 * CHUNK + 500 trials per
# point), recorded while the chain still detected on complex arrays.
GOLDEN_BER_4X4X4 = {
    "mmse-receiver": [859, 108],
    "mrc-receiver": [997, 153],
    "optimal-relay-filter": [807, 85],
    "direct-only": [1466, 371],
    "fixed-antenna": [2159, 559],
}


@pytest.mark.parametrize("strategy", sorted(GOLDEN_BER_4X4X4))
def test_fixed_seed_ber_counts_4x4x4(strategy):
    ber = run_ber(SystemConfig(4, 4, 4), strategy, [-6.0, -3.0], 2 * CHUNK + 500, seed=2026)
    assert [p.bit_errors for p in ber] == GOLDEN_BER_4X4X4[strategy]


def svd_batch_sizes(monkeypatch) -> list[int]:
    """Record the batch size of every relay-beam eigensolve the engines run."""
    sizes = []
    real = relaysim.montecarlo.dominant_singular_pair_batch

    def spy(h):
        sizes.append(h.shape[0])
        return real(h)

    monkeypatch.setattr(relaysim.montecarlo, "dominant_singular_pair_batch", spy)
    return sizes


def test_fixed_seed_counts_relay_filter_4x4x4(monkeypatch):
    solved = svd_batch_sizes(monkeypatch)
    trials = 2 * CHUNK + 500
    outage = run_outage(SystemConfig(4, 4, 4), "optimal-relay-filter", 1.0, [-9.0, -7.5],
                        trials, seed=2026)
    assert [p.outage_count for p in outage] == GOLDEN_ORF_4X4X4
    assert 0 < sum(solved) < 0.25 * 2 * trials


def test_relay_filter_4x4x4_eigensolves_under_2_percent(monkeypatch):
    # at the points of test_fixed_seed_counts_relay_filter_4x4x4 the first
    # bracket alone sent 21.7% and 9.3% of the trials to the eigensolve
    solved = svd_batch_sizes(monkeypatch)
    trials = 2 * CHUNK + 500
    run_outage(SystemConfig(4, 4, 4), "optimal-relay-filter", 1.0, [-9.0, -7.5], trials,
               seed=2026)
    assert 0 < sum(solved) < 0.02 * 2 * trials


def orf_gammas(cfg, stream, n):
    """On one chunk's draws: the optimal-relay-filter post-SNR of every trial
    through the full rule, and its antenna-selection and total-power bounds."""
    sd, sr, rd = draw(cfg, stream.generator(), n)
    gains = _gains(cfg, sd, sr, rd)
    gamma = select(cfg, "optimal-relay-filter", *gains, rd.values())[3]
    low = select(cfg, "mmse-receiver", *gains, None)[3]
    high = np.max(gains[0] + gamma_srd(gains[1], gains[2].sum(axis=1, keepdims=True)), axis=1)
    return gamma, low, high


def post_snr(gains, power):
    """The optimal-relay-filter post-SNR of every trial at a given beam power."""
    g_sd, g_sr, _ = gains
    return np.max(g_sd + gamma_srd(g_sr, power[:, None]), axis=1)


def orf_stage_2(cfg, stream, n):
    """On one chunk's draws: the gains, the beam power snr*sigma^2 of every
    trial from the eigensolve, and the second bracket's bounds on it, the
    trace sum_k g_rd times :func:`gram_top_eigenvalue_bounds` at the best
    relay antenna."""
    sd, sr, rd = draw(cfg, stream.generator(), n)
    gains = _gains(cfg, sd, sr, rd)
    sigma, _ = dominant_singular_pair_batch(rd.values())
    low, high = gram_top_eigenvalue_bounds(rd.re, rd.im, np.argmax(gains[2], axis=1))
    trace = gains[2].sum(axis=1)
    return gains, cfg.snr * sigma * sigma, trace * low, trace * high


levels = st.sampled_from([1e-30, 1e-12, 0.05, 1.0, 20.0, 1e12, 1e30]) | st.floats(1e-30, 1e30)


@settings(max_examples=200, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 4)] * 3), lambdas=st.tuples(*[levels] * 4),
       n=st.integers(1, 40), seed=st.integers(0, 2**32), data=st.data())
def test_relay_filter_outage_bounds_keep_the_count(dims, lambdas, n, seed, data):
    cfg = SystemConfig(*dims, *lambdas)
    stream = RngStream(seed, 3)
    gamma, low, high = orf_gammas(cfg, stream, n)
    # thresholds on and around a trial's post-SNR or bounds, where the margin
    # decides, or anywhere in the full range
    edges = [x * f for x in np.concatenate([gamma, low, high])
             for f in (1.0, 1 - 2e-9, 1 - 1e-9, 1 + 1e-9, 1 + 2e-9, 1 / (1 - 1e-9), 1 / (1 + 1e-9))]
    gamma0 = data.draw(st.sampled_from(edges) | st.floats(1e-300, 1e300))
    assert _outage_chunk(cfg, "optimal-relay-filter", gamma0, stream, n) == \
        np.count_nonzero(gamma < gamma0)


@settings(max_examples=200, deadline=None)
@given(dims=st.sampled_from([(1, 1, 1), (3, 1, 2), (2, 4, 1), (4, 4, 4)])
       | st.tuples(*[st.integers(1, 4)] * 3),
       lambdas=st.tuples(*[levels] * 4), n=st.integers(1, 40), seed=st.integers(0, 2**32))
def test_stage_2_bounds_bracket_the_beam_power(dims, lambdas, n, seed):
    cfg = SystemConfig(*dims, *lambdas)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, power, low, high = orf_stage_2(cfg, RngStream(seed, 3), n)
    rounding = 1e-13  # the bounds and the eigensolve each round to a few ulps
    assert np.all(low <= power * (1 + rounding)) and np.all(power <= high * (1 + rounding))
    if cfg.n_r == 1 or cfg.n_d == 1:
        # one relay antenna (both bounds are its column's gain) or a rank-one
        # H_RD (N^2 = N): the bounds meet at the beam's power
        np.testing.assert_allclose(low, power, rtol=rounding, atol=0)
        np.testing.assert_allclose(high, power, rtol=rounding, atol=0)


@settings(max_examples=200, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 4)] * 3), lambdas=st.tuples(*[levels] * 4),
       n=st.integers(1, 40), seed=st.integers(0, 2**32), data=st.data())
def test_relay_filter_outage_stage_2_bounds_keep_the_count(dims, lambdas, n, seed, data):
    cfg = SystemConfig(*dims, *lambdas)
    stream = RngStream(seed, 3)
    gamma, _, _ = orf_gammas(cfg, stream, n)
    gains, _, low, high = orf_stage_2(cfg, stream, n)
    # thresholds on and around the post-SNR at a trial's second bounds, where
    # the margin decides
    edges = [x * f for x in np.concatenate([post_snr(gains, low), post_snr(gains, high)])
             for f in (1.0, 1 - 2e-9, 1 - 1e-9, 1 + 1e-9, 1 + 2e-9, 1 / (1 - 1e-9), 1 / (1 + 1e-9))]
    gamma0 = data.draw(st.sampled_from(edges))
    assert _outage_chunk(cfg, "optimal-relay-filter", gamma0, stream, n) == \
        np.count_nonzero(gamma < gamma0)


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 3)])
def test_relay_filter_outage_bounds_off_by_rounding(dims):
    # with one relay antenna both bounds equal the beam's power in exact
    # arithmetic; rounded, the full rule's post-SNR falls an ulp outside
    # them on some trials, and the margin must leave those to the eigensolve
    cfg = SystemConfig(*dims)
    gamma, low, high = orf_gammas(cfg, RngStream(1, 1), 500)
    below, above = np.flatnonzero(gamma < low), np.flatnonzero(gamma > high)
    assert below.size and above.size
    for gamma0 in (low[below[0]], gamma[above[0]]):
        assert _outage_chunk(cfg, "optimal-relay-filter", gamma0, RngStream(1, 1), 500) == \
            np.count_nonzero(gamma < gamma0)


@pytest.mark.parametrize("gamma0", [1e-300, 1e300])
@pytest.mark.parametrize("dims", [(1, 1, 1), (4, 4, 4), (2, 3, 1), (1, 4, 3)])
def test_relay_filter_outage_without_eigensolve(monkeypatch, dims, gamma0):
    cfg = SystemConfig(*dims, lambda_sd=1e30, lambda_sr=1e-30, lambda_rd=1e30, snr=1e-30)
    gamma, _, _ = orf_gammas(cfg, RngStream(4, 2), 500)
    solved = svd_batch_sizes(monkeypatch)
    count = _outage_chunk(cfg, "optimal-relay-filter", gamma0, RngStream(4, 2), 500)
    assert count == np.count_nonzero(gamma < gamma0) == (500 if gamma0 > 1 else 0)
    assert sum(solved) == 0


@pytest.mark.parametrize("dims", [(4, 4, 4), (1, 4, 4), (2, 4, 3)])
def test_relay_filter_outage_every_trial_undecided(monkeypatch, dims):
    # a negligible direct link and a strong first hop make the post-SNR
    # nearly the beam's own power.  A threshold at a trial's own post-SNR
    # falls inside both of its brackets, so that trial reaches the
    # eigensolve; the trial is picked so that every other trial's second
    # bracket lies clear of it, which leaves it the only one
    cfg = SystemConfig(*dims, lambda_sd=1e-30, lambda_sr=1e30)
    gamma, low, high = orf_gammas(cfg, RngStream(5, 0), 8)
    assert low.max() < high.min()
    gains, _, low_2, high_2 = orf_stage_2(cfg, RngStream(5, 0), 8)
    post_low, post_high = post_snr(gains, low_2), post_snr(gains, high_2)

    def alone(t) -> bool:
        others = np.arange(8) != t
        return bool(np.all((post_high[others] < gamma[t] * (1 - 1e-6))
                           | (post_low[others] > gamma[t] * (1 + 1e-6))))

    gamma0 = gamma[next(t for t in np.argsort(gamma)[1:] if alone(t))]
    assert 0 < np.count_nonzero(gamma < gamma0) < 8
    solved = svd_batch_sizes(monkeypatch)
    assert _outage_chunk(cfg, "optimal-relay-filter", gamma0, RngStream(5, 0), 8) == \
        np.count_nonzero(gamma < gamma0)
    assert solved == [1]


def scalar_ber_errors(cfg, strategy, stream, n):
    """Replay a BER chunk's draws trial by trial through the scalar API:
    selection rule, relay, equivalent channel, receiver filter, detector."""
    sd, sr, rd, bits, *noise = draw(cfg, stream.generator(), n, ber=True)
    h_sd, h_sr, h_rd, n_r, n_d1, n_d2 = (x.values() for x in (sd, sr, rd, *noise))
    errors = 0
    for t in range(n):
        ch = ChannelRealization(h_sd=h_sd[t], h_sr=h_sr[t], h_rd=h_rd[t])
        snrs = link_snrs(cfg, ch)
        s = (1 - 2 * int(bits[t])) * np.sqrt(cfg.snr)
        if strategy == "direct-only":
            i = int(np.argmax(snrs.gamma_sd))
            errors += detect_bpsk(ch.h_sd[:, i], ch.h_sd[:, i] * s + n_d1[t]) != bits[t]
            continue
        if strategy == "optimal-relay-filter":
            # the filter's lambda_rd stands in for the relay antenna's power
            lam = optimal_relay_filter(ch, 0, cfg.snr).lambda_rd
            beam = LinkSnrs(snrs.gamma_sd, snrs.gamma_sr, np.array([cfg.snr * lam]))
            i = select_source_antenna(beam, 0).source_antenna
            rf = optimal_relay_filter(ch, i, cfg.snr)
            eq = equivalent_channel_with_filter(cfg, ch, rf)
            relay_tx = rf.w_relay @ (ch.h_sr[:, i] * s + n_r[t])
        else:
            if strategy == "fixed-antenna":
                i, k = 0, 0
            else:  # the MRC rule searches the whole (i, k) grid and ignores k_o
                receiver = "mrc" if strategy == "mrc-receiver" else "mmse"
                decision = select_source_antenna(snrs, select_relay_antenna(snrs), receiver)
                i, k = decision.source_antenna, decision.relay_antenna
            eq = equivalent_channel(cfg, ch, i, k)
            alpha = relay_gain(float(np.sum(np.abs(ch.h_sr[:, i]) ** 2)), cfg.snr)
            relay_tx = np.zeros(cfg.n_r, dtype=complex)
            relay_tx[k] = alpha * np.vdot(ch.h_sr[:, i], ch.h_sr[:, i] * s + n_r[t])
        y = np.concatenate([ch.h_sd[:, i] * s + n_d1[t], ch.h_rd @ relay_tx + n_d2[t]])
        rx = mrc_filter if strategy == "mrc-receiver" else mmse_filter
        errors += detect_bpsk(rx(eq, cfg.snr).w, y) != bits[t]
    return errors


@functools.lru_cache(maxsize=None)  # one replay serves every gamma0
def scalar_outage_gammas(cfg, strategy, stream, n) -> tuple[float, ...]:
    """Replay an outage chunk's draws trial by trial through the scalar API:
    link SNRs, selection rule, post-SNR of the selected configuration."""
    h_sd, h_sr, h_rd = (link.values() for link in draw(cfg, stream.generator(), n))
    gammas = []
    for t in range(n):
        ch = ChannelRealization(h_sd=h_sd[t], h_sr=h_sr[t], h_rd=h_rd[t])
        snrs = link_snrs(cfg, ch)
        if strategy == "direct-only":
            gamma = np.max(snrs.gamma_sd)
        elif strategy == "fixed-antenna":
            gamma = mmse_post_snr(snrs.gamma_sd[0], snrs.gamma_sr[0], snrs.gamma_rd[0])
        elif strategy == "optimal-relay-filter":
            lam = optimal_relay_filter(ch, 0, cfg.snr).lambda_rd
            beam = LinkSnrs(snrs.gamma_sd, snrs.gamma_sr, np.array([cfg.snr * lam]))
            gamma = select_source_antenna(beam, 0).predicted_post_snr
        else:
            receiver = "mrc" if strategy == "mrc-receiver" else "mmse"
            gamma = select_source_antenna(snrs, select_relay_antenna(snrs),
                                          receiver).predicted_post_snr
        gammas.append(float(gamma))
    return tuple(gammas)


def scalar_outage_count(cfg, strategy, gamma0, stream, n):
    """The outage count of :func:`scalar_outage_gammas` at gamma0."""
    return sum(gamma < gamma0 for gamma in scalar_outage_gammas(cfg, strategy, stream, n))


def check_outage_chunk_against_scalar_path(dims, strategy, gamma0, n):
    cfg = SystemConfig(*dims, snr=10 ** (-0.5))
    stream = RngStream(37, 4)
    assert _outage_chunk(cfg, strategy, gamma0, stream, n) == \
        scalar_outage_count(cfg, strategy, gamma0, stream, n)


@pytest.mark.parametrize("gamma0", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 2), (3, 2, 4), (4, 4, 4)])
def test_outage_chunk_matches_scalar_path(dims, strategy, gamma0):
    check_outage_chunk_against_scalar_path(dims, strategy, gamma0, 400)  # one row block


@pytest.mark.parametrize("gamma0", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 2), (3, 2, 4), (4, 4, 4)])
def test_outage_chunk_matches_scalar_path_across_row_blocks(dims, strategy, gamma0):
    # two row blocks, the last short: the oracle crosses a gains-slice boundary
    check_outage_chunk_against_scalar_path(dims, strategy, gamma0, ROW_BLOCK + 77)


class RecordingGenerator:
    """A numpy Generator that logs every call: method, arguments other than
    ``out``, and a copy of the result."""

    def __init__(self, gen, calls):
        self._gen, self._calls = gen, calls

    def __getattr__(self, attr):
        target = getattr(self._gen, attr)

        def call(*args, **kwargs):
            result = target(*args, **kwargs)
            self._calls.append((attr, args, sorted(kwargs), np.array(result)))
            return result

        return call


def check_row_block_draws(monkeypatch, cfg, ber, kernel):
    """kernel(stream, n) draws stream.draw's layout one row block at a time:
    every call on the chunk's generator is standard_normal for at most
    ROW_BLOCK rows of one half, or the bits in one call, the halves come in
    layout order, and each half's calls together give exactly the variates
    of stream.draw's whole-half call."""
    n = 2 * ROW_BLOCK + 77
    calls = []
    real = RngStream.generator
    monkeypatch.setattr(RngStream, "generator", lambda s: RecordingGenerator(real(s), calls))
    draw(cfg, RngStream(21, 6).generator(), n, ber)
    expected, calls[:] = calls[:], []
    kernel(RngStream(21, 6), n)
    assert len(expected) == (13 if ber else 6)
    got = iter(calls)
    for method, args, _, want in expected:
        if method == "integers":
            bits = next(got)
            assert bits[:3] == ("integers", args, [])
            np.testing.assert_array_equal(bits[3], want)
            continue
        assert method == "standard_normal"
        (_, *trial_shape), = args
        parts = []
        while sum(len(p) for p in parts) < n:
            method, (shape,), kwargs, values = next(got)
            assert method == "standard_normal" and kwargs == ["out"]
            assert 1 <= shape[0] <= ROW_BLOCK and list(shape[1:]) == trial_shape
            parts.append(values)
        np.testing.assert_array_equal(np.concatenate(parts), want)
    assert next(got, None) is None


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 3, 4), (4, 1, 3)])
def test_outage_chunk_draws_like_draw_chunk(monkeypatch, dims, strategy):
    cfg = SystemConfig(*dims, lambda_sd=0.5, lambda_rd=2.0, snr=0.3)
    check_row_block_draws(monkeypatch, cfg, False,
                          lambda stream, n: _outage_chunk(cfg, strategy, 1.0, stream, n))


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 3, 4), (4, 1, 3)])
def test_ber_chunk_draws_like_draw(monkeypatch, dims, strategy):
    cfg = SystemConfig(*dims, lambda_sd=0.5, lambda_rd=2.0, snr=0.3)
    check_row_block_draws(monkeypatch, cfg, True,
                          lambda stream, n: _ber_chunk(cfg, strategy, stream, n))


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 2), (1, 1, 1), (4, 4, 4)])
def test_ber_chunk_matches_scalar_path(strategy, dims):
    cfg = SystemConfig(*dims, snr=10 ** (-0.5))
    stream = RngStream(31, 5)
    expected = scalar_ber_errors(cfg, strategy, stream, 300)
    assert expected > 0
    assert _ber_chunk(cfg, strategy, stream, 300) == expected


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_ber_chunk_matches_scalar_path_across_row_blocks(strategy):
    # two row blocks, the last short: the chain runs on each row block of the
    # last half and slices every kept half per block
    cfg = SystemConfig(2, 3, 4, snr=10 ** (-0.5))
    stream = RngStream(31, 5)
    n = ROW_BLOCK + 77
    assert _ber_chunk(cfg, strategy, stream, n) == scalar_ber_errors(cfg, strategy, stream, n)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_ber_chunk_matches_scalar_path_over_three_row_blocks(strategy):
    # two full row blocks and a short last one: each noise half is reduced
    # into the per-trial sums one row block at a time, real before imaginary
    cfg = SystemConfig(3, 4, 2, snr=10 ** (-0.5))
    stream = RngStream(41, 2)
    n = 2 * ROW_BLOCK + 77
    assert _ber_chunk(cfg, strategy, stream, n) == scalar_ber_errors(cfg, strategy, stream, n)


# snr and each lambda log-uniform over the whole SystemConfig range
log_level = st.floats(-30.0, 30.0).map(lambda e: 10.0 ** e)


@settings(max_examples=150, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 4)] * 3), strategy=st.sampled_from(STRATEGIES),
       levels=st.tuples(*[log_level] * 4), seed=st.integers(0, 2**32))
def test_ber_chunk_matches_scalar_path_over_levels(dims, strategy, levels, seed):
    cfg = SystemConfig(*dims, *levels)
    stream = RngStream(seed, 2)
    assert _ber_chunk(cfg, strategy, stream, 24) == scalar_ber_errors(cfg, strategy, stream, 24)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 3, 4), (4, 4, 4)])
def test_ber_chunk_at_the_ends_of_the_range(dims, strategy):
    # every corner of the SystemConfig range: no overflow, underflow to an
    # invalid value or division by zero anywhere in the chain
    for levels in itertools.product((1e-30, 1e30), repeat=4):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            count = _ber_chunk(SystemConfig(*dims, *levels), strategy, RngStream(6, 1), 200)
        assert 0 <= count <= 200


def traced_bytes(call) -> tuple[int, int]:
    """Bytes left allocated after one call, and the peak during it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def traced_peak_bytes(call) -> int:
    """Peak bytes allocated during one call, traced after a warm-up call on
    the same thread (which fills that thread's workspace)."""
    call()
    return traced_bytes(call)[1]


KERNEL_CASES = [(kernel, (3, 3, 3), strategy, -4.5) for kernel in ("outage", "ber")
                for strategy in STRATEGIES] + [("outage", (4, 4, 4), "optimal-relay-filter", -7.5)]


def kernel_call(kernel, dims, strategy, snr_db, stream, n):
    cfg = SystemConfig(*dims, snr=10 ** (snr_db / 10))
    if kernel == "outage":
        return lambda: _outage_chunk(cfg, strategy, 1.0, stream, n)
    return lambda: _ber_chunk(cfg, strategy, stream, n)


@pytest.mark.parametrize("kernel, dims, strategy, snr_db", KERNEL_CASES)
def test_chunk_allocation_budget(kernel, dims, strategy, snr_db):
    # the draws reuse the thread's workspace and the rest runs on row blocks,
    # so a full chunk allocates under 3 MB beside its workspace (1.5-3.6 MiB
    # for outage, 7.3-7.7 MiB for BER at 3x3x3)
    call = kernel_call(kernel, dims, strategy, snr_db, RngStream(12, 3), CHUNK)
    assert traced_peak_bytes(call) < 3 * 2**20


def run_on_fresh_thread(calls) -> list:
    """Results of the calls made in order on one new thread."""
    results = []
    worker = threading.Thread(target=lambda: results.extend(call() for call in calls))
    worker.start()
    worker.join(timeout=300)
    assert not worker.is_alive() and len(results) == len(calls)
    return results


@pytest.mark.parametrize("dims, strategy, snr_db", [
    *(((3, 3, 3), strategy, -4.5) for strategy in STRATEGIES if strategy != "optimal-relay-filter"),
    ((4, 4, 4), "mmse-receiver", -7.5), ((4, 4, 4), "optimal-relay-filter", -7.5)])
def test_outage_workspace_under_half_a_chunk_of_links(dims, strategy, snr_db):
    # an outage chunk reduces each link to its gains as it is drawn, so its
    # thread keeps less than half the float64 of the chunk's links (2 per
    # antenna pair and trial) once the chunk is done.  optimal-relay-filter
    # also keeps h_rd's real half: n_d*n_r + 2*n_s + n_r per trial and two
    # row blocks, under half from 4x4x4 on.  The first call runs on another
    # thread, so the process's one-time allocations are not counted
    call = kernel_call("outage", dims, strategy, snr_db, RngStream(12, 3), CHUNK)
    run_on_fresh_thread([call])
    left, _ = run_on_fresh_thread([lambda: traced_bytes(call)])[0]
    n_s, n_r, n_d = dims
    assert left < CHUNK * (n_d * n_s + n_r * n_s + n_d * n_r) * 8


@pytest.mark.parametrize("dims, strategy", [
    *(((3, 3, 3), s) for s in ("mmse-receiver", "optimal-relay-filter")),
    *(((4, 4, 4), s) for s in ("mmse-receiver", "optimal-relay-filter")),
    ((2, 5, 3), "mrc-receiver"), ((2, 5, 3), "optimal-relay-filter")])
def test_outage_worker_keeps_gains_and_row_blocks(dims, strategy):
    # each half is drawn and reduced one row block at a time, so a worker
    # keeps the gains (2*n_s + n_r per trial), one row block of the largest
    # link and a row block of per-antenna sums; optimal-relay-filter also
    # keeps h_rd's real half (n_d*n_r per trial).  The 16 KiB of slack
    # (2-4 KiB used) covers the workspace's list and array objects
    call = kernel_call("outage", dims, strategy, -4.5, RngStream(12, 3), CHUNK)
    run_on_fresh_thread([call])
    left, _ = run_on_fresh_thread([lambda: traced_bytes(call)])[0]
    n_s, n_r, n_d = dims
    budget = 8 * (CHUNK * (2 * n_s + n_r)
                  + ROW_BLOCK * (max(n_d * n_s, n_r * n_s, n_d * n_r) + max(n_s, n_r)))
    if strategy == "optimal-relay-filter":
        budget += 8 * CHUNK * n_d * n_r
    assert left <= budget + 2**14


@pytest.mark.parametrize("dims, strategy", [
    *(((3, 3, 3), s) for s in ("mmse-receiver", "optimal-relay-filter")),
    *(((4, 4, 4), s) for s in ("mrc-receiver", "optimal-relay-filter")),
    ((2, 5, 3), "direct-only"), ((2, 5, 3), "fixed-antenna")])
def test_ber_worker_keeps_every_half_but_the_last(dims, strategy):
    # the chain runs on each row block of the chunk's last half (n_d2's
    # imaginary block) as it lands, so a worker keeps every other half
    # chunk-sized (2 float64 per trial and entry of the links and noise,
    # less n_d), that row block and at most one row block of per-antenna
    # sums.  The 16 KiB of slack covers the workspace's list and array objects
    call = kernel_call("ber", dims, strategy, -4.5, RngStream(12, 3), CHUNK)
    run_on_fresh_thread([call])
    left, _ = run_on_fresh_thread([lambda: traced_bytes(call)])[0]
    n_s, n_r, n_d = dims
    per_trial = 2 * (n_d * n_s + n_r * n_s + n_d * n_r + n_r + 2 * n_d) - n_d
    assert left <= 8 * (CHUNK * per_trial + ROW_BLOCK * (n_d + max(n_s, n_r))) + 2**14


@pytest.mark.parametrize("dims, strategy", [
    *(((3, 3, 3), s) for s in ("mmse-receiver", "optimal-relay-filter")),
    *(((4, 4, 4), s) for s in ("mrc-receiver", "optimal-relay-filter")),
    ((2, 5, 3), "direct-only"), ((2, 5, 3), "fixed-antenna")])
def test_ber_worker_keeps_the_links_and_the_chain_sums(dims, strategy):
    # selection runs as h_rd's imaginary half lands, and each later half is
    # reduced one row block at a time, so a worker keeps h_sd, h_sr and h_rd's
    # real half (2*n_s*(n_d + n_r) + n_d*n_r float64 per trial), at most
    # 2*n_d + 9 more per trial for r's imaginary half or the beam, the
    # indices, the bits and the sums the chain reads, and the row block, of
    # which h_rd's imaginary half needs the most.  The 16 KiB of slack covers
    # the workspace's list and array objects
    call = kernel_call("ber", dims, strategy, -4.5, RngStream(12, 3), CHUNK)
    run_on_fresh_thread([call])
    left, _ = run_on_fresh_thread([lambda: traced_bytes(call)])[0]
    n_s, n_r, n_d = dims
    per_trial = 2 * n_s * (n_d + n_r) + n_d * n_r + 2 * n_d + 9
    assert left <= 8 * (CHUNK * per_trial + ROW_BLOCK * n_d * n_r) + 2**14


def test_outage_workspace_kept_when_a_call_needs_less():
    # a thread that moves from optimal-relay-filter rows to mmse-receiver
    # rows on the same dims keeps its workspace: the same list of the same
    # arrays, none freed and none allocated
    def held():
        arrays = relaysim.montecarlo._WORKSPACE.arrays
        return arrays, list(arrays)

    orf, mmse = (kernel_call("outage", (4, 4, 4), strategy, -7.5, RngStream(12, c), CHUNK)
                 for c, strategy in enumerate(["optimal-relay-filter", "mmse-receiver"]))
    _, (before, before_items), count, (after, after_items) = run_on_fresh_thread(
        [orf, held, mmse, held])
    assert after is before and len(after_items) == len(before_items)
    assert all(a is b for a, b in zip(after_items, before_items))
    assert count == run_on_fresh_thread([mmse])[0]


def test_reused_workspace_matches_fresh_threads():
    # one thread runs every kernel on one workspace: per mode and dims, a
    # shrinking and growing trial count (a stale row past n would show), then
    # the next dims in the same mode, then both modes in turn on each dims (a
    # workspace of the wrong shapes would show), then outage with and without
    # the h_rd real half optimal-relay-filter keeps, BER between them, on the
    # same dims (the workspace never shrinks, so later calls read arrays
    # larger than they need); counts must equal a fresh thread's
    dims = [(1, 1, 1), (2, 3, 4), (4, 4, 4)]
    cases = [*itertools.product(["outage", "ber"], dims, [CHUNK, 77, CHUNK, 5000]),
             *((kernel, d, 5000) for d in dims for kernel in ("outage", "ber"))]
    cases = [(*case, STRATEGIES[c % len(STRATEGIES)]) for c, case in enumerate(cases)]
    cases += [(kernel, d, n, strategy) for d in dims[1:] for kernel, n, strategy in [
        ("outage", CHUNK, "optimal-relay-filter"), ("ber", 5000, "mmse-receiver"),
        ("outage", 5000, "mrc-receiver"), ("outage", 77, "optimal-relay-filter"),
        ("outage", CHUNK, "direct-only")]]
    calls = [kernel_call(kernel, d, strategy, -3.0, RngStream(13, c), n)
             for c, (kernel, d, n, strategy) in enumerate(cases)]
    shared = run_on_fresh_thread(calls)
    assert shared == [run_on_fresh_thread([call])[0] for call in calls]
