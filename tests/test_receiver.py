import itertools
import tracemalloc

import numpy as np
import pytest

from relaysim.channel import ChannelRealization, SystemConfig, link_snrs
from relaysim.errors import InvalidParameterError, NumericalError
from relaysim.numerics import RngStream, sample_complex_gaussian, sample_gaussian_blocks
from relaysim.receiver import (
    _row_snrs,
    closed_form_check,
    detect_bpsk,
    mmse_filter,
    mrc_filter,
    post_snr_of_filter,
)
from relaysim.relaying import EquivalentChannel, equivalent_channel
from relaysim.selection import mmse_post_snr, mrc_post_snr, mrc_post_snr_variant
from relaysim.stream import draw_realization


def make_eq(h, r_n):
    return EquivalentChannel(h=np.asarray(h, complex), r_n=np.asarray(r_n, complex),
                             source_antenna=0, relay_antenna=0)


class TestPostSnrOfFilter:
    def test_matched_filter_white_noise(self):
        h = np.array([1 + 1j, 2.0])
        eq = make_eq(h, np.eye(2))
        assert post_snr_of_filter(h, eq, 3.0) == pytest.approx(3.0 * 6.0)

    def test_orthogonal_filter_nulls_signal(self):
        eq = make_eq([1.0, 0.0], np.eye(2))
        assert post_snr_of_filter(np.array([0.0, 1.0]), eq, 1.0) == 0.0

    def test_zero_filter_rejected(self):
        eq = make_eq([1.0, 0.0], np.eye(2))
        with pytest.raises(InvalidParameterError):
            post_snr_of_filter(np.zeros(2), eq, 1.0)

    def test_scale_invariance(self):
        gen = RngStream(41).generator()
        h = sample_complex_gaussian(gen, 4, 1)[:, 0]
        m = sample_complex_gaussian(gen, 4, 4)
        eq = make_eq(h, m @ m.conj().T + np.eye(4))
        w = sample_complex_gaussian(gen, 4, 1)[:, 0]
        base = post_snr_of_filter(w, eq, 2.0)
        for _ in range(20):
            c = sample_complex_gaussian(gen, 1, 1)[0, 0]
            assert abs(post_snr_of_filter(c * w, eq, 2.0) - base) <= 1e-12 * base

    def test_random_filter_below_mmse(self):
        cfg = SystemConfig(2, 2, 2, snr=3.0)
        gen = RngStream(42).generator()
        for trial in range(20):
            ch = draw_realization(cfg, RngStream(42, trial))
            eq = equivalent_channel(cfg, ch, 0, 0)
            best = mmse_filter(eq, cfg.snr).numerical_post_snr
            w = sample_complex_gaussian(gen, 2 * cfg.n_d, 1)[:, 0]
            assert post_snr_of_filter(w, eq, cfg.snr) <= best * (1 + 1e-10)


class TestMmseFilter:
    def test_white_noise_collapses_to_mrc(self):
        h = np.array([1 + 2j, 0.5, -1j, 0.25])
        eq = make_eq(h, np.eye(4))
        f = mmse_filter(eq, 2.0)
        direction = f.w / f.w[0]
        assert np.allclose(direction, h / h[0], rtol=1e-9)
        assert f.numerical_post_snr == pytest.approx(mrc_filter(eq, 2.0).numerical_post_snr,
                                                     rel=1e-10)

    def test_scalar_example(self):
        eq = make_eq([1.0, 1.0], np.diag([1.0, 2.0]))
        f = mmse_filter(eq, 1.0)
        assert f.w[1] / f.w[0] == pytest.approx(0.5, rel=1e-9)
        assert f.numerical_post_snr == pytest.approx(1.5, rel=1e-10)

    def test_matches_closed_form(self):
        for trial, (n_s, n_r, n_d) in enumerate([(1, 1, 1), (2, 3, 2), (4, 2, 3)]):
            cfg = SystemConfig(n_s, n_r, n_d, snr=2.5)
            ch = draw_realization(cfg, RngStream(43, trial))
            snrs = link_snrs(cfg, ch)
            eq = equivalent_channel(cfg, ch, 0, 0)
            cf = mmse_post_snr(snrs.gamma_sd[0], snrs.gamma_sr[0], snrs.gamma_rd[0])
            assert mmse_filter(eq, cfg.snr).numerical_post_snr == pytest.approx(cf, rel=1e-9)

    def test_zero_matrix_rejected(self):
        with pytest.raises(NumericalError):
            mmse_filter(make_eq(np.zeros(2), np.zeros((2, 2))), 1.0)

    def test_non_hermitian_rejected(self):
        # cholesky reads one triangle only; the other must not be ignored
        with pytest.raises(NumericalError):
            mmse_filter(make_eq([1.0, 1.0], [[1.0, 0.5], [0.0, 1.0]]), 1.0)

    def test_indefinite_rejected(self):
        with pytest.raises(NumericalError):
            mmse_filter(make_eq([1.0, 1.0], [[1.0, 2.0], [2.0, 1.0]]), 1.0)

    # snr 1e12 with every lambda 1e6, and snr 1e20, where the rank-one term of
    # R_y once swamped its identity; then every corner of the SystemConfig
    # range, where the relay's noise gain c|r|^2 reaches 1e60 and the stored
    # R_n = I + c r r^H is singular or indefinite in float64
    @pytest.mark.parametrize("levels", [(1e6, 1e6, 1e6, 1e12), (1.0, 1.0, 1.0, 1e20),
                                        *itertools.product((1e-30, 1e30), repeat=4)])
    @pytest.mark.parametrize("dims", [(2, 2, 2), (4, 4, 4)])
    def test_matches_closed_form_over_the_range(self, dims, levels):
        cfg = SystemConfig(*dims, *levels)
        for trial in range(30):
            ch = draw_realization(cfg, RngStream(46, trial))
            snrs = link_snrs(cfg, ch)
            i, k = trial % cfg.n_s, (trial // 2) % cfg.n_r
            eq = equivalent_channel(cfg, ch, i, k)
            cf = mmse_post_snr(snrs.gamma_sd[i], snrs.gamma_sr[i], snrs.gamma_rd[k])
            assert mmse_filter(eq, cfg.snr).numerical_post_snr == pytest.approx(cf, rel=1e-9)

    def test_shape_mismatch_rejected(self):
        # an h of length 2 with a 3x3 r_n once reached the solve and failed
        # there with numpy's broadcast error
        with pytest.raises(InvalidParameterError):
            mmse_filter(make_eq([1.0, 1.0], np.eye(3)), 1.0)


class TestMrcFilter:
    def test_scalar_example(self):
        eq = make_eq([1.0, 1.0], np.diag([1.0, 2.0]))
        f = mrc_filter(eq, 1.0)
        assert f.numerical_post_snr == pytest.approx(4 / 3, rel=1e-10)

    def test_matches_closed_form(self):
        for trial, (n_s, n_r, n_d) in enumerate([(1, 1, 1), (2, 3, 2), (4, 2, 3)]):
            cfg = SystemConfig(n_s, n_r, n_d, snr=0.7)
            ch = draw_realization(cfg, RngStream(44, trial))
            snrs = link_snrs(cfg, ch)
            eq = equivalent_channel(cfg, ch, 0, 0)
            cf = mrc_post_snr(snrs.gamma_sd[0], snrs.gamma_sr[0], snrs.gamma_rd[0])
            assert mrc_filter(eq, cfg.snr).numerical_post_snr == pytest.approx(cf, rel=1e-9)

    def test_mmse_dominates_every_realization(self):
        cfg = SystemConfig(3, 3, 3, snr=1.0)
        for trial in range(50):
            ch = draw_realization(cfg, RngStream(45, trial))
            eq = equivalent_channel(cfg, ch, trial % 3, trial % 3)
            assert mmse_filter(eq, cfg.snr).numerical_post_snr >= \
                mrc_filter(eq, cfg.snr).numerical_post_snr * (1 - 1e-12)


class TestClosedFormCheck:
    def test_small_sweep(self):
        for snr in (0.01, 1.0, 100.0):
            e_mmse, e_mrc = closed_form_check(2, 2, 2, snr, trials=2000, seed=7)
            assert e_mmse <= 1e-9
            assert e_mrc <= 1e-9

    @pytest.mark.parametrize("snr", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("n_d", [1, 2, 3, 4])
    def test_slot_solve_matches_full_covariance(self, n_d, snr):
        # the check solves only the relayed slot's N_D x N_D system; the
        # scalar filters on the full 2N_D covariance agree on the same draws
        n_r, trials = 3, 50
        gen = RngStream(62, n_d).generator()
        sd, sr, rd = (sample_gaussian_blocks(gen, trials, m) for m in (n_d, n_r, n_d))
        numerical, _ = _row_snrs(sd, sr, rd, snr)
        cfg = SystemConfig(1, n_r, n_d, snr=snr)
        for t in range(trials):
            h_rd = np.zeros((n_d, n_r), complex)
            h_rd[:, 1] = rd.values(t)
            ch = ChannelRealization(h_sd=sd.values(t)[:, None], h_sr=sr.values(t)[:, None],
                                    h_rd=h_rd)
            eq = equivalent_channel(cfg, ch, 0, 1)
            for oracle, snrs in zip((mmse_filter, mrc_filter), numerical):
                assert snrs[t] == pytest.approx(oracle(eq, snr).numerical_post_snr, rel=1e-12)

    def test_allocation_budget(self):
        # the draw, the stacked channel, the solve and the filter SNRs all run
        # on row blocks, so the peak does not grow with trials
        for trials in (10000, 2**17):
            tracemalloc.start()
            try:
                closed_form_check(4, 4, 4, 1.0, trials, 3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, trials

    @pytest.mark.parametrize("name,wrong,column", [
        ("mmse_post_snr", lambda *gains: mmse_post_snr(*gains) * (1 + 1e-6), 0),
        ("mrc_post_snr", mrc_post_snr_variant, 1),
    ], ids=["mmse-scaled", "mrc-variant"])
    def test_wrong_closed_form_is_caught(self, monkeypatch, name, wrong, column):
        monkeypatch.setattr(f"relaysim.receiver.{name}", wrong)
        assert closed_form_check(4, 4, 4, 1.0, 5000, 3)[column] > 1e-9

    def test_draws_only_three_vectors_per_trial(self, monkeypatch):
        # 2*(2*N_D + N_R) standard normals per trial, no index draw: the
        # check's generator ends where one that drew just those normals ends
        gens, generator = [], RngStream.generator
        monkeypatch.setattr(RngStream, "generator",
                            lambda stream: gens.append(generator(stream)) or gens[-1])
        closed_form_check(5, 2, 3, 1.0, 5000, 4, 6)
        [gen] = gens
        ref = RngStream(4, 6).generator()
        ref.standard_normal(5000 * 2 * (2 * 3 + 2))
        assert gen.standard_normal() == ref.standard_normal()

    @pytest.mark.parametrize("args", [
        (2, 2, 2, 1.0, 0, 1), (0, 2, 2, 1.0, 10, 1), (2, 2, 2, 0.0, 10, 1),
    ], ids=["no-trials", "no-source-antenna", "zero-snr"])
    def test_rejects_bad_input(self, args):
        with pytest.raises(InvalidParameterError):
            closed_form_check(*args)


class TestDetectBpsk:
    def test_noiseless_plus(self):
        h = np.array([1.0, 0.5j])
        assert detect_bpsk(h, h * np.sqrt(2.0)) == 0

    def test_noiseless_minus(self):
        h = np.array([1.0, 0.5j])
        assert detect_bpsk(h, -h * np.sqrt(2.0)) == 1

    def test_tie_decides_plus(self):
        assert detect_bpsk(np.array([1.0]), np.array([0.0])) == 0
