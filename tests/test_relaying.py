import numpy as np
import pytest

from relaysim.channel import ChannelRealization, SystemConfig, link_snrs
from relaysim.errors import DegenerateInputError, InvalidParameterError
from relaysim.numerics import RngStream
from relaysim.relaying import (
    EquivalentChannel,
    equivalent_channel,
    equivalent_channel_with_filter,
    optimal_relay_filter,
    relay_gain,
)
from relaysim.selection import mmse_post_snr
from relaysim.stream import draw_realization


def scalar_realization(h_sd=1.0, h_sr=1.0, h_rd=1.0):
    return ChannelRealization(
        h_sd=np.array([[h_sd]], complex),
        h_sr=np.array([[h_sr]], complex),
        h_rd=np.array([[h_rd]], complex),
    )


class TestRelayGain:
    def test_noiseless_limit(self):
        assert relay_gain(1.0, 1e12) == pytest.approx(1.0, rel=1e-6)

    def test_hand_values(self):
        assert relay_gain(2.0, 1.0) == pytest.approx(1 / np.sqrt(6), rel=1e-12)
        assert relay_gain(1.0, 1.0) == pytest.approx(1 / np.sqrt(2), rel=1e-12)

    def test_degenerate_channel(self):
        with pytest.raises(DegenerateInputError):
            relay_gain(0.0, 1.0)

    def test_invalid_params(self):
        with pytest.raises(InvalidParameterError):
            relay_gain(1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            relay_gain(-1.0, 1.0)

    def test_power_constraint_monte_carlo(self):
        # E|s_R|^2 == E_s for the fixed channel, over symbol and noise draws
        es = 4.0
        gen = RngStream(21).generator()
        h_sr = np.array([0.3 + 0.4j, -1.1j, 0.7])
        g = float(np.sum(np.abs(h_sr) ** 2))
        alpha = relay_gain(g, es)
        n = 10**6
        s = np.sqrt(es) * (1 - 2 * gen.integers(0, 2, n))
        noise = (gen.standard_normal((n, 3)) + 1j * gen.standard_normal((n, 3))) / np.sqrt(2)
        s_relay = alpha * (np.conj(h_sr) @ (h_sr[:, None] * s + noise.T))
        assert np.mean(np.abs(s_relay) ** 2) == pytest.approx(es, rel=0.01)


class TestEquivalentChannel:
    def test_scalar_high_snr(self):
        cfg = SystemConfig(1, 1, 1, snr=1e12)
        eq = equivalent_channel(cfg, scalar_realization(), 0, 0)
        assert np.allclose(eq.h, [1.0, 1.0], rtol=1e-6)
        assert np.allclose(eq.r_n, np.diag([1.0, 2.0]), rtol=1e-6)

    def test_perfect_first_hop(self):
        cfg = SystemConfig(1, 1, 1, snr=1.0)
        eq = equivalent_channel(cfg, scalar_realization(h_sr=1e9), 0, 0)
        assert eq.h[1] == pytest.approx(1.0, rel=1e-9)
        assert np.allclose(eq.r_n, np.eye(2), atol=1e-12)

    def test_low_snr_formula(self):
        snr = 1e-6
        cfg = SystemConfig(1, 1, 1, snr=snr)
        ch = scalar_realization(h_sr=2.0)
        eq = equivalent_channel(cfg, ch, 0, 0)
        g = 4.0
        assert abs(eq.h[1]) == pytest.approx(np.sqrt(g) / np.sqrt(g + 1 / snr), rel=1e-12)
        assert eq.r_n[1, 1].real == pytest.approx(1 + 1 / (g + 1 / snr), rel=1e-12)

    def test_zero_first_hop_rejected(self):
        cfg = SystemConfig(1, 1, 1)
        with pytest.raises(DegenerateInputError):
            equivalent_channel(cfg, scalar_realization(h_sr=0.0), 0, 0)

    def test_index_range(self):
        cfg = SystemConfig(1, 1, 1)
        with pytest.raises(InvalidParameterError):
            equivalent_channel(cfg, scalar_realization(), 1, 0)

    def test_structure_random(self):
        cfg = SystemConfig(2, 3, 2, snr=5.0)
        for trial in range(20):
            ch = draw_realization(cfg, RngStream(30, trial))
            eq = equivalent_channel(cfg, ch, trial % 2, trial % 3)
            n_d = cfg.n_d
            assert np.allclose(eq.r_n[:n_d, :n_d], np.eye(n_d))
            assert np.allclose(eq.r_n[:n_d, n_d:], 0)
            assert np.allclose(eq.r_n, eq.r_n.conj().T)
            assert np.all(np.linalg.eigvalsh(eq.r_n) > 0)

    @pytest.mark.parametrize("h,r_n", [
        (np.ones(3), np.eye(3)),            # odd length: not two slots of N_D
        (np.ones(0), np.eye(0)),            # no antenna
        (np.ones((1, 2)), np.eye(2)),       # h not 1-D
        (np.ones(2), np.eye(3)),            # r_n does not match h
        (np.ones(2), np.ones(2)),           # r_n not a matrix
    ])
    def test_shapes_validated(self, h, r_n):
        with pytest.raises(InvalidParameterError, match="2\\*N_D"):
            EquivalentChannel(h=h.astype(complex), r_n=r_n.astype(complex),
                              source_antenna=0, relay_antenna=0)


class TestOptimalRelayFilter:
    def test_diagonal(self):
        ch = ChannelRealization(
            h_sd=np.array([[1.0, 0], [0, 1.0]], complex),
            h_sr=np.array([[1.0, 0], [0, 1.0]], complex),
            h_rd=np.array([[2.0, 0], [0, 1.0]], complex),
        )
        rf = optimal_relay_filter(ch, 0, snr=1.0)
        assert rf.lambda_rd == pytest.approx(4.0, rel=1e-10)
        assert np.allclose(np.abs(rf.v), [1.0, 0.0], atol=1e-6)

    def test_rank_one(self):
        cfg = SystemConfig(2, 3, 2, snr=2.0)
        ch = draw_realization(cfg, RngStream(31))
        rf = optimal_relay_filter(ch, 0, cfg.snr)
        assert np.linalg.matrix_rank(rf.w_relay, tol=1e-10) == 1

    def test_single_relay_antenna_collapse(self):
        # with N_R = 1 the filter is exactly antenna selection
        cfg = SystemConfig(2, 1, 2, snr=3.0)
        ch = draw_realization(cfg, RngStream(32))
        snrs = link_snrs(cfg, ch)
        rf = optimal_relay_filter(ch, 0, cfg.snr)
        snr_filter = mmse_post_snr(snrs.gamma_sd[0], snrs.gamma_sr[0], cfg.snr * rf.lambda_rd)
        snr_select = mmse_post_snr(snrs.gamma_sd[0], snrs.gamma_sr[0], snrs.gamma_rd[0])
        assert snr_filter == pytest.approx(snr_select, rel=1e-9)

    def test_dominates_column_norms(self):
        cfg = SystemConfig(1, 3, 3, snr=1.0)
        for trial in range(50):
            ch = draw_realization(cfg, RngStream(33, trial))
            rf = optimal_relay_filter(ch, 0, cfg.snr)
            assert rf.lambda_rd >= np.max(np.sum(np.abs(ch.h_rd) ** 2, axis=0)) - 1e-12

    def test_zero_h_rd_rejected(self):
        ch = ChannelRealization(
            h_sd=np.ones((1, 1), complex),
            h_sr=np.ones((1, 1), complex),
            h_rd=np.zeros((1, 1), complex),
        )
        with pytest.raises(DegenerateInputError):
            optimal_relay_filter(ch, 0, 1.0)

    def test_filter_snr_beats_selection(self):
        # lambda_rd substitution never lowers the predicted SNR
        cfg = SystemConfig(2, 3, 2, snr=4.0)
        for trial in range(50):
            ch = draw_realization(cfg, RngStream(34, trial))
            snrs = link_snrs(cfg, ch)
            rf = optimal_relay_filter(ch, 0, cfg.snr)
            best = mmse_post_snr(snrs.gamma_sd[0], snrs.gamma_sr[0], snrs.gamma_rd.max())
            filt = mmse_post_snr(snrs.gamma_sd[0], snrs.gamma_sr[0], cfg.snr * rf.lambda_rd)
            assert filt >= best - 1e-12

    def test_equivalent_channel_with_filter(self):
        cfg = SystemConfig(2, 3, 2, snr=2.0)
        ch = draw_realization(cfg, RngStream(35))
        rf = optimal_relay_filter(ch, 1, cfg.snr)
        eq = equivalent_channel_with_filter(cfg, ch, rf)
        assert eq.relay_antenna is None
        # relayed-path vector norm^2 equals lambda_rd (scaled by a)
        g = np.sum(np.abs(ch.h_sr[:, 1]) ** 2)
        a2 = g / (g + 1 / cfg.snr)
        assert np.sum(np.abs(eq.h[cfg.n_d:]) ** 2) == pytest.approx(a2 * rf.lambda_rd, rel=1e-9)
