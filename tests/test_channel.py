import numpy as np
import pytest

from relaysim.channel import (
    ChannelRealization,
    SystemConfig,
    config_from_mean_snrs_db,
    lambda_from_mean_snr_db,
    link_snrs,
)
from relaysim.errors import InvalidParameterError
from relaysim.numerics import RngStream
from relaysim.stream import (
    CHUNK,
    MAX_TRIALS,
    STREAM_FORMAT,
    chunk_stream,
    draw,
    draw_realization,
)


class TestSystemConfig:
    def test_valid(self):
        cfg = SystemConfig(3, 2, 1, lambda_sr=4.0, snr=10.0)
        assert cfg.n_s == 3 and cfg.lambda_sr == 4.0

    @pytest.mark.parametrize("kwargs", [
        dict(n_s=0, n_r=1, n_d=1),
        dict(n_s=1, n_r=-2, n_d=1),
        dict(n_s=1, n_r=1, n_d=1, lambda_sd=0.0),
        dict(n_s=1, n_r=1, n_d=1, snr=-1.0),
        dict(n_s=1, n_r=1, n_d=1, snr=float("inf")),
        dict(n_s=1, n_r=1, n_d=1, lambda_rd=4.8e307),  # overflows the relay beam's eigh
        dict(n_s=1, n_r=1, n_d=1, snr=1e-31),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidParameterError):
            SystemConfig(**kwargs)

    def test_with_snr(self):
        cfg = SystemConfig(1, 1, 1).with_snr(3.0)
        assert cfg.snr == 3.0

    @pytest.mark.parametrize("snr", [np.float32(0.5), np.int64(2), 3, 1e-30])
    def test_with_snr_takes_numbers(self, snr):
        cfg = SystemConfig(2, 2, 2).with_snr(snr)
        assert type(cfg.snr) is float and cfg.snr == float(snr)

    @pytest.mark.parametrize("snr", [10**400, True, "3"])
    def test_with_snr_rejects_non_numbers(self, snr):
        # each was converted with float() before any check: a raw
        # OverflowError, then runs at snr 1.0 and 3.0
        with pytest.raises(InvalidParameterError, match="snr"):
            SystemConfig(2, 2, 2).with_snr(snr)


class TestDrawRealization:
    def test_shapes(self):
        cfg = SystemConfig(3, 2, 4)
        ch = draw_realization(cfg, RngStream(1))
        assert ch.h_sd.shape == (4, 3)
        assert ch.h_sr.shape == (2, 3)
        assert ch.h_rd.shape == (4, 2)

    def test_deterministic(self):
        cfg = SystemConfig(2, 2, 2)
        a = draw_realization(cfg, RngStream(3, 5))
        b = draw_realization(cfg, RngStream(3, 5))
        assert np.array_equal(a.h_sd, b.h_sd)
        assert np.array_equal(a.h_sr, b.h_sr)
        assert np.array_equal(a.h_rd, b.h_rd)

    def test_moments_unit_gains(self):
        # engine draw path, 1e6 scalar realizations
        cfg = SystemConfig(1, 1, 1)
        h_sd, _, _ = (h.values() for h in draw(cfg, RngStream(7).generator(), 10**6))
        assert 0.99 <= np.mean(np.abs(h_sd) ** 2) <= 1.01

    def test_moments_sr_gain(self):
        cfg = SystemConfig(1, 2, 1, lambda_sr=4.0)
        _, h_sr, _ = (h.values() for h in draw(cfg, RngStream(8).generator(), 10**6))
        col_power = np.sum(np.abs(h_sr) ** 2, axis=1)  # (trials, 1)
        assert np.mean(col_power) == pytest.approx(4.0 * 2, rel=0.01)

    def test_links_independent(self):
        cfg = SystemConfig(1, 1, 1)
        h_sd, h_sr, h_rd = (h.values() for h in draw(cfg, RngStream(9).generator(), 10**6))
        for x, y in [(h_sd, h_sr), (h_sd, h_rd), (h_sr, h_rd)]:
            rho = np.mean(x.ravel() * y.ravel().conj())
            assert abs(rho) < 0.01


class TestDrawLinks:
    """Stream format 1, written out: chunk c of sweep point p reads substream
    p * 2^32 + c, and draws Philox standard normals for h_sd, h_sr, h_rd in
    that order, each link's real block before its imaginary block; a BER
    chunk then draws the bits and the relay and two destination noise
    blocks.  A change here is a stream-format change."""

    cfg = SystemConfig(2, 3, 4, lambda_sd=0.5, lambda_sr=2.0, lambda_rd=3.0)
    shapes = ((4, 2), (3, 2), (4, 3))
    lambdas = (0.5, 2.0, 3.0)

    def test_stream_layout(self):
        for ber in (False, True):
            gen = RngStream(5, 1).generator()
            drawn = draw(self.cfg, gen, 7, ber)
            ref = RngStream(5, 1).generator()
            for link, shape, lam in zip(drawn[:3], self.shapes, self.lambdas):
                assert np.array_equal(link.re, ref.standard_normal((7, *shape)))
                assert np.array_equal(link.im, ref.standard_normal((7, *shape)))
                assert link.scale == np.sqrt(lam / 2.0)
            assert len(drawn) == (7 if ber else 3)
            if ber:
                bits, *noise = drawn[3:]
                assert np.array_equal(bits, ref.integers(0, 2, 7))
                for block, size in zip(noise, (3, 4, 4)):  # n_r, n_d1, n_d2
                    assert np.array_equal(block.re, ref.standard_normal((7, size)))
                    assert np.array_equal(block.im, ref.standard_normal((7, size)))
                    assert block.scale == np.sqrt(0.5)
            assert gen.standard_normal() == ref.standard_normal()

    def test_chunk_addressing(self):
        assert STREAM_FORMAT == 1
        assert CHUNK == 2**14 and MAX_TRIALS == CHUNK * 2**32
        assert chunk_stream(5, 0, 0) == RngStream(5, 0)
        assert chunk_stream(5, 3, 2**32 - 1) == RngStream(5, 3 * 2**32 + 2**32 - 1)

    def test_draw_channels_is_scaled_blocks(self):
        # draw_realization is trial 0 of a one-trial draw, built from its blocks
        links = draw(self.cfg, RngStream(5, 1).generator(), 1)
        mats = draw_realization(self.cfg, RngStream(5, 1))
        for link, h in zip(links, (mats.h_sd, mats.h_sr, mats.h_rd)):
            built = link.scale * (link.re[0] + 1j * link.im[0])
            assert np.array_equal(h.view(np.float64), built.view(np.float64))

    def test_gathered_columns_match_the_matrix(self):
        links = draw(self.cfg, RngStream(6).generator(), 50)
        rows = np.arange(50)
        cols = RngStream(6, 1).generator().integers(0, 2, 50)
        for link in links:
            full = link.values()[rows, :, cols]
            gathered = link.values(np.s_[rows, :, cols])
            assert np.array_equal(full.view(np.float64), gathered.view(np.float64))

    def test_rejects_empty_batch(self):
        with pytest.raises(InvalidParameterError):
            draw(self.cfg, RngStream(1).generator(), 0)


class TestLinkSnrs:
    def _realization(self, h_sd, h_sr, h_rd):
        return ChannelRealization(np.asarray(h_sd, complex), np.asarray(h_sr, complex),
                                  np.asarray(h_rd, complex))

    def test_unit_norm_column(self):
        cfg = SystemConfig(1, 1, 2, snr=4.0)
        ch = self._realization([[1.0], [0.0]], [[1.0]], [[1.0], [0.0]])
        s = link_snrs(cfg, ch)
        assert s.gamma_sd[0] == pytest.approx(4.0)

    def test_hand_norm(self):
        cfg = SystemConfig(1, 1, 2, snr=2.0)
        ch = self._realization([[1 + 1j], [1 - 1j]], [[1.0]], [[1.0], [0.0]])
        s = link_snrs(cfg, ch)
        assert s.gamma_sd[0] == pytest.approx(8.0)

    def test_zero_column(self):
        cfg = SystemConfig(2, 1, 1, snr=5.0)
        ch = self._realization([[1.0, 0.0]], [[1.0, 1.0]], [[1.0]])
        s = link_snrs(cfg, ch)
        assert s.gamma_sd[1] == 0.0

    def test_dimension_check(self):
        cfg = SystemConfig(2, 1, 1)
        ch = self._realization([[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(InvalidParameterError):
            link_snrs(cfg, ch)

    def test_mean_gamma(self):
        # mean of gamma over draws ~ N_rx * lambda * snr
        cfg = SystemConfig(1, 3, 2, lambda_sr=2.0, snr=5.0)
        _, h_sr, _ = (h.values() for h in draw(cfg, RngStream(10).generator(), 10**6))
        gamma = cfg.snr * np.sum(np.abs(h_sr) ** 2, axis=1)
        assert np.mean(gamma) == pytest.approx(3 * 2.0 * 5.0, rel=0.01)


class TestMeanSnrConversion:
    def test_per_pair(self):
        lam = lambda_from_mean_snr_db(10.0, snr=2.0)
        assert lam * 2.0 == pytest.approx(10.0)

    def test_aggregate(self):
        lam = lambda_from_mean_snr_db(10.0, snr=2.0, n_rx=5, reference="aggregate")
        assert 5 * lam * 2.0 == pytest.approx(10.0)

    def test_unknown_reference(self):
        with pytest.raises(InvalidParameterError):
            lambda_from_mean_snr_db(0.0, 1.0, reference="weird")

    def test_config_builder(self):
        cfg = config_from_mean_snrs_db(3, 3, 3, sd_db=0.0, sr_db=2.0, rd_db=2.0, snr=1.0)
        assert cfg.lambda_sd == pytest.approx(1.0)
        assert cfg.lambda_sr == pytest.approx(10 ** 0.2)
