import numpy as np
import pytest

from relaysim.channel import SystemConfig, link_snrs
from relaysim.numerics import RngStream
from relaysim.protocol import feedback_budget, simulate_feedback_sequence
from relaysim.selection import select_relay_antenna, select_source_antenna
from relaysim.stream import draw_realization


class TestFeedbackBudget:
    def test_three_by_three(self):
        b = feedback_budget(SystemConfig(3, 3, 3))
        assert b.total_feedback_bits == 4
        assert b.snr_estimation_slots == 9
        assert b.training_slots == 2

    def test_single_antennas(self):
        b = feedback_budget(SystemConfig(1, 1, 1))
        assert b.total_feedback_bits == 0
        assert b.snr_estimation_slots == 3
        assert b.training_slots == 2
        assert b.total_slots == 5

    def test_four_by_two(self):
        b = feedback_budget(SystemConfig(4, 2, 1))
        assert b.source_index_bits == 2
        assert b.relay_index_bits == 1
        assert b.total_feedback_bits == 3
        assert b.snr_estimation_slots == 2 + 8

    @pytest.mark.parametrize("n_s", [1, 2, 5, 16])
    @pytest.mark.parametrize("n_r", [1, 3, 16])
    def test_budget_consistency(self, n_s, n_r):
        b = feedback_budget(SystemConfig(n_s, n_r, 2))
        assert b.total_feedback_bits == b.relay_index_bits + b.source_index_bits
        assert b.total_slots == b.snr_estimation_slots + b.training_slots
        assert b.snr_estimation_slots == n_r + 2 * n_s

    def test_bits_exact_past_float_precision(self):
        # 2^53 + 1 rounds to 2^53 as a float, whose log2 is exactly 53
        b = feedback_budget(SystemConfig(2**53 + 1, 2**60 + 1, 1))
        assert (b.source_index_bits, b.relay_index_bits) == (54, 61)

    def test_bits_are_smallest_covering_power_of_two(self):
        for n in range(1, 4097):
            b = feedback_budget(SystemConfig(n, n, 1))
            smallest = next(bits for bits in range(13) if 2**bits >= n)
            assert b.source_index_bits == b.relay_index_bits == smallest

    def test_numpy_integer_counts(self):
        b = feedback_budget(SystemConfig(np.int64(5), np.int64(2), 1))
        assert (b.source_index_bits, b.relay_index_bits) == (3, 1)


class TestFeedbackSequence:
    def test_event_shape_3x3x3(self):
        cfg = SystemConfig(3, 3, 3)
        events = simulate_feedback_sequence(cfg, draw_realization(cfg, RngStream(50)))
        kinds = [e.kind for e in events]
        assert kinds[:3] == ["relay-probe"] * 3
        assert kinds[3] == "relay-index-feedback"
        assert kinds[4:10] == ["source-probe-direct", "source-probe-relayed"] * 3
        assert kinds[10] == "source-index-feedback"
        assert kinds[11:] == ["training", "training"]
        probes = [k for k in kinds if k.endswith("probe") or "probe" in k]
        assert len(probes) == 9

    def test_zero_bit_messages(self):
        cfg = SystemConfig(1, 1, 1)
        events = simulate_feedback_sequence(cfg, draw_realization(cfg, RngStream(51)))
        feedback = [e for e in events if e.kind.endswith("feedback")]
        assert [e.bits for e in feedback] == [0, 0]

    def test_indices_match_selection(self):
        cfg = SystemConfig(3, 2, 2)
        for trial in range(20):
            ch = draw_realization(cfg, RngStream(52, trial))
            events = simulate_feedback_sequence(cfg, ch)
            snrs = link_snrs(cfg, ch)
            k_o = select_relay_antenna(snrs)
            i_o = select_source_antenna(snrs, k_o, "mmse").source_antenna
            relay_msg = next(e for e in events if e.kind == "relay-index-feedback")
            source_msg = next(e for e in events if e.kind == "source-index-feedback")
            assert relay_msg.antenna == k_o
            assert source_msg.antenna == i_o
