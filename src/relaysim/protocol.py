"""Training and limited-feedback budget accounting.

The selection procedure needs only link SNRs, so antennas are probed with
cheap narrowband tones before any full training happens: the relay probes
each of its antennas toward the destination, gets its index fed back, then
each source antenna is probed twice (once heard directly, once forwarded by
the relay on its chosen antenna), the source index is fed back, and finally
two regular training slots run on the chosen antennas.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import ChannelRealization, SystemConfig, link_snrs
from .selection import select_relay_antenna, select_source_antenna


@dataclass(frozen=True)
class FeedbackBudget:
    relay_index_bits: int
    source_index_bits: int
    total_feedback_bits: int
    snr_estimation_slots: int
    training_slots: int
    total_slots: int


@dataclass(frozen=True)
class ProtocolEvent:
    """One slot or message in the selection procedure.

    kind: relay-probe | relay-index-feedback | source-probe-direct |
          source-probe-relayed | source-index-feedback | training
    """

    kind: str
    antenna: int | None = None
    bits: int | None = None


def feedback_budget(cfg: SystemConfig) -> FeedbackBudget:
    """Bit and slot counts of the selection procedure.

    Index feedback needs ceil(log2) bits per choice; SNR estimation takes
    N_R + 2*N_S probe slots and training takes 2 slots.
    """
    relay_bits = (int(cfg.n_r) - 1).bit_length()
    source_bits = (int(cfg.n_s) - 1).bit_length()
    est = cfg.n_r + 2 * cfg.n_s
    return FeedbackBudget(
        relay_index_bits=relay_bits,
        source_index_bits=source_bits,
        total_feedback_bits=relay_bits + source_bits,
        snr_estimation_slots=est,
        training_slots=2,
        total_slots=est + 2,
    )


def simulate_feedback_sequence(cfg: SystemConfig, ch: ChannelRealization) -> list[ProtocolEvent]:
    """Walk the selection procedure on one realization with perfect SNR
    estimation; the indices carried by the feedback messages match the
    selection rules evaluated on full CSI."""
    budget = feedback_budget(cfg)
    snrs = link_snrs(cfg, ch)
    k_o = select_relay_antenna(snrs)
    decision = select_source_antenna(snrs, k_o, receiver="mmse")

    events = [ProtocolEvent("relay-probe", antenna=k) for k in range(cfg.n_r)]
    events.append(ProtocolEvent("relay-index-feedback", antenna=k_o,
                                bits=budget.relay_index_bits))
    for i in range(cfg.n_s):
        events.append(ProtocolEvent("source-probe-direct", antenna=i))
        events.append(ProtocolEvent("source-probe-relayed", antenna=i))
    events.append(ProtocolEvent("source-index-feedback", antenna=decision.source_antenna,
                                bits=budget.source_index_bits))
    events.append(ProtocolEvent("training", antenna=decision.source_antenna))
    events.append(ProtocolEvent("training", antenna=k_o))
    return events
