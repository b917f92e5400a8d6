"""Monte Carlo simulator for the half-duplex amplify-and-forward MIMO relay
channel with transmit antenna selection at the source and relay."""

from .channel import (
    ChannelRealization,
    LinkSnrs,
    SystemConfig,
    config_from_mean_snrs_db,
    link_snrs,
)
from .errors import (
    DegenerateInputError,
    InsufficientStatisticsError,
    InvalidParameterError,
    NumericalError,
    RelaySimError,
)
from .montecarlo import (
    BerPoint,
    DiversityFit,
    OutagePoint,
    diversity_order,
    fit_diversity,
    run_ber,
    run_outage,
    wilson_interval,
)
from .numerics import RngStream, dominant_singular_pair, sample_complex_gaussian
from .protocol import FeedbackBudget, ProtocolEvent, feedback_budget, simulate_feedback_sequence
from .receiver import (
    ReceiverFilter,
    closed_form_check,
    detect_bpsk,
    mmse_filter,
    mrc_filter,
    post_snr_of_filter,
)
from .relaying import (
    EquivalentChannel,
    RelayFilter,
    equivalent_channel,
    equivalent_channel_with_filter,
    optimal_relay_filter,
    relay_gain,
)
from .selection import (
    STRATEGIES,
    SelectionDecision,
    gamma_srd,
    mmse_post_snr,
    mrc_post_snr,
    mrc_post_snr_variant,
    relaying_harmful,
    select_relay_antenna,
    select_source_antenna,
)
from .stream import draw_realization

__version__ = "0.2.0"
