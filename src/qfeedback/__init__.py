"""Feedback coding over adversarial q-ary channels.

Strategies that exploit noiseless feedback against budgeted adversaries on
asymmetric channels, the capacity bounds they are measured against, and an
exhaustive game-tree verifier that certifies small instances outright.
"""

from .bounds import (
    binary_entropy,
    binary_symmetric_capacity,
    capacity_upper_bound,
    degree_two_bound,
    lower_envelope,
    min_max_output_mass,
    modified_rubber_bound,
    run_growth_rate,
    single_rubber_rate,
    sphere_packing_message_bound,
    zero_error_capacity,
)
from .channels import (
    STAR,
    ChannelGraph,
    DirectionState,
    UnidirectionalChannel,
    make_inverse_z_channel,
    make_star_channel,
    make_symmetric_channel,
    make_unidirectional_pair,
    make_z_channel,
)
from .codebook import (
    RunConstraint,
    count,
    is_valid,
    rank,
    unrank,
)
from .session import (
    Adversary,
    GreedyAdversary,
    PassiveAdversary,
    PathAdversary,
    Sender,
    Strategy,
    Transcript,
    replay,
    run_session,
)
from .strategies import (
    identity_strategy,
    modified_rubber_strategy,
    rubber_stack_parse,
    unidirectional_rubber_strategy,
    zero_error_unidirectional_strategy,
)
from .verifier import (
    DEFAULT_NODE_BUDGET,
    Verdict,
    verify_successful,
)

__version__ = "0.1.0"

__all__ = [
    "STAR",
    "Adversary",
    "ChannelGraph",
    "DEFAULT_NODE_BUDGET",
    "DirectionState",
    "GreedyAdversary",
    "PassiveAdversary",
    "PathAdversary",
    "RunConstraint",
    "Sender",
    "Strategy",
    "Transcript",
    "UnidirectionalChannel",
    "Verdict",
    "binary_entropy",
    "binary_symmetric_capacity",
    "capacity_upper_bound",
    "count",
    "degree_two_bound",
    "identity_strategy",
    "is_valid",
    "lower_envelope",
    "make_inverse_z_channel",
    "make_star_channel",
    "make_symmetric_channel",
    "make_unidirectional_pair",
    "make_z_channel",
    "min_max_output_mass",
    "modified_rubber_bound",
    "modified_rubber_strategy",
    "rank",
    "replay",
    "rubber_stack_parse",
    "run_growth_rate",
    "run_session",
    "single_rubber_rate",
    "sphere_packing_message_bound",
    "unidirectional_rubber_strategy",
    "unrank",
    "verify_successful",
    "zero_error_capacity",
    "zero_error_unidirectional_strategy",
]
