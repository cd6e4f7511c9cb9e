"""An independent oracle for verify_successful's verdicts.

The oracle enumerates, per message, every admissible received word in
lexicographic order, asking strategy.encode_step for each input.  It
counts nodes in preorder (every prefix of a received word, the empty one
and the full word included, message after message) and stops at the
first wrong decode or once the count passes the cap.  It keeps its own
budget rule, reads a graph's outputs from ChannelGraph.edges and the
unidirectional channel's from its own +-1 commit rule, and shares no code
with the verifier, session.admissible_outputs or advance_direction.

Each (builder, channel) pair draws seeded random tiny instances, with
t <= 2, and compares whole Verdicts with the verifier's, table on, with no
cap and with random caps.  Each uncapped counterexample also replays
through run_session and replay.
"""

import random

import pytest

from qfeedback.channels import (
    ChannelGraph,
    make_inverse_z_channel,
    make_star_channel,
    make_symmetric_channel,
    make_unidirectional_pair,
    make_z_channel,
)
from qfeedback.session import PathAdversary, replay, run_session
from qfeedback.strategies import (
    identity_strategy,
    modified_rubber_strategy,
    unidirectional_rubber_strategy,
    zero_error_unidirectional_strategy,
)
from qfeedback.verifier import Verdict, verify_successful


class _Capped(Exception):
    pass


def oracle_outputs(channel, x, budget, direction):
    """(output, direction after it) for every output the adversary may deliver, ascending."""
    if budget == 0:
        return [(x, direction)]
    if isinstance(channel, ChannelGraph):
        return [(y, direction) for y in sorted(j for i, j in channel.edges if i == x)]
    # unidirectional: a one-step move, its direction fixed by the first error
    out = [(x, direction)]
    if x > 0 and direction != "up":
        out.insert(0, (x - 1, "down"))
    if x < channel.q - 1 and direction != "down":
        out.append((x + 1, "up"))
    return out


def oracle_verdict(strategy, channel, t, cap=None):
    n = strategy.block_length
    nodes = 0

    def walk(m, sent, received, budget, direction):
        nonlocal nodes
        nodes += 1
        if cap is not None and nodes > cap:
            raise _Capped
        if len(received) == n:
            decoded = strategy.decode(received)
            return None if decoded == m else Verdict("counterexample", m, sent, received, decoded, nodes)
        x = strategy.encode_step(m, received)
        for y, after in oracle_outputs(channel, x, budget, direction):
            found = walk(m, sent + (x,), received + (y,), budget - (y != x), after)
            if found is not None:
                return found
        return None

    try:
        for m in range(strategy.message_count):
            found = walk(m, (), (), t, None)
            if found is not None:
                return found
    except _Capped:
        return Verdict("inconclusive", nodes=nodes)
    return Verdict("success", nodes=nodes)


# each draw is (strategy, q, t)


def draw_rubber(rng, side):
    q, r, t = rng.randint(2, 4), rng.randint(1, 3), rng.randint(0, 2)
    return modified_rubber_strategy(q, r, side, r * t + rng.randint(0, 3), t), q, t


def draw_unirubber(rng):
    q, r, t = rng.randint(3, 4), rng.randint(2, 3), rng.randint(0, 2)
    return unidirectional_rubber_strategy(q, r, r * t + 1 + rng.randint(0, 3), t), q, t


def draw_zero_error(rng):
    q, n = rng.randint(2, 4), rng.randint(1, 5)
    return zero_error_unidirectional_strategy(q, n), q, rng.randint(0, min(2, n))


def draw_identity(rng):
    q, n = rng.randint(2, 3), rng.randint(1, 3)
    return identity_strategy(q, n), q, rng.randint(0, min(2, n))


BUILDERS = {
    "rubber_z": lambda rng: draw_rubber(rng, "z"),
    "rubber_invz": lambda rng: draw_rubber(rng, "invz"),
    "unirubber": draw_unirubber,
    "zero_error": draw_zero_error,
    "identity": draw_identity,
}

CHANNELS = {
    "z": make_z_channel,
    "invz": make_inverse_z_channel,
    "sym": make_symmetric_channel,
    "star": make_star_channel,
    "uni": make_unidirectional_pair,
}

INSTANCES_PER_PAIR = 5
CAPS_PER_INSTANCE = 2


@pytest.mark.parametrize("channel_id", CHANNELS)
@pytest.mark.parametrize("builder", BUILDERS)
def test_verifier_agrees_with_the_oracle(builder, channel_id):
    rng = random.Random(f"{builder}/{channel_id}")
    for _ in range(INSTANCES_PER_PAIR):
        strategy, q, t = BUILDERS[builder](rng)
        channel = CHANNELS[channel_id](q)
        expected = oracle_verdict(strategy, channel, t)
        v = verify_successful(strategy, channel, t)
        assert v == expected, strategy.name
        if v.outcome == "counterexample":
            # the refutation replays through the session path
            played = run_session(strategy, channel, PathAdversary(v.received), v.message, t)
            assert (played.sent, played.decoded) == (v.sent, v.decoded), strategy.name
            assert replay(strategy, v.message, v.received) == v.sent, strategy.name
        for _ in range(CAPS_PER_INSTANCE):
            cap = rng.randint(1, expected.nodes + 1)
            expected_capped = oracle_verdict(strategy, channel, t, cap)
            assert verify_successful(strategy, channel, t, node_budget=cap) == expected_capped, (strategy.name, cap)


def test_oracle_pins_the_identity_counterexample():
    # the hand-checked verdict that test_verifier pins for the negative control
    expected = Verdict("counterexample", 1, (0, 1), (0, 0), 0, 6)
    assert oracle_verdict(identity_strategy(2, 2), make_z_channel(2), 1) == expected
    assert oracle_verdict(identity_strategy(2, 2), make_z_channel(2), 1, cap=5) == Verdict("inconclusive", nodes=6)
