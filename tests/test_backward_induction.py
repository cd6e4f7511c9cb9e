"""A second certifier, by backward induction over explicit game states.

For each message, the game's states are laid out level by level, from the
root (nothing received, the whole budget left, no direction) to the full
blocks: a state is (received prefix, budget left, direction), and its
successors are the outputs the adversary may deliver for the input
strategy.encode_step gives.  A full block is lost when it decodes to
another message; going back up, a state is lost when some successor is.
The messages whose root is lost are exactly those the adversary can force
to a wrong decode.

This shares no code with verify_successful: no walk order, no stack, no
node count, no table and no sender state, only encode_step, decode and
the enumeration oracle's own channel rule.  So it checks the verifier's
outcome, and its counterexample's message, on searches where the
transposition table serves one message's subtrees to later messages.
"""

import random

import pytest

from qfeedback.channels import (
    make_inverse_z_channel,
    make_star_channel,
    make_symmetric_channel,
    make_unidirectional_pair,
    make_z_channel,
)
from qfeedback.strategies import (
    identity_strategy,
    modified_rubber_strategy,
    unidirectional_rubber_strategy,
    zero_error_unidirectional_strategy,
)
from qfeedback.verifier import verify_successful
from test_verdict_oracle import oracle_outputs


def lost_messages(strategy, channel, t):
    """The messages the adversary can force to a wrong decode."""
    n = strategy.block_length
    lost = []
    for m in range(strategy.message_count):
        root = ((), t, None)
        # successors[state] for every state above the full blocks, level by level
        levels, successors = [{root}], {}
        for _ in range(n):
            below = set()
            for state in levels[-1]:
                received, budget, direction = state
                x = strategy.encode_step(m, received)
                moves = oracle_outputs(channel, x, budget, direction)
                successors[state] = [(received + (y,), budget - (y != x), after) for y, after in moves]
                below.update(successors[state])
            levels.append(below)
        losing = {state for state in levels[n] if strategy.decode(state[0]) != m}
        for level in reversed(levels[:n]):
            losing = {state for state in level if any(s in losing for s in successors[state])}
        if root in losing:
            lost.append(m)
    return lost


def assert_verifier_agrees(strategy, channel, t):
    lost = lost_messages(strategy, channel, t)
    verdict = verify_successful(strategy, channel, t)
    if lost:
        assert (verdict.outcome, verdict.message) == ("counterexample", lost[0]), strategy.name
    else:
        assert verdict.outcome == "success", strategy.name
    return lost


def acceptance_grid():
    """The searches of acceptance criteria 5 and 6, less unidirectional
    rubber at q=4, n=8, t<2: its 8,042 and 634 messages take the oracle
    1.7 s, asking encode_step afresh at each of their states."""
    for q, n, t in ((2, 6, 1), (2, 8, 2), (3, 6, 1), (3, 8, 2)):
        yield modified_rubber_strategy(q, 2, "z", n, t), make_z_channel(q), t
    for q in range(2, 7):
        for n in range(1, 5):
            yield zero_error_unidirectional_strategy(q, n), make_unidirectional_pair(q), n
    for q in (3, 4):
        for t in (0, 1, 2):
            for n in range(2 * t + 1, 9 if q == 3 or t == 2 else 8):
                yield unidirectional_rubber_strategy(q, 2, n, t), make_unidirectional_pair(q), t
    yield identity_strategy(2, 2), make_z_channel(2), 1


def test_backward_induction_agrees_on_the_acceptance_grid():
    lost = [assert_verifier_agrees(*search) for search in acceptance_grid()]
    # the negative control is lost, every certification is not
    assert lost[-1] == [1, 2, 3] and not any(lost[:-1])


CHANNELS = {
    "z": make_z_channel,
    "invz": make_inverse_z_channel,
    "sym": make_symmetric_channel,
    "star": make_star_channel,
    "uni": make_unidirectional_pair,
}


def draw_rubber(rng, q, channel_id):
    # the side whose key this channel declares, where one does
    side = "invz" if channel_id == "invz" else rng.choice(("z", "invz")) if channel_id != "z" else "z"
    r, t = rng.randint(1, 2), rng.randint(0, 2)
    return modified_rubber_strategy(q, r, side, r * t + rng.randint(2, 3), t), t


def draw_unirubber(rng, q, channel_id):
    t = rng.randint(0, 2)
    return unidirectional_rubber_strategy(q, 2, 2 * t + 1 + rng.randint(1, 3), t), t


def draw_zero_error(rng, q, channel_id):
    strategy = zero_error_unidirectional_strategy(q, rng.randint(1, 4))
    return strategy, rng.randint(0, min(2, strategy.block_length))


def draw_identity(rng, q, channel_id):
    strategy = identity_strategy(q, rng.randint(1, 2))
    return strategy, rng.randint(0, min(2, strategy.block_length))


DRAWS = (draw_rubber, draw_unirubber, draw_zero_error, draw_identity)


@pytest.mark.parametrize("channel_id", CHANNELS)
def test_backward_induction_agrees_on_random_tiny_searches(channel_id):
    # the builders take turns, and every other round of turns gets one
    # error more than it was built for
    rng = random.Random(f"backward induction/{channel_id}")
    keyed = 0
    for i in range(20):
        q = rng.randint(3, 4)
        strategy, t = DRAWS[i % len(DRAWS)](rng, q, channel_id)
        t = min(t + (i % 8 >= 4), strategy.block_length)
        channel = CHANNELS[channel_id](q)
        assert_verifier_agrees(strategy, channel, t)
        key_for = strategy.encode_step.key_for
        keyed += strategy.message_count > 1 and key_for is not None and key_for(channel, t) is not None
    # on z and uni, some draws keep one table across their messages
    assert keyed >= (3 if channel_id in ("z", "uni") else 0)
