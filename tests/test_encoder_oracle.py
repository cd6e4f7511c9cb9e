"""Differential test of the incremental rubber senders.

The reference encoders below re-derive the sender's state from the whole
received prefix at every step, with their own list-based stack parse.
The built-in encode_step must agree with them on every prefix of the full
game tree, whatever order the calls come in, and the verifier must still
decode each leaf exactly once.
"""

import dataclasses
import random

import pytest

from qfeedback.channels import DirectionState, make_inverse_z_channel, make_unidirectional_pair, make_z_channel
from qfeedback.codebook import RunConstraint, unrank
from qfeedback.session import admissible_outputs, advance_direction
from qfeedback.strategies import modified_rubber_strategy, unidirectional_rubber_strategy
from qfeedback.verifier import verify_successful


def reference_parse(symbols, rubber, correction, run_length):
    stack = []
    for s in symbols:
        stack.append(s)
        while len(stack) >= run_length and all(v == rubber for v in stack[-run_length:]):
            del stack[-run_length:]
            if stack:
                stack[-1] += correction
    return stack


def reference_automaton(w, stack, rubber, fill):
    k = len(w)
    if len(stack) < k:
        return w[len(stack)] if stack == list(w[: len(stack)]) else rubber
    return fill if stack[:k] == list(w) else rubber


def reference_rubber_encoder(q, r, side, n, t):
    rubber, correction, fill = (q - 1, +1, 0) if side == "z" else (0, -1, q - 1)
    k = n - r * t

    def encode(m, prefix):
        w = unrank(RunConstraint(q, (rubber,), r), k, m)
        return reference_automaton(w, reference_parse(prefix, rubber, correction, r), rubber, fill)

    return encode


CLEAN, DOWN, UP = "clean", "down", "up"


def reference_uni_encoder(q, r, n, t):
    k = n - r * t - 1

    def next_symbol(w, phase, prefix):
        i = len(prefix)
        if i == n - 1:
            return q - 1 if phase == UP else 0
        if phase == CLEAN:
            if i < k:
                return w[i]
            return 1 if (i - k) % r == 0 else 0
        if phase == DOWN:
            return reference_automaton(w, reference_parse(prefix, q - 1, +1, r), q - 1, 0)
        return reference_automaton(w, reference_parse(prefix, 0, -1, r), 0, q - 1)

    def state_after(w, prefix):
        phase = CLEAN
        for j, y in enumerate(prefix):
            x = next_symbol(w, phase, prefix[:j])
            if phase == CLEAN and y != x:
                phase = UP if y > x else DOWN
        return phase

    def encode(m, prefix):
        w = unrank(RunConstraint(q, (0, q - 1), r), k, m)
        return next_symbol(w, state_after(w, prefix), prefix)

    return encode


def game_tree(encode, channel, n, t, m):
    """(prefix, reference symbol) for every internal node, in DFS order, and the leaf count."""
    nodes, leaves = [], 0

    def walk(prefix, budget, direction):
        nonlocal leaves
        if len(prefix) == n:
            leaves += 1
            return
        x = encode(m, prefix)
        nodes.append((prefix, x))
        for y in admissible_outputs(channel, x, budget, direction):
            walk(prefix + (y,), budget - (y != x), advance_direction(channel, direction, x, y))

    walk((), t, DirectionState.UNDECIDED)
    return nodes, leaves


CASES = [
    pytest.param(
        lambda: modified_rubber_strategy(3, 2, "z", 8, 2),
        reference_rubber_encoder(3, 2, "z", 8, 2),
        lambda: make_z_channel(3),
        8, 2, id="z-q3-r2-n8-t2",
    ),
    pytest.param(
        lambda: modified_rubber_strategy(4, 1, "invz", 5, 2),
        reference_rubber_encoder(4, 1, "invz", 5, 2),
        lambda: make_inverse_z_channel(4),
        5, 2, id="invz-q4-r1-n5-t2",
    ),
    pytest.param(
        lambda: unidirectional_rubber_strategy(3, 2, 8, 2),
        reference_uni_encoder(3, 2, 8, 2),
        lambda: make_unidirectional_pair(3),
        8, 2, id="uni-q3-r2-n8-t2",
    ),
    pytest.param(
        lambda: unidirectional_rubber_strategy(4, 3, 9, 2),
        reference_uni_encoder(4, 3, 9, 2),
        lambda: make_unidirectional_pair(4),
        9, 2, id="uni-q4-r3-n9-t2",
    ),
]


@pytest.mark.parametrize("build, reference, build_channel, n, t", CASES)
def test_encode_step_matches_the_reparsing_reference(build, reference, build_channel, n, t):
    strategy, channel = build(), build_channel()
    calls = []
    for m in range(strategy.message_count):
        nodes, _ = game_tree(reference, channel, n, t, m)
        assert [strategy.encode_step(m, prefix) for prefix, _ in nodes] == [x for _, x in nodes]
        calls += [(m, prefix, x) for prefix, x in nodes]

    # interleaved messages and unrelated prefixes: encode_step keeps no state between calls
    random.Random(2001).shuffle(calls)
    fresh = build()
    assert [fresh.encode_step(m, prefix) for m, prefix, _ in calls] == [x for _, _, x in calls]


@pytest.mark.parametrize("build, reference, build_channel, n, t", CASES)
def test_verifier_decodes_each_leaf_once(build, reference, build_channel, n, t):
    strategy, channel = build(), build_channel()
    decodes = []

    def decode(received):
        decodes.append(received)
        return strategy.decode(received)

    verdict = verify_successful(dataclasses.replace(strategy, decode=decode), channel, t)
    assert verdict.outcome == "success"
    leaves = sum(game_tree(reference, channel, n, t, m)[1] for m in range(strategy.message_count))
    assert len(decodes) == leaves
