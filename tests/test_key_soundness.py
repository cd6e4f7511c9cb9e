"""Each declared table key checked entry by entry.

session.Sender's contract: two nodes of one search whose keys are equal
at the same depth, budget left and direction root subtrees of one node
count that are safe together.  The differential tests check this through
its effect on whole Verdicts; here every node of a small tree is grouped
by the entry the verifier would store for it, (key, depth, budget left,
direction), and each group that holds a safe subtree must hold exactly
one (subtree size, safe) pair.
"""

import pytest

from qfeedback.channels import DirectionState
from qfeedback.session import admissible_outputs, advance_direction
from qfeedback.strategies import (
    modified_rubber_strategy,
    unidirectional_rubber_strategy,
    zero_error_unidirectional_strategy,
)
from test_verifier import CHANNELS, codeword_only

# (strategy, the channel it declares its key on, the largest keyed budget)
KEYED_SEARCHES = {
    "rubber_z q3 n8": (lambda: modified_rubber_strategy(3, 2, "z", 8, 2), lambda: CHANNELS["z"](3), 2),
    "rubber_invz q3 n8": (lambda: modified_rubber_strategy(3, 2, "invz", 8, 2), lambda: CHANNELS["invz"](3), 2),
    "unirubber q3 n9": (lambda: unidirectional_rubber_strategy(3, 2, 9, 2), lambda: CHANNELS["uni"](3), 2),
    "unirubber q4 n8": (lambda: unidirectional_rubber_strategy(4, 2, 8, 2), lambda: CHANNELS["uni"](4), 2),
    "zero_error q4 n5": (lambda: zero_error_unidirectional_strategy(4, 5), lambda: CHANNELS["uni"](4), 5),
}


def entry_groups(strategy, channel, t):
    """entry -> {(subtree size, safe): the (message, received prefix) of
    its first node}, over every inner node of the search, walked by the
    session rule: one feed per delivered symbol, outputs ascending."""
    sender = strategy.encode_step
    key = sender.key_for(channel, t)
    assert key is not None, "the search must be keyed"
    n = strategy.block_length
    groups = {}

    def walk(m, state, received, budget, direction):
        # the subtree's node count, and whether every leaf below decodes to m
        if len(received) == n:
            return 1, strategy.decode(received) == m
        x = sender.emit(state)
        size, safe = 1, True
        for y in admissible_outputs(channel, x, budget, direction):
            child = received + (y,)
            after = sender.feed(state, y) if len(child) < n else None
            below, ok = walk(m, after, child, budget - (y != x), advance_direction(channel, direction, x, y))
            size, safe = size + below, safe and ok
        entry = (key(state), len(received), budget, direction)
        groups.setdefault(entry, {}).setdefault((size, safe), (m, received))
        return size, safe

    for m in range(strategy.message_count):
        walk(m, sender.start(m), (), t, DirectionState.UNDECIDED)
    return groups


def bad_groups(groups):
    """The groups with a safe subtree and more than one (size, safe) pair."""
    return {entry: pairs for entry, pairs in groups.items() if len(pairs) > 1 and any(safe for _, safe in pairs)}


def describe(bad):
    lines = [f"{len(bad)} bad groups"]
    for entry, pairs in list(bad.items())[:5]:
        lines.append(f"entry {entry}:")
        for (size, safe), (m, received) in list(pairs.items())[:2]:
            lines.append(f"  size {size}, safe {safe}: message {m}, received {received}")
    return "\n".join(lines)


@pytest.mark.parametrize("search", KEYED_SEARCHES)
def test_every_safe_entry_holds_one_subtree(search):
    build, channel, most = KEYED_SEARCHES[search]
    strategy, channel = build(), channel()
    for t in range(most + 1):
        bad = bad_groups(entry_groups(strategy, channel, t))
        assert not bad, f"t = {t}: " + describe(bad)


def test_the_check_finds_an_unsound_key():
    # the codeword alone, without the receiver's stack
    strategy = codeword_only(modified_rubber_strategy(3, 2, "z", 8, 2))
    bad = bad_groups(entry_groups(strategy, CHANNELS["z"](3), 2))
    assert bad
    assert describe(bad).count("size") >= 2
