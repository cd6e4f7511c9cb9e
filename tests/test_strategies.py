"""Strategy behavior pinned by hand-worked traces.

The rubber traces below were worked out by hand first: every sent word,
received word, stack evolution, and decode result is frozen here so a
refactor cannot silently change the protocol.
"""

import math
import random

import pytest

from qfeedback.channels import (
    DirectionState,
    make_inverse_z_channel,
    make_star_channel,
    make_symmetric_channel,
    make_unidirectional_pair,
    make_z_channel,
)
from qfeedback.codebook import RunConstraint, unrank
from qfeedback.session import (
    GreedyAdversary,
    PassiveAdversary,
    PathAdversary,
    Sender,
    admissible_outputs,
    advance_direction,
    run_session,
    sender_of,
)
from qfeedback.strategies import (
    identity_strategy,
    modified_rubber_strategy,
    rubber_stack_parse,
    unidirectional_rubber_strategy,
    zero_error_unidirectional_strategy,
)
from qfeedback.verifier import verify_successful

PHI = (1 + math.sqrt(5)) / 2


# ---------------------------------------------------------------- parse


def test_parse_plain_push():
    assert rubber_stack_parse((0, 1, 2), rubber=3, correction=1, run_length=2) == [0, 1, 2]


def test_parse_single_repair():
    got = rubber_stack_parse((0, 2, 2, 2), rubber=2, correction=1, run_length=2)
    # push 0 2 2 -> pop the run, bump the 0; the trailing 2 stays pending
    assert got == [1, 2]


def test_parse_cascade():
    # popping a run may complete another run after the correction lands
    got = rubber_stack_parse((2, 1, 2, 2), rubber=2, correction=1, run_length=2)
    assert got == []


def test_parse_pop_to_empty_is_safe():
    assert rubber_stack_parse((2, 2), rubber=2, correction=1, run_length=2) == []


def test_parse_negative_correction():
    got = rubber_stack_parse((2, 0, 0), rubber=0, correction=-1, run_length=2)
    assert got == [1]


def test_parse_run_length_one():
    got = rubber_stack_parse((1, 2, 2, 0), rubber=2, correction=1, run_length=1)
    # every single 2 pops immediately; the first pop bumps 1 to 2,
    # which the re-check then pops as well
    assert got == [0]


def tuple_push(stack, y, *, rubber, correction, run_length):
    """The rubber rule written independently of the module: one new tuple
    per push, popping every completed run and bumping the new top."""
    stack += (y,)
    run = (rubber,) * run_length
    while stack[-run_length:] == run:
        stack = stack[:-run_length]
        if stack:
            stack = stack[:-1] + (stack[-1] + correction,)
    return stack


def tuple_fold(word, convention):
    """The parse as the fold of tuple_push, and how many pushes cascaded."""
    stack, cascades = (), 0
    for y in word:
        after = tuple_push(stack, y, **convention)
        # each pass of tuple_push's loop removes run_length entries
        cascades += len(stack) + 1 - len(after) >= 2 * convention["run_length"]
        stack = after
    return list(stack), cascades


@pytest.mark.parametrize(
    "convention",
    [
        dict(rubber=2, correction=+1, run_length=2),
        dict(rubber=0, correction=-1, run_length=2),
        dict(rubber=3, correction=+1, run_length=3),
        dict(rubber=0, correction=-1, run_length=1),
    ],
    ids=["z_r2", "invz_r2", "z_r3", "invz_r1"],
)
def test_list_parse_matches_the_tuple_fold(convention):
    rng = random.Random(20240607)
    rubber = convention["rubber"]
    cascaded = 0
    for _ in range(400):
        # rubber-heavy words, so repairs happen and cascade
        word = [rubber if rng.random() < 0.5 else rng.randrange(4) for _ in range(rng.randrange(40))]
        expected, cascades = tuple_fold(word, convention)
        assert rubber_stack_parse(word, **convention) == expected, word
        cascaded += cascades > 0
    assert cascaded >= 20


# ------------------------------------------------------ modified rubber


def test_modified_rubber_message_counts():
    assert modified_rubber_strategy(2, 2, "z", 6, 1).message_count == 8
    assert modified_rubber_strategy(2, 2, "z", 8, 2).message_count == 8
    assert modified_rubber_strategy(3, 2, "z", 6, 1).message_count == 60
    assert modified_rubber_strategy(3, 2, "z", 8, 2).message_count == 60


def test_modified_rubber_error_on_info_symbol():
    s = modified_rubber_strategy(3, 2, "z", 4, 1)
    ch = make_z_channel(3)
    tr = run_session(s, ch, PathAdversary((0, 2, 2, 0)), 3, 1)
    assert tr.sent == (1, 2, 2, 0)
    assert tr.received == (0, 2, 2, 0)
    assert tr.error_positions == (0,)
    assert tr.decoded == 3


def test_modified_rubber_error_on_rubber_symbol():
    # the repair itself gets corrupted; a second repair fixes the repair
    s = modified_rubber_strategy(3, 2, "z", 5, 2)
    ch = make_z_channel(3)
    tr = run_session(s, ch, PathAdversary((0, 1, 2, 2, 2)), 1, 2)
    assert tr.sent == (1, 2, 2, 2, 2)
    assert tr.received == (0, 1, 2, 2, 2)
    assert tr.decoded == 1


def test_modified_rubber_invz_mirror():
    s = modified_rubber_strategy(3, 2, "invz", 4, 1)
    ch = make_inverse_z_channel(3)
    # mirror image: codewords avoid runs of 0, errors push symbols up
    for m in range(s.message_count):
        tr = run_session(s, ch, GreedyAdversary(), m, 1)
        assert tr.decoded == m


def test_modified_rubber_t_zero_sends_codeword_verbatim():
    s = modified_rubber_strategy(3, 2, "z", 5, 0)
    ch = make_z_channel(3)
    tr = run_session(s, ch, PassiveAdversary(), 7, 0)
    assert tr.sent == unrank(RunConstraint(3, (2,), 2), 5, 7)
    assert tr.decoded == 7


def test_modified_rubber_validation():
    with pytest.raises(ValueError):
        modified_rubber_strategy(3, 2, "sideways", 6, 1)
    with pytest.raises(ValueError):
        modified_rubber_strategy(3, 2, "z", 3, 2)
    with pytest.raises(ValueError):
        modified_rubber_strategy(1, 2, "z", 6, 1)
    with pytest.raises(ValueError):
        modified_rubber_strategy(3, 0, "z", 6, 1)
    with pytest.raises(ValueError):
        modified_rubber_strategy(3, 2, "z", 6, -1)


# ----------------------------------------------------- zero-error scheme


def test_zero_error_message_counts():
    assert zero_error_unidirectional_strategy(5, 3).message_count == 9
    assert zero_error_unidirectional_strategy(2, 4).message_count == 1
    assert zero_error_unidirectional_strategy(4, 3).message_count == 4
    assert zero_error_unidirectional_strategy(3, 5).message_count == 16


def test_zero_error_clean_block():
    s = zero_error_unidirectional_strategy(5, 3)
    pair = make_unidirectional_pair(5)
    tr = run_session(s, pair, PassiveAdversary(), 7, 3)
    # digits (2, 1) doubled to even symbols, flag 0
    assert tr.sent == (4, 2, 0)
    assert tr.decoded == 7


def test_zero_error_downward_errors():
    s = zero_error_unidirectional_strategy(5, 3)
    pair = make_unidirectional_pair(5)
    tr = run_session(s, pair, PathAdversary((3, 2, 0)), 7, 3)
    assert tr.sent == (4, 2, 0)
    assert tr.received == (3, 2, 0)
    assert tr.decoded == 7
    assert tr.direction is DirectionState.NEGATIVE


def test_zero_error_upward_errors_flip_the_flag():
    s = zero_error_unidirectional_strategy(5, 3)
    pair = make_unidirectional_pair(5)
    tr = run_session(s, pair, PathAdversary((4, 3, 4)), 7, 3)
    # the sender saw the +1 on position 1 and announced q-1
    assert tr.sent == (4, 2, 4)
    assert tr.decoded == 7
    assert tr.direction is DirectionState.POSITIVE


def test_zero_error_corrupted_clean_flag():
    s = zero_error_unidirectional_strategy(5, 3)
    pair = make_unidirectional_pair(5)
    # clean prefix, the only error lands on the trailing 0 flag
    tr = run_session(s, pair, PathAdversary((4, 2, 1)), 7, 3)
    assert tr.sent == (4, 2, 0)
    assert tr.decoded == 7


def test_zero_error_binary_degenerates_to_one_message():
    s = zero_error_unidirectional_strategy(2, 4)
    pair = make_unidirectional_pair(2)
    tr = run_session(s, pair, GreedyAdversary(), 0, 4)
    assert tr.decoded == 0


def test_zero_error_validation():
    with pytest.raises(ValueError):
        zero_error_unidirectional_strategy(1, 3)
    with pytest.raises(ValueError):
        zero_error_unidirectional_strategy(3, 0)


# ---------------------------------------------- unidirectional rubber


def test_unidirectional_message_counts():
    # k = n - r*t - 1 info symbols avoiding 2-runs of both 0 and q-1
    assert unidirectional_rubber_strategy(3, 2, 4, 1).message_count == 3
    assert unidirectional_rubber_strategy(3, 2, 6, 1).message_count == 17
    assert unidirectional_rubber_strategy(3, 2, 8, 2).message_count == 17
    assert unidirectional_rubber_strategy(4, 2, 8, 0).message_count == 8042


def test_unidirectional_clean_block_layout():
    s = unidirectional_rubber_strategy(3, 2, 5, 1)
    pair = make_unidirectional_pair(3)
    c = RunConstraint(3, (0, 2), 2)
    for m in range(s.message_count):
        tr = run_session(s, pair, PassiveAdversary(), m, 1)
        w = unrank(c, 2, m)
        # codeword, filler cycle starting at 1, flag 0
        assert tr.sent == w + (1, 0, 0)
        assert tr.decoded == m


def test_unidirectional_upward_error_trace():
    s = unidirectional_rubber_strategy(3, 2, 5, 1)
    pair = make_unidirectional_pair(3)
    tr = run_session(s, pair, PathAdversary((2, 0, 0, 1, 2)), 3, 1)
    # first info symbol bumped up; sender repairs with the 0-rubber,
    # whose pops decrement the corrupted symbol back in place
    assert tr.sent == (1, 0, 0, 1, 2)
    assert tr.received == (2, 0, 0, 1, 2)
    assert tr.error_positions == (0,)
    assert tr.decoded == 3
    assert tr.direction is DirectionState.POSITIVE


def test_unidirectional_downward_error_trace():
    s = unidirectional_rubber_strategy(3, 2, 5, 1)
    pair = make_unidirectional_pair(3)
    tr = run_session(s, pair, PathAdversary((0, 2, 2, 1, 0)), 3, 1)
    assert tr.sent == (1, 2, 2, 1, 0)
    assert tr.received == (0, 2, 2, 1, 0)
    assert tr.decoded == 3
    assert tr.direction is DirectionState.NEGATIVE


def test_unidirectional_corrupted_clean_flag():
    s = unidirectional_rubber_strategy(3, 2, 5, 1)
    pair = make_unidirectional_pair(3)
    # clean block, flag 0 bumped to 1: receiver reads the body verbatim
    tr = run_session(s, pair, PathAdversary((1, 1, 1, 0, 1)), 3, 1)
    assert tr.sent == (1, 1, 1, 0, 0)
    assert tr.decoded == 3


def test_unidirectional_error_on_filler():
    s = unidirectional_rubber_strategy(3, 2, 5, 1)
    pair = make_unidirectional_pair(3)
    tr = run_session(s, pair, PathAdversary((1, 1, 2, 2, 2)), 3, 1)
    # the codeword already stands delivered, so no repair is needed
    assert tr.sent == (1, 1, 1, 2, 2)
    assert tr.decoded == 3
    assert tr.direction is DirectionState.POSITIVE


def test_unidirectional_validation():
    with pytest.raises(ValueError):
        unidirectional_rubber_strategy(2, 2, 6, 1)
    with pytest.raises(ValueError):
        unidirectional_rubber_strategy(3, 1, 6, 1)
    with pytest.raises(ValueError):
        unidirectional_rubber_strategy(3, 2, 2, 1)
    with pytest.raises(ValueError):
        unidirectional_rubber_strategy(3, 2, 6, -1)


def stack_of(state):
    """A rubber sender's stack: the codeword's matched prefix, then the tail."""
    return state.codeword[: state.matched] + state.tail


@pytest.mark.parametrize("t, k", [(1, 3), (2, 2)])
@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_unidirectional_clean_prefix_parses_to_itself(q, r, t, k):
    # no clean prefix holds an r-run of 0 or of q-1, so both conventions
    # parse it to itself, the clean state's stack is that prefix, and
    # pushing a first error onto it is the committed parse of the whole
    # received prefix
    n = r * t + 1 + k
    strategy = unidirectional_rubber_strategy(q, r, n, t)
    sender = strategy.encode_step
    down = dict(rubber=q - 1, correction=+1, run_length=r)
    up = dict(rubber=0, correction=-1, run_length=r)
    for m in range(strategy.message_count):
        state = sender.start(m)
        clean = ()
        while len(clean) < n:
            assert state.phase is DirectionState.UNDECIDED
            assert stack_of(state) == clean
            assert rubber_stack_parse(clean, **down) == list(clean)
            assert rubber_stack_parse(clean, **up) == list(clean)
            x = sender.emit(state)
            for y, phase, convention in ((x - 1, DirectionState.NEGATIVE, down), (x + 1, DirectionState.POSITIVE, up)):
                if 0 <= y < q:
                    erred = sender.feed(state, y)
                    assert erred.phase is phase
                    assert list(stack_of(erred)) == rubber_stack_parse(clean + (y,), **convention)
            state = sender.feed(state, x)
            clean += (x,)


# ------------------------------------------------------ declared states

# every built-in builder, both rubber sides, as a function of (q, n, t)
BUILDERS = {
    "rubber_z": lambda q, n, t: modified_rubber_strategy(q, 2, "z", n, t),
    "rubber_invz": lambda q, n, t: modified_rubber_strategy(q, 2, "invz", n, t),
    "unirubber": lambda q, n, t: unidirectional_rubber_strategy(q, 2, n, t),
    "zero_error": lambda q, n, t: zero_error_unidirectional_strategy(q, n),
    "identity": lambda q, n, t: identity_strategy(q, n),
}


# the channel on which each keyed builder declares its table key, and the
# largest budget it declares it for, of the block length n and the design t
KEYED_ON = {
    "rubber_z": (make_z_channel, lambda n, t: t),
    "rubber_invz": (make_inverse_z_channel, lambda n, t: t),
    "unirubber": (make_unidirectional_pair, lambda n, t: t),
    "zero_error": (make_unidirectional_pair, lambda n, t: n),
}


@pytest.mark.parametrize("q, n, t", [(3, 6, 1), (4, 8, 2), (5, 4, 0)])
@pytest.mark.parametrize("builder", BUILDERS)
def test_every_builder_holds_its_declaration(builder, q, n, t):
    # a builder that lost its Sender would still verify the same, through
    # the adapter, but without the fold or the transposition table
    strategy = BUILDERS[builder](q, n, t)
    sender = strategy.encode_step
    assert isinstance(sender, Sender)
    assert sender_of(strategy) is sender
    assert sender.decode is strategy.decode
    if builder not in KEYED_ON:
        assert sender.key_for is None
        return
    # a key for its own channel up to its own budget, and for no other search
    own, most = KEYED_ON[builder]
    most = most(n, t)
    for budget in range(most + 1):
        assert sender.key_for(own(q), budget) is not None, budget
    assert sender.key_for(own(q), most + 1) is None
    channels = (make_z_channel, make_inverse_z_channel, make_symmetric_channel, make_star_channel, make_unidirectional_pair)
    for other in channels:
        if other is not own:
            assert sender.key_for(other(q), t) is None, other.__name__


@pytest.mark.parametrize("q, n, t", [(3, 6, 1), (4, 8, 2)])
@pytest.mark.parametrize("builder", KEYED_ON)
def test_every_declared_key_is_an_int(builder, q, n, t):
    # the verifier packs the key into one int table entry
    strategy = BUILDERS[builder](q, n, t)
    sender = strategy.encode_step
    own, _ = KEYED_ON[builder]
    key = sender.key_for(own(q), t)
    for m in sorted({0, strategy.message_count // 2, strategy.message_count - 1}):
        assert type(key(sender.start(m))) is int, m


def test_a_larger_alphabet_of_the_own_side_is_another_channel():
    # the key is declared on the scheme's own channel alone: z of a larger
    # alphabet moves every symbol the sender sends as its own z does, yet
    # gets no key, and its search without a table reaches the same verdict
    strategy = modified_rubber_strategy(3, 2, "z", 6, 1)
    assert strategy.encode_step.key_for(make_z_channel(3), 1) is not None
    assert strategy.encode_step.key_for(make_z_channel(4), 1) is None
    assert verify_successful(strategy, make_z_channel(4), 1) == verify_successful(strategy, make_z_channel(3), 1)


@pytest.mark.parametrize("builder", BUILDERS)
def test_encoder_is_pure(builder):
    a = BUILDERS[builder](3, 6, 1)
    b = BUILDERS[builder](3, 6, 1)
    last = a.message_count - 1
    messages = sorted({0, last // 3, last // 2, last})
    prefixes = [(), (2,), (2, 0), (1, 1, 2), (0, 2, 2, 1), (1, 1, 1, 0, 0)]
    # the second instance answers each question once, in the reverse order
    expected = {(m, p): b.encode_step(m, p) for m in reversed(messages) for p in reversed(prefixes)}
    for m in messages:
        for p in prefixes:
            assert a.encode_step(m, p) == expected[m, p]
            # interleave other messages and prefixes, then repeat: no
            # hidden state allowed
            a.encode_step(last - m, ())
            a.encode_step(m, p[::-1])
            assert a.encode_step(m, p) == expected[m, p]
            assert a.encode_step(m, p) == expected[m, p]


FOLD_CASES = {
    "rubber_z": (lambda: modified_rubber_strategy(3, 2, "z", 6, 2), 2),
    "rubber_invz": (lambda: modified_rubber_strategy(3, 1, "invz", 6, 2), 2),
    "unirubber": (lambda: unidirectional_rubber_strategy(3, 2, 7, 1), 2),
    "zero_error": (lambda: zero_error_unidirectional_strategy(3, 5), 3),
    "identity": (lambda: identity_strategy(3, 3), 2),
}
FOLD_CHANNELS = {
    "z": make_z_channel,
    "invz": make_inverse_z_channel,
    "sym": make_symmetric_channel,
    "uni": make_unidirectional_pair,
}


@pytest.mark.parametrize("channel_id", FOLD_CHANNELS)
@pytest.mark.parametrize("case", FOLD_CASES)
def test_declared_fold_matches_encode_step(case, channel_id):
    # at every node of the game tree, emit of the fold of feed over the
    # received prefix from start(m) is the input encode_step gives
    build, t = FOLD_CASES[case]
    strategy = build()
    channel = FOLD_CHANNELS[channel_id](3)
    sender = strategy.encode_step
    checked = 0
    for m in range(strategy.message_count):
        stack = [((), t, DirectionState.UNDECIDED)]
        while stack:
            received, budget, direction = stack.pop()
            if len(received) == strategy.block_length:
                continue
            state = sender.start(m)
            for y in received:
                state = sender.feed(state, y)
            x = strategy.encode_step(m, received)
            assert sender.emit(state) == x, (m, received)
            checked += 1
            for y in admissible_outputs(channel, x, budget, direction):
                stack.append((received + (y,), budget - (y != x), advance_direction(channel, direction, x, y)))
    assert checked > strategy.message_count * strategy.block_length


Z_CONVENTION = dict(rubber=2, correction=+1, run_length=2)
INVZ_CONVENTION = dict(rubber=0, correction=-1, run_length=2)
STACK_CASES = {
    "rubber_z": (lambda: modified_rubber_strategy(3, 2, "z", 8, 2), lambda state: Z_CONVENTION),
    "rubber_invz": (lambda: modified_rubber_strategy(3, 2, "invz", 8, 2), lambda state: INVZ_CONVENTION),
    # the down parse until the first upward error commits the sender
    "unirubber": (
        lambda: unidirectional_rubber_strategy(3, 2, 9, 2),
        lambda state: INVZ_CONVENTION if state.phase is DirectionState.POSITIVE else Z_CONVENTION,
    ),
}
STACK_CHANNELS = {
    "z": make_z_channel,
    "invz": make_inverse_z_channel,
    "sym": make_symmetric_channel,
    "star": make_star_channel,
    "uni": make_unidirectional_pair,
}


def assert_sender_stack_is_the_parse(strategy, convention_of, channel, t):
    """At every node of the game tree, the stack the sender folded one
    delivered symbol at a time, codeword[:matched] + tail, is the
    receiver's parse of the prefix, and matched is its whole common prefix
    with the codeword."""
    sender = strategy.encode_step
    n = strategy.block_length
    checked = 0
    for m in range(strategy.message_count):
        pending = [((), sender.start(m), t, DirectionState.UNDECIDED)]
        while pending:
            received, state, budget, direction = pending.pop()
            w, matched, tail = state.codeword, state.matched, state.tail
            assert w[:matched] + tail == tuple(rubber_stack_parse(received, **convention_of(state))), (m, received)
            assert not tail or matched == len(w) or tail[0] != w[matched], (m, received)
            checked += 1
            if len(received) == n:
                continue
            x = sender.emit(state)
            for y in admissible_outputs(channel, x, budget, direction):
                after = advance_direction(channel, direction, x, y)
                pending.append((received + (y,), sender.feed(state, y), budget - (y != x), after))
    assert checked > strategy.message_count * n


@pytest.mark.parametrize("channel_id", STACK_CHANNELS)
@pytest.mark.parametrize("case", STACK_CASES)
def test_the_sender_stack_is_the_receiver_parse(case, channel_id):
    build, convention_of = STACK_CASES[case]
    assert_sender_stack_is_the_parse(build(), convention_of, STACK_CHANNELS[channel_id](3), 2)


# ------------------------------------------------------------ identity


def test_identity_round_trip():
    s = identity_strategy(3, 3)
    assert s.message_count == 27
    pair = make_z_channel(3)
    for m in (0, 13, 26):
        tr = run_session(s, pair, PassiveAdversary(), m, 0)
        assert tr.decoded == m


def test_strategy_names_are_informative():
    assert modified_rubber_strategy(3, 2, "z", 6, 1).name == "modified_rubber(q=3,r=2,side=z,n=6,t=1)"
    assert "unidirectional_rubber" in unidirectional_rubber_strategy(3, 2, 6, 1).name
    assert "zero_error" in zero_error_unidirectional_strategy(3, 4).name

