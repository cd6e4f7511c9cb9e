import itertools
from dataclasses import replace

import pytest

from qfeedback.channels import (
    DirectionState,
    make_symmetric_channel,
    make_unidirectional_pair,
    make_z_channel,
)
from qfeedback.session import (
    GreedyAdversary,
    PassiveAdversary,
    PathAdversary,
    Transcript,
    replay,
    run_session,
)
from qfeedback.strategies import (
    identity_strategy,
    modified_rubber_strategy,
    unidirectional_rubber_strategy,
    zero_error_unidirectional_strategy,
)


def test_passive_session_is_clean():
    s = modified_rubber_strategy(3, 2, "z", 6, 1)
    ch = make_z_channel(3)
    for m in range(s.message_count):
        tr = run_session(s, ch, PassiveAdversary(), m, 1)
        assert tr.received == tr.sent
        assert tr.error_positions == ()
        assert tr.decoded == m
        assert tr.direction is DirectionState.UNDECIDED


def test_passive_decodes_every_message_across_strategies():
    cases = [
        (zero_error_unidirectional_strategy(5, 3), make_unidirectional_pair(5), 3),
        (unidirectional_rubber_strategy(3, 2, 5, 1), make_unidirectional_pair(3), 1),
        (identity_strategy(2, 3), make_z_channel(2), 0),
    ]
    for s, ch, t in cases:
        for m in range(s.message_count):
            tr = run_session(s, ch, PassiveAdversary(), m, t)
            assert tr.decoded == m


def test_budget_accounting():
    s = identity_strategy(2, 4)
    ch = make_symmetric_channel(2)
    tr = run_session(s, ch, GreedyAdversary(), 0, 2)
    # greedy burns the budget on the first two symbols, then must stay clean
    assert tr.error_positions == (0, 1)
    assert tr.sent == (0, 0, 0, 0)
    assert tr.received == (1, 1, 0, 0)


def test_zero_budget_forces_identity():
    s = identity_strategy(3, 3)
    ch = make_symmetric_channel(3)
    tr = run_session(s, ch, GreedyAdversary(), 5, 0)
    assert tr.received == tr.sent
    assert tr.decoded == 5


def test_error_positions_match_mismatches():
    s = modified_rubber_strategy(3, 2, "z", 5, 1)
    ch = make_z_channel(3)
    tr = run_session(s, ch, GreedyAdversary(), 2, 1)
    mismatches = tuple(i for i, (a, b) in enumerate(zip(tr.sent, tr.received)) if a != b)
    assert tr.error_positions == mismatches
    assert len(tr.error_positions) <= 1
    assert tr.decoded == 2


def test_path_adversary_replays_prescribed_word():
    s = identity_strategy(4, 3)
    ch = make_z_channel(4)
    # identity encodes message 27+... base-4 digits; message 45 = (2,3,1)
    tr = run_session(s, ch, PathAdversary((2, 2, 1)), 45, 1)
    assert tr.sent == (2, 3, 1)
    assert tr.received == (2, 2, 1)
    assert tr.error_positions == (1,)


def test_unidirectional_direction_commitment_and_conflict():
    s = identity_strategy(3, 2)
    pair = make_unidirectional_pair(3)
    # message 4 -> digits (1, 1); push up then try to push down
    tr = run_session(s, pair, PathAdversary((2, 1)), 4, 2)
    assert tr.direction is DirectionState.POSITIVE
    with pytest.raises(ValueError):
        run_session(s, pair, PathAdversary((2, 0)), 4, 2)


def test_inadmissible_choice_raises():
    class Liar:
        def choose(self, sent, sent_prefix, received_prefix, budget_left, direction, options):
            return sent + 2 if sent + 2 < 3 else sent - 2

    s = identity_strategy(3, 2)
    with pytest.raises(ValueError):
        run_session(s, make_z_channel(3), Liar(), 0, 2)


def test_message_and_budget_validation():
    s = identity_strategy(2, 3)
    ch = make_z_channel(2)
    with pytest.raises(ValueError):
        run_session(s, ch, PassiveAdversary(), 8, 1)
    with pytest.raises(ValueError):
        run_session(s, ch, PassiveAdversary(), -1, 1)
    with pytest.raises(ValueError):
        run_session(s, ch, PassiveAdversary(), 0, 4)
    with pytest.raises(ValueError):
        run_session(s, ch, PassiveAdversary(), 0, -1)


def test_strategy_symbol_range_is_enforced():
    from qfeedback.session import Strategy

    bad = Strategy("bad", 1, 2, lambda m, y: 7, lambda y: 0)
    with pytest.raises(ValueError):
        run_session(bad, make_z_channel(2), PassiveAdversary(), 0, 1)


def test_replay_reproduces_transcripts():
    s = unidirectional_rubber_strategy(3, 2, 6, 1)
    pair = make_unidirectional_pair(3)
    for m in range(0, s.message_count, 3):
        for adv in (PassiveAdversary(), GreedyAdversary()):
            tr = run_session(s, pair, adv, m, 1)
            assert replay(s, m, tr.received) == tr.sent


def test_replay_is_causal():
    # the sent prefix depends only on the received prefix
    s = modified_rubber_strategy(2, 2, "z", 5, 1)
    for m in range(s.message_count):
        for y in itertools.product(range(2), repeat=5):
            full = replay(s, m, y)
            for cut in range(5):
                assert replay(s, m, y[:cut]) == full[:cut]


@pytest.mark.parametrize(
    "strategy, channel",
    [
        (modified_rubber_strategy(3, 2, "z", 8, 2), make_z_channel(3)),
        (unidirectional_rubber_strategy(3, 2, 9, 2), make_unidirectional_pair(3)),
        (zero_error_unidirectional_strategy(3, 6), make_unidirectional_pair(3)),
        (identity_strategy(3, 4), make_symmetric_channel(3)),
    ],
)
def test_sessions_fold_the_declared_state(strategy, channel):
    # a replaced encode_step is a plain function, not a Sender, so this
    # copy is driven through encode_step at every step
    plain = replace(strategy, encode_step=lambda m, y: strategy.encode_step(m, y))
    for m in range(0, strategy.message_count, 5):
        for adv in (PassiveAdversary(), GreedyAdversary()):
            tr = run_session(strategy, channel, adv, m, 2)
            assert run_session(plain, channel, adv, m, 2) == tr
            assert replay(strategy, m, tr.received) == replay(plain, m, tr.received) == tr.sent


def test_replay_length_guard():
    s = identity_strategy(2, 2)
    with pytest.raises(ValueError):
        replay(s, 0, (0, 1, 0))


@pytest.mark.parametrize(
    "strategy, message",
    [
        (zero_error_unidirectional_strategy(3, 4), 100),
        (zero_error_unidirectional_strategy(3, 4), -1),
        (identity_strategy(2, 3), 8),
        (modified_rubber_strategy(3, 2, "z", 6, 1), -1),
    ],
)
def test_replay_rejects_a_message_outside_the_set(strategy, message):
    # unchecked, the digit schemes would replay another message's word
    with pytest.raises(ValueError, match=f"message {message} out of range"):
        replay(strategy, message, (0,) * strategy.block_length)


@pytest.mark.parametrize("message, t", [(5.5, 1), ("1", 1), (5, 0.5), (5, "1")])
def test_run_session_rejects_a_message_or_budget_that_is_not_an_integer(message, t):
    # unchecked, 5.5 played message 5 and reported decoded=5
    s = modified_rubber_strategy(3, 2, "z", 6, 1)
    with pytest.raises(ValueError, match="must be an integer"):
        run_session(s, make_z_channel(3), GreedyAdversary(), message, t)


@pytest.mark.parametrize("message", [2.0, 0.5, "1"])
def test_replay_rejects_a_message_that_is_not_an_integer(message):
    s = modified_rubber_strategy(3, 2, "z", 6, 1)
    with pytest.raises(ValueError, match="message must be an integer"):
        replay(s, message, (0,) * s.block_length)


def test_sessions_take_bool_and_numpy_integers():
    numpy = pytest.importorskip("numpy")
    s, ch = modified_rubber_strategy(3, 2, "z", 6, 1), make_z_channel(3)
    expected = run_session(s, ch, GreedyAdversary(), 1, 1)
    assert run_session(s, ch, GreedyAdversary(), True, True) == expected
    assert run_session(s, ch, GreedyAdversary(), numpy.int64(1), numpy.int8(1)) == expected
    assert replay(s, numpy.int64(1), expected.received) == replay(s, True, expected.received) == expected.sent


def test_transcript_json_shape():
    tr = Transcript((1, 0), (0, 0), DirectionState.NEGATIVE, 0)
    assert tr.to_json_dict() == {
        "x": [1, 0],
        "y": [0, 0],
        "errors": [0],
        "direction": "negative",
        "decoded": 0,
    }


def test_transcript_errors_are_read_off_its_words():
    # no error list to pass, so none can contradict the words
    tr = Transcript((1, 0, 2, 2), (0, 0, 2, 1), DirectionState.NEGATIVE, 0)
    assert tr.error_positions == (0, 3)
    assert tr.to_json_dict()["errors"] == [0, 3]
    assert Transcript((1, 0), (1, 0), DirectionState.UNDECIDED, 0).error_positions == ()
