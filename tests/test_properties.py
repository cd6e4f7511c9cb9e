"""Property tests: the codebook bijection, and sessions against drawn adversaries.

Derandomized and without an example database, so every run draws the same
examples.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from qfeedback.channels import make_inverse_z_channel, make_unidirectional_pair, make_z_channel
from qfeedback.codebook import RunConstraint, count, is_valid, rank, unrank
from qfeedback.session import replay, run_session
from qfeedback.strategies import modified_rubber_strategy, unidirectional_rubber_strategy
from qfeedback.verifier import verify_successful

deterministic = settings(derandomize=True, database=None, deadline=None)


@st.composite
def constraints(draw):
    q = draw(st.integers(2, 5))
    reserved = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=q, unique=True))
    return RunConstraint(q, tuple(reserved), draw(st.integers(1, 4)))


@deterministic
@given(constraints(), st.integers(0, 14), st.data())
def test_unrank_then_rank_is_the_identity(constraint, length, data):
    total = count(constraint, length)
    if total:
        idx = data.draw(st.integers(0, total - 1))
        word = unrank(constraint, length, idx)
        assert len(word) == length and is_valid(constraint, word)
        assert rank(constraint, word) == idx


@deterministic
@given(constraints(), st.data())
def test_rank_then_unrank_is_the_identity(constraint, data):
    word = tuple(data.draw(st.lists(st.integers(0, constraint.q - 1), max_size=14)))
    if is_valid(constraint, word):
        idx = rank(constraint, word)
        assert 0 <= idx < count(constraint, len(word))
        assert unrank(constraint, len(word), idx) == word


# (strategy, channel, t), each certified by verify_successful
CERTIFIED = [
    (lambda: modified_rubber_strategy(3, 2, "z", 8, 2), lambda: make_z_channel(3), 2),
    (lambda: modified_rubber_strategy(4, 1, "invz", 6, 2), lambda: make_inverse_z_channel(4), 2),
    (lambda: unidirectional_rubber_strategy(3, 2, 9, 2), lambda: make_unidirectional_pair(3), 2),
    (lambda: unidirectional_rubber_strategy(4, 2, 8, 1), lambda: make_unidirectional_pair(4), 1),
]


@functools.lru_cache(maxsize=None)
def certified(index):
    build, build_channel, t = CERTIFIED[index]
    strategy, channel = build(), build_channel()
    assert verify_successful(strategy, channel, t).outcome == "success"
    return strategy, channel, t


class DrawnAdversary:
    """Delivers an admissible output drawn by hypothesis at every step."""

    def __init__(self, data):
        self.data = data

    def choose(self, sent, sent_prefix, received_prefix, budget_left, direction, options):
        return self.data.draw(st.sampled_from(options))


@deterministic
@given(st.integers(0, len(CERTIFIED) - 1), st.data())
def test_certified_rubber_sessions_decode_and_replay(index, data):
    strategy, channel, t = certified(index)
    m = data.draw(st.integers(0, strategy.message_count - 1))
    transcript = run_session(strategy, channel, DrawnAdversary(data), m, t)
    assert transcript.decoded == m
    assert len(transcript.error_positions) <= t
    assert replay(strategy, m, transcript.received) == transcript.sent
