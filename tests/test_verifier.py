from dataclasses import replace

import pytest

from qfeedback.bounds import sphere_packing_message_bound
from qfeedback import strategies
from qfeedback.channels import (
    DirectionState,
    make_inverse_z_channel,
    make_star_channel,
    make_symmetric_channel,
    make_unidirectional_pair,
    make_z_channel,
)
from qfeedback.session import PathAdversary, Strategy, admissible_outputs, advance_direction, run_session
from qfeedback.strategies import (
    identity_strategy,
    modified_rubber_strategy,
    unidirectional_rubber_strategy,
    zero_error_unidirectional_strategy,
)
from qfeedback.verifier import DEFAULT_NODE_BUDGET, Verdict, verify_successful


def test_identity_with_zero_budget_succeeds():
    s = identity_strategy(3, 2)
    v = verify_successful(s, make_z_channel(3), 0)
    assert v.outcome == "success"


def test_identity_negative_control_is_deterministic():
    # M = q^n has no slack, so one error must break some message; the
    # verdict below pins the lexicographically least counterexample
    s = identity_strategy(2, 2)
    ch = make_z_channel(2)
    a = verify_successful(s, ch, 1)
    b = verify_successful(s, ch, 1)
    assert a == b
    assert a.outcome == "counterexample"
    assert a.message == 1
    assert a.sent == (0, 1)
    assert a.received == (0, 0)
    assert a.decoded == 0
    assert a.nodes == 6


def test_counterexamples_replay():
    s = identity_strategy(2, 2)
    ch = make_z_channel(2)
    v = verify_successful(s, ch, 1)
    tr = run_session(s, ch, PathAdversary(v.received), v.message, 1)
    assert tr.sent == v.sent
    assert tr.received == v.received
    assert tr.decoded == v.decoded
    assert tr.decoded != v.message


def test_modified_rubber_certifies():
    s = modified_rubber_strategy(2, 2, "z", 6, 1)
    v = verify_successful(s, make_z_channel(2), 1)
    assert v.outcome == "success"
    assert v.nodes == verify_successful(s, make_z_channel(2), 1).nodes


def test_only_designed_budget_is_safe():
    # one extra error beyond the design budget must break the scheme
    s = modified_rubber_strategy(2, 2, "z", 6, 1)
    ch = make_z_channel(2)
    assert verify_successful(s, ch, 1).outcome == "success"
    assert verify_successful(s, ch, 2).outcome == "counterexample"


def test_budget_exhaustion_is_inconclusive_not_success():
    s = modified_rubber_strategy(2, 2, "z", 6, 1)
    v = verify_successful(s, make_z_channel(2), 1, node_budget=3)
    assert v.outcome == "inconclusive"
    assert v.nodes == 4
    assert v.to_json_dict() == {"outcome": "inconclusive", "nodes": 4}


def test_budget_validation():
    s = identity_strategy(2, 2)
    with pytest.raises(ValueError):
        verify_successful(s, make_z_channel(2), 3)
    # a negative budget is meaningless, never a certificate
    with pytest.raises(ValueError):
        verify_successful(identity_strategy(2, 3), make_z_channel(2), -1)


def test_node_budget_below_one_is_rejected():
    s = identity_strategy(2, 2)
    for node_budget in (0, -1):
        with pytest.raises(ValueError):
            verify_successful(s, make_z_channel(2), 1, node_budget=node_budget)


@pytest.mark.parametrize("t", [0.5, 1.0, "1"])
def test_a_budget_that_is_not_an_integer_is_rejected(t):
    # half an error is meaningless input, never a certificate
    with pytest.raises(ValueError, match="error budget must be an integer"):
        verify_successful(identity_strategy(2, 3), make_z_channel(2), t)


@pytest.mark.parametrize("node_budget", [2.5, 100.0, "100"])
def test_a_node_budget_that_is_not_an_integer_is_rejected(node_budget):
    with pytest.raises(ValueError, match="node budget must be an integer"):
        verify_successful(identity_strategy(2, 2), make_z_channel(2), 1, node_budget=node_budget)


def test_bool_and_numpy_integers_are_integers():
    numpy = pytest.importorskip("numpy")
    s, ch = modified_rubber_strategy(2, 2, "z", 6, 1), make_z_channel(2)
    expected = verify_successful(s, ch, 1)
    assert verify_successful(s, ch, True) == expected
    assert verify_successful(s, ch, numpy.int64(1), node_budget=numpy.int32(10_000)) == expected
    # the builders and channels take them too; each int build comes first,
    # so the codebook tables hold Python ints
    i64 = numpy.int64
    built = modified_rubber_strategy(i64(2), i64(2), "z", i64(6), True)
    assert verify_successful(built, make_z_channel(i64(2)), 1) == expected
    uni = verify_successful(unidirectional_rubber_strategy(3, 2, 7, 1), make_unidirectional_pair(3), 1)
    built = unidirectional_rubber_strategy(i64(3), i64(2), i64(7), True)
    assert verify_successful(built, make_unidirectional_pair(i64(3)), True) == uni
    zero = verify_successful(zero_error_unidirectional_strategy(3, 4), make_unidirectional_pair(3), 3)
    assert verify_successful(zero_error_unidirectional_strategy(i64(3), i64(4)), make_unidirectional_pair(3), 3) == zero
    ident = verify_successful(identity_strategy(2, 1), make_z_channel(2), 1)
    assert verify_successful(identity_strategy(i64(2), True), make_z_channel(i64(2)), 1) == ident


def test_node_budget_boundary_is_exact():
    s = modified_rubber_strategy(2, 2, "z", 6, 1)
    ch = make_z_channel(2)
    tree = verify_successful(s, ch, 1).nodes
    assert verify_successful(s, ch, 1, node_budget=tree).outcome == "success"
    cut = verify_successful(s, ch, 1, node_budget=tree - 1)
    assert (cut.outcome, cut.nodes) == ("inconclusive", tree)


BAD_SYMBOL_STRATEGY = Strategy("bad", 1, 2, lambda m, y: 7, lambda y: 0)


@pytest.mark.parametrize("t", [0, 1])
def test_non_channel_symbols_are_rejected_at_every_budget(t):
    for channel in (make_z_channel(2), make_unidirectional_pair(2)):
        with pytest.raises(ValueError, match="strategy emitted 7, not a channel symbol"):
            verify_successful(BAD_SYMBOL_STRATEGY, channel, t)
    lying = replace(identity_strategy(3, 2), encode_step=lambda m, p: 7, decode=lambda y: 0, message_count=1)
    with pytest.raises(ValueError, match="not a channel symbol"):
        verify_successful(lying, make_z_channel(3), 0)


def test_unidirectional_certification_small():
    s = unidirectional_rubber_strategy(3, 2, 5, 1)
    v = verify_successful(s, make_unidirectional_pair(3), 1)
    assert v.outcome == "success"


def test_zero_error_survives_full_budget():
    s = zero_error_unidirectional_strategy(4, 3)
    v = verify_successful(s, make_unidirectional_pair(4), 3)
    assert v.outcome == "success"


def test_pigeonhole_consistency_with_message_bound():
    # a strategy packing more messages than the counting bound allows must
    # produce a counterexample; one staying below it may or may not
    s = identity_strategy(2, 2)
    assert s.message_count > sphere_packing_message_bound(2, 1, 2)
    assert verify_successful(s, make_z_channel(2), 1).outcome == "counterexample"
    r = modified_rubber_strategy(3, 2, "z", 6, 1)
    assert r.message_count <= sphere_packing_message_bound(6, 1, 3)
    assert verify_successful(r, make_z_channel(3), 1).outcome == "success"


def test_on_transcript_sees_every_leaf():
    s = modified_rubber_strategy(2, 2, "z", 4, 1)
    leaves = []
    v = verify_successful(s, make_z_channel(2), 1, on_transcript=leaves.append)
    assert v.outcome == "success"
    assert leaves
    for tr in leaves:
        assert tr.decoded is not None
        assert len(tr.sent) == 4
        assert len(tr.error_positions) <= 1
        assert all(tr.sent[i] != tr.received[i] for i in tr.error_positions)
    # leaf count: distinct adversary paths, all decoding correctly
    assert len({(tr.received) for tr in leaves}) >= len(leaves) // s.message_count


def test_unidirectional_leaves_never_mix_directions():
    s = unidirectional_rubber_strategy(3, 2, 8, 2)
    leaves = []
    v = verify_successful(s, make_unidirectional_pair(3), 2, on_transcript=leaves.append)
    assert v.outcome == "success"
    mixed_seen = False
    for tr in leaves:
        deltas = [y - x for x, y in zip(tr.sent, tr.received)]
        assert not (any(d > 0 for d in deltas) and any(d < 0 for d in deltas))
        if any(d != 0 for d in deltas):
            mixed_seen = True
    assert mixed_seen


def recursive_leaves(strategy, channel, t):
    """Leaves (message, sent, received, direction, decoded) in plain recursive DFS order."""
    leaves = []

    def walk(m, sent, received, budget, direction):
        if len(received) == strategy.block_length:
            leaves.append((m, sent, received, direction, strategy.decode(received)))
            return
        x = strategy.encode_step(m, received)
        for y in admissible_outputs(channel, x, budget, direction):
            walk(m, sent + (x,), received + (y,), budget - (y != x), advance_direction(channel, direction, x, y))

    for m in range(strategy.message_count):
        walk(m, (), (), t, DirectionState.UNDECIDED)
    return leaves


@pytest.mark.parametrize(
    "strategy, channel, t",
    [
        (modified_rubber_strategy(3, 2, "z", 6, 1), make_z_channel(3), 1),
        (unidirectional_rubber_strategy(3, 2, 8, 2), make_unidirectional_pair(3), 2),
        (zero_error_unidirectional_strategy(3, 4), make_unidirectional_pair(3), 4),
        (identity_strategy(2, 3), make_z_channel(2), 1),
    ],
)
def test_search_visits_leaves_in_recursive_order(strategy, channel, t):
    expected = recursive_leaves(strategy, channel, t)
    seen = []
    verdict = verify_successful(
        strategy, channel, t,
        on_transcript=lambda tr: seen.append((tr.sent, tr.received, tr.direction, tr.decoded)),
    )
    failing = next((i for i, leaf in enumerate(expected) if leaf[4] != leaf[0]), None)
    if failing is None:
        assert verdict.outcome == "success"
        assert seen == [leaf[1:] for leaf in expected]
    else:
        m, sent, received, _, decoded = expected[failing]
        assert (verdict.message, verdict.sent, verdict.received, verdict.decoded) == (m, sent, received, decoded)
        assert seen == [leaf[1:] for leaf in expected[: failing + 1]]


def test_verdict_json_for_counterexample():
    v = Verdict("counterexample", message=1, sent=(0, 1), received=(0, 0), decoded=0, nodes=6)
    assert v.to_json_dict() == {
        "outcome": "counterexample",
        "nodes": 6,
        "counterexample": {"message": 1, "sent": [0, 1], "received": [0, 0], "decoded": 0},
    }


# -- the transposition table against the full walk -----------------------------

CHANNELS = {
    "z": make_z_channel,
    "invz": make_inverse_z_channel,
    "sym": make_symmetric_channel,
    "star": make_star_channel,
    "uni": make_unidirectional_pair,
}


def full_walk(strategy, channel, t, node_budget):
    # an on_transcript callback turns the memo off; the declared state stays
    return verify_successful(strategy, channel, t, node_budget=node_budget, on_transcript=lambda tr: None)


def encode_step_walk(strategy, channel, t, node_budget):
    # a replaced encode_step is a plain function: encode_step at every node, no memo
    plain = replace(strategy, encode_step=lambda m, y: strategy.encode_step(m, y))
    return verify_successful(plain, channel, t, node_budget=node_budget)


def assert_memo_matches_full_walk(strategy, channel, t):
    """Every Verdict field agrees, uncapped and at every interesting node cap.

    The default walk (declared state and key) is checked against the walk
    with the state but no key, and against the walk through encode_step.
    """
    tree = encode_step_walk(strategy, channel, t, DEFAULT_NODE_BUDGET)
    assert full_walk(strategy, channel, t, DEFAULT_NODE_BUDGET) == tree
    assert verify_successful(strategy, channel, t) == tree
    for node_budget in (1, 37, 5_000, tree.nodes - 1, tree.nodes, tree.nodes + 1):
        expected = encode_step_walk(strategy, channel, t, node_budget)
        assert full_walk(strategy, channel, t, node_budget) == expected, node_budget
        assert verify_successful(strategy, channel, t, node_budget=node_budget) == expected, node_budget
    return tree.outcome


# each built for t = 2; unirubber's tree on uni (7,197 nodes) puts the 5,000 cap mid-tree
RUBBER_SCHEMES = {
    "rubber_z": lambda: modified_rubber_strategy(3, 2, "z", 8, 2),
    "rubber_invz": lambda: modified_rubber_strategy(3, 2, "invz", 8, 2),
    "unirubber": lambda: unidirectional_rubber_strategy(3, 2, 9, 2),
}

# the schemes that declare a state but no key
UNKEYED_SCHEMES = {
    "zero_error": lambda: zero_error_unidirectional_strategy(3, 7),
    "identity": lambda: identity_strategy(3, 4),
}


@pytest.mark.parametrize("channel_id", CHANNELS)
@pytest.mark.parametrize("scheme", {**RUBBER_SCHEMES, **UNKEYED_SCHEMES})
def test_memo_matches_full_walk(scheme, channel_id):
    build = RUBBER_SCHEMES.get(scheme) or UNKEYED_SCHEMES[scheme]
    assert_memo_matches_full_walk(build(), CHANNELS[channel_id](3), 2)


@pytest.mark.parametrize(
    "strategy, channel_id, t",
    [
        # the first failing leaf comes after subtrees the memo skips
        (modified_rubber_strategy(3, 1, "invz", 9, 2), "z", 3),
        (modified_rubber_strategy(3, 2, "invz", 9, 2), "star", 3),
        (modified_rubber_strategy(3, 1, "invz", 9, 2), "uni", 2),
        (unidirectional_rubber_strategy(3, 2, 9, 2), "uni", 3),
    ],
)
def test_memo_matches_full_walk_past_skipped_subtrees(strategy, channel_id, t):
    assert assert_memo_matches_full_walk(strategy, CHANNELS[channel_id](3), t) == "counterexample"


def codeword_only(strategy):
    """The strategy with an unsound key: the codeword without the receiver stack."""
    return replace(strategy, encode_step=strategy.encode_step._replace(key=lambda state, direction: state.codeword))


def test_differential_check_catches_an_unsound_key():
    with pytest.raises(AssertionError):
        assert_memo_matches_full_walk(codeword_only(RUBBER_SCHEMES["rubber_z"]()), make_z_channel(3), 2)


@pytest.mark.parametrize("field", ["encode_step", "decode"])
def test_replaced_callables_get_the_full_walk(field, monkeypatch):
    # the unsound key would change the verdict if it still applied
    mutant = codeword_only(RUBBER_SCHEMES["rubber_z"]())
    rewrapped = replace(mutant, **{field: lambda *args: getattr(mutant, field)(*args)})
    channel = make_z_channel(3)
    for node_budget in (37, DEFAULT_NODE_BUDGET):
        expected = full_walk(mutant, channel, 2, node_budget)
        assert verify_successful(rewrapped, channel, 2, node_budget=node_budget) == expected
    # a replaced decode keeps the declared fold, which unranks once per
    # message; a replaced encode_step is asked at each of the 2,836 inner nodes
    calls = []
    unrank = strategies.unrank
    monkeypatch.setattr(strategies, "unrank", lambda *args: calls.append(args) or unrank(*args))
    assert verify_successful(rewrapped, channel, 2) == expected
    assert len(calls) == {"decode": mutant.message_count, "encode_step": 2_836}[field]


def test_memo_skips_proven_subtrees(monkeypatch):
    s = modified_rubber_strategy(3, 2, "z", 8, 2)
    channel = make_z_channel(3)
    leaves = []
    full = verify_successful(s, channel, 2, on_transcript=leaves.append)
    calls = []
    rank = strategies.rank
    monkeypatch.setattr(strategies, "rank", lambda *args: calls.append(args) or rank(*args))
    memo = verify_successful(s, channel, 2)
    assert memo.outcome == full.outcome == "success"
    assert memo.nodes == full.nodes
    assert len(calls) < len(leaves)
