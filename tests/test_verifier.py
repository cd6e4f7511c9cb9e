from dataclasses import replace

import pytest

from qfeedback.bounds import sphere_packing_message_bound
from qfeedback.channels import DirectionState, make_unidirectional_pair, make_z_channel
from qfeedback.session import PathAdversary, Strategy, admissible_outputs, advance_direction, run_session
from qfeedback.strategies import (
    identity_strategy,
    modified_rubber_strategy,
    unidirectional_rubber_strategy,
    zero_error_unidirectional_strategy,
)
from qfeedback.verifier import (
    NodeBudgetExceeded,
    Verdict,
    max_errors_survived,
    verify_successful,
)


def test_identity_with_zero_budget_succeeds():
    s = identity_strategy(3, 2)
    v = verify_successful(s, make_z_channel(3), 0)
    assert v.outcome == "success"
    assert v.max_depth == 2


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
        with pytest.raises(ValueError):
            max_errors_survived(s, make_z_channel(2), 0, node_budget=node_budget)


def test_node_budget_boundary_is_exact():
    s = modified_rubber_strategy(2, 2, "z", 6, 1)
    ch = make_z_channel(2)
    tree = verify_successful(s, ch, 1).nodes
    assert verify_successful(s, ch, 1, node_budget=tree).outcome == "success"
    cut = verify_successful(s, ch, 1, node_budget=tree - 1)
    assert (cut.outcome, cut.nodes) == ("inconclusive", tree)


def test_max_errors_survived_budget_is_cumulative_over_t():
    s = zero_error_unidirectional_strategy(3, 3)
    pair = make_unidirectional_pair(3)
    # message 0's tree for each budget t = 0..n, all of which it survives
    trees = [verify_successful(replace(s, message_count=1), pair, t).nodes for t in range(4)]
    assert max_errors_survived(s, pair, 0, node_budget=sum(trees)) == 3
    for node_budget in (sum(trees) - 1, max(trees)):
        with pytest.raises(NodeBudgetExceeded):
            max_errors_survived(s, pair, 0, node_budget=node_budget)


BAD_SYMBOL_STRATEGY = Strategy("bad", 2, 1, 2, lambda m, y: 7, lambda y: 0)


@pytest.mark.parametrize("t", [0, 1])
def test_non_channel_symbols_are_rejected_at_every_budget(t):
    for channel in (make_z_channel(2), make_unidirectional_pair(2)):
        with pytest.raises(ValueError, match="strategy emitted 7, not a channel symbol"):
            verify_successful(BAD_SYMBOL_STRATEGY, channel, t)
        with pytest.raises(ValueError, match="strategy emitted 7, not a channel symbol"):
            max_errors_survived(BAD_SYMBOL_STRATEGY, channel, 0)
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
    assert v.max_depth == 3


def test_max_errors_survived_zero_error_scheme():
    s = zero_error_unidirectional_strategy(5, 3)
    pair = make_unidirectional_pair(5)
    for m in (0, 4, 8):
        assert max_errors_survived(s, pair, m) == 3


def test_max_errors_survived_identity_all_zero_word():
    # the all-zero codeword cannot be corrupted on the Z channel at all
    s = identity_strategy(2, 3)
    assert max_errors_survived(s, make_z_channel(2), 0) == 3
    # while a corruptible codeword with no slack dies at its first error
    assert max_errors_survived(s, make_z_channel(2), 7) == 0


def test_max_errors_survived_budget_raises():
    s = modified_rubber_strategy(2, 2, "z", 6, 1)
    with pytest.raises(NodeBudgetExceeded):
        max_errors_survived(s, make_z_channel(2), 0, node_budget=5)


def test_max_errors_survived_message_validation():
    s = identity_strategy(2, 2)
    with pytest.raises(ValueError):
        max_errors_survived(s, make_z_channel(2), 4)


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
    assert verdict.max_depth == strategy.block_length


def test_verdict_json_for_counterexample():
    v = Verdict("counterexample", message=1, sent=(0, 1), received=(0, 0), decoded=0, nodes=6, max_depth=2)
    assert v.to_json_dict() == {
        "outcome": "counterexample",
        "nodes": 6,
        "counterexample": {"message": 1, "sent": [0, 1], "received": [0, 0], "decoded": 0},
    }
