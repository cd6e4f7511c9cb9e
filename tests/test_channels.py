import dataclasses
import random

import pytest

from qfeedback.channels import (
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
from qfeedback.session import admissible_outputs


def test_z_channel_structure():
    g = make_z_channel(3)
    assert g.symbols == (0, 1, 2)
    assert g.edges == frozenset({(0, 0), (1, 1), (2, 2), (1, 0), (2, 1)})
    assert g.outputs(2) == (1, 2)
    assert g.outputs(0) == (0,)


def test_inverse_z_mirrors_z():
    g = make_inverse_z_channel(4)
    z = make_z_channel(4)
    # relabel i -> q-1-i turns one into the other
    relabeled = {(3 - i, 3 - j) for i, j in g.edges}
    assert relabeled == set(z.edges)


def test_symmetric_channel_is_complete():
    g = make_symmetric_channel(3)
    assert len(g.edges) == 9
    for i in range(3):
        assert g.outputs(i) == (0, 1, 2)


def test_star_channel_structure():
    g = make_star_channel(3)
    assert set(g.symbols) == {STAR, 0, 1, 2}
    assert STAR == -1
    assert g.outputs(0) == (STAR, 0, 1)
    assert g.outputs(1) == (1, 2)
    assert g.outputs(STAR) == (STAR, 2)
    # the last ordinary symbol can only stay put
    assert g.outputs(2) == (2,)
    assert (STAR, STAR) in g.edges
    # hub plus the ordinary symbols close a single cycle of corruptions
    assert len(g.edges) == 4 + 4


def test_admissible_outputs_respects_budget():
    g = make_z_channel(3)
    assert admissible_outputs(g, 2, 1, DirectionState.UNDECIDED) == (1, 2)
    assert admissible_outputs(g, 2, 0, DirectionState.UNDECIDED) == (2,)
    pair = make_unidirectional_pair(3)
    assert admissible_outputs(pair, 1, 1, DirectionState.UNDECIDED) == (0, 1, 2)
    assert admissible_outputs(pair, 1, 0, DirectionState.UNDECIDED) == (1,)


def test_outputs_rejects_foreign_symbol():
    g = make_z_channel(3)
    with pytest.raises(ValueError):
        g.outputs(7)
    for q in (2, 3, 5):
        pair = make_unidirectional_pair(q)
        for direction in DirectionState:
            for sent in (-1, q):
                with pytest.raises(ValueError):
                    pair.outputs_for(sent, direction)
    with pytest.raises(ValueError):
        UnidirectionalChannel(1)


def test_graph_validation():
    with pytest.raises(ValueError):
        ChannelGraph("bad", 1, (0,), frozenset({(0, 0)}))
    with pytest.raises(ValueError, match="duplicate symbols"):
        ChannelGraph("bad", 2, (0, 1, 0), frozenset({(0, 0), (1, 1)}))
    with pytest.raises(ValueError, match=r"edge \(0, 5\) leaves the symbol set"):
        ChannelGraph("bad", 2, (0, 1), frozenset({(0, 0), (1, 1), (0, 5)}))
    with pytest.raises(ValueError, match="symbol 1 is missing its self-loop"):
        ChannelGraph("bad", 2, (0, 1), frozenset({(0, 0), (1, 0)}))


def test_outputs_are_the_sorted_edges_of_each_symbol():
    # the table built once in __post_init__ answers what a scan of the
    # edges would, on the four graph makers and on random graphs
    rng = random.Random(20261018)
    makers = (make_z_channel, make_inverse_z_channel, make_symmetric_channel, make_star_channel)
    graphs = [make(q) for make in makers for q in range(2, 9)]
    for _ in range(40):
        q = rng.randint(2, 6)
        symbols = list(range(q)) + [STAR] * rng.randint(0, 1)
        rng.shuffle(symbols)
        extra = {(rng.choice(symbols), rng.choice(symbols)) for _ in range(rng.randint(0, q * q))}
        graphs.append(ChannelGraph("random", q, tuple(symbols), frozenset({(s, s) for s in symbols} | extra)))
    for g in graphs:
        for s in g.symbols:
            assert g.outputs(s) == tuple(sorted(j for i, j in g.edges if i == s)), (g, s)


def test_unidirectional_outputs_by_direction():
    pair = make_unidirectional_pair(3)
    assert pair.outputs_for(1, DirectionState.UNDECIDED) == (0, 1, 2)
    assert pair.outputs_for(1, DirectionState.POSITIVE) == (1, 2)
    assert pair.outputs_for(1, DirectionState.NEGATIVE) == (0, 1)
    assert pair.outputs_for(0, DirectionState.NEGATIVE) == (0,)
    assert pair.outputs_for(2, DirectionState.POSITIVE) == (2,)
    assert [f.name for f in dataclasses.fields(UnidirectionalChannel)] == ["q"]
    # the one +-1 rule agrees with the Z / inverse-Z graphs, direction by direction
    for q in range(2, 7):
        pair = make_unidirectional_pair(q)
        assert pair == UnidirectionalChannel(q)
        z, invz = make_z_channel(q), make_inverse_z_channel(q)
        for s in range(q):
            expected = {
                DirectionState.UNDECIDED: tuple(sorted(set(z.outputs(s)) | set(invz.outputs(s)))),
                DirectionState.POSITIVE: invz.outputs(s),
                DirectionState.NEGATIVE: z.outputs(s),
            }
            for direction in DirectionState:
                assert pair.outputs_for(s, direction) == expected[direction]


def test_direction_commitment():
    pair = make_unidirectional_pair(3)
    d = DirectionState.UNDECIDED
    d = pair.direction_after(d, 1, 1)
    assert d is DirectionState.UNDECIDED
    d = pair.direction_after(d, 1, 2)
    assert d is DirectionState.POSITIVE
    # identity keeps the commitment
    assert pair.direction_after(d, 0, 0) is DirectionState.POSITIVE
    with pytest.raises(ValueError):
        pair.direction_after(d, 1, 0)
    with pytest.raises(ValueError):
        pair.direction_after(DirectionState.UNDECIDED, 0, 2)


def test_graph_and_pair_share_one_interface():
    # a graph's error direction is fixed in advance, so direction changes nothing
    g = make_z_channel(3)
    for d in DirectionState:
        assert g.outputs_for(2, d) == g.outputs(2)
        assert g.direction_after(d, 2, 1) is d
    assert make_unidirectional_pair(3).symbols == (0, 1, 2)
