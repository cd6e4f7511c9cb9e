"""Adversarial channel graphs over small integer alphabets.

A channel is a directed graph on symbols: an edge (i, j) with i != j means a
sent symbol i may be delivered as j at the cost of one adversary error.
Every symbol always has the free self-loop (i, i), so doing nothing is
always admissible.

Both channel types share one interface, which is all that sessions and the
verifier use: symbols (the input alphabet), outputs_for(sent, direction)
(every output the adversary may deliver, before any budget check) and
direction_after(direction, sent, received).  A ChannelGraph is a
unidirectional channel whose error direction is fixed in advance, so it
ignores the direction; a UnidirectionalChannel commits its direction at the
first error.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

from ._checks import check_at_least

# Sentinel symbol for the hub node of the star channel.  It is a valid
# symbol everywhere a plain int is accepted, including JSON output.
STAR = -1


@dataclass(frozen=True)
class ChannelGraph:
    """Immutable channel graph.

    q is the size of the base alphabet {0, .., q-1}; symbols may extend it
    (the star channel adds the STAR hub).  edges holds ordered pairs
    (sent, received).  Each symbol's sorted outputs are built once, in the
    same pass that validates the graph, so outputs is a lookup.
    """

    name: str
    q: int
    symbols: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    _outputs: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_at_least(self.q, 2, "alphabet size")
        outputs: dict[int, list[int]] = {s: [] for s in self.symbols}
        if len(outputs) != len(self.symbols):
            raise ValueError("duplicate symbols")
        for i, j in self.edges:
            if i not in outputs or j not in outputs:
                raise ValueError(f"edge ({i}, {j}) leaves the symbol set")
            outputs[i].append(j)
        for s, out in outputs.items():
            if s not in out:
                raise ValueError(f"symbol {s} is missing its self-loop")
        object.__setattr__(self, "_outputs", {s: tuple(sorted(out)) for s, out in outputs.items()})

    def outputs(self, sent: int) -> tuple[int, ...]:
        """All symbols the adversary can deliver for a given sent symbol."""
        out = self._outputs.get(sent)
        if out is None:
            raise ValueError(f"{sent} is not a channel symbol")
        return out

    def outputs_for(self, sent: int, direction: DirectionState) -> tuple[int, ...]:
        """Outputs for sent; a graph's error direction is fixed in advance."""
        return self.outputs(sent)

    def direction_after(self, direction: DirectionState, sent: int, received: int) -> DirectionState:
        return direction


def _with_self_loops(symbols: Iterable[int], extra: Iterable[tuple[int, int]]) -> frozenset:
    loops = {(s, s) for s in symbols}
    return frozenset(loops | set(extra))


def make_z_channel(q: int) -> ChannelGraph:
    """Channel where each positive symbol may decay by one: i -> i - 1."""
    symbols = tuple(range(q))
    extra = [(i, i - 1) for i in range(1, q)]
    return ChannelGraph("z", q, symbols, _with_self_loops(symbols, extra))


def make_inverse_z_channel(q: int) -> ChannelGraph:
    """Mirror of the Z channel: each symbol below q-1 may grow by one."""
    symbols = tuple(range(q))
    extra = [(i, i + 1) for i in range(q - 1)]
    return ChannelGraph("inverse_z", q, symbols, _with_self_loops(symbols, extra))


def make_symmetric_channel(q: int) -> ChannelGraph:
    """Complete channel: any symbol can become any other."""
    symbols = tuple(range(q))
    extra = [(i, j) for i in symbols for j in symbols if i != j]
    return ChannelGraph("symmetric", q, symbols, _with_self_loops(symbols, extra))


def make_star_channel(q: int) -> ChannelGraph:
    """Cycle-like channel on q ordinary symbols plus a hub.

    Ordinary symbol i may become i + 1 (for i <= q - 2), the hub may become
    q - 1, and symbol 0 may become the hub, closing the cycle.
    """
    symbols = (STAR,) + tuple(range(q))
    extra = [(i, i + 1) for i in range(q - 1)]
    extra += [(STAR, q - 1), (0, STAR)]
    return ChannelGraph("star", q, symbols, _with_self_loops(symbols, extra))


class DirectionState(enum.Enum):
    """Which way a unidirectional adversary has committed."""

    # equality is identity, so hash by identity too (Enum's own hash is
    # Python code, and the verifier hashes a direction at every node)
    __hash__ = object.__hash__

    UNDECIDED = "undecided"
    POSITIVE = "positive"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class UnidirectionalChannel:
    """Adversary that may only ever push symbols one way within a block.

    One rule, no stored graphs: each error moves a symbol one step, up
    (POSITIVE) or down (NEGATIVE), always the way the block's first error
    went, so the direction is committed at that error, not in advance.
    """

    q: int

    def __post_init__(self) -> None:
        check_at_least(self.q, 2, "alphabet size")

    @property
    def symbols(self) -> tuple[int, ...]:
        return tuple(range(self.q))

    def outputs_for(self, sent: int, direction: DirectionState) -> tuple[int, ...]:
        if not 0 <= sent < self.q:
            raise ValueError(f"{sent} is not a channel symbol")
        down = () if direction is DirectionState.POSITIVE or sent == 0 else (sent - 1,)
        up = () if direction is DirectionState.NEGATIVE or sent == self.q - 1 else (sent + 1,)
        return down + (sent,) + up

    def direction_after(self, direction: DirectionState, sent: int, received: int) -> DirectionState:
        """Direction state once (sent, received) has happened.

        Raises ValueError if the step is inconsistent with the committed
        direction or is not a single-step move.
        """
        delta = received - sent
        if delta == 0:
            return direction
        if delta == 1:
            if direction is DirectionState.NEGATIVE:
                raise ValueError("positive error after negative commitment")
            return DirectionState.POSITIVE
        if delta == -1:
            if direction is DirectionState.POSITIVE:
                raise ValueError("negative error after positive commitment")
            return DirectionState.NEGATIVE
        raise ValueError(f"step from {sent} to {received} is not admissible")


def make_unidirectional_pair(q: int) -> UnidirectionalChannel:
    return UnidirectionalChannel(q)
