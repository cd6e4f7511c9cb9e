"""One interactive transmission: encoder with feedback, adversary, decoder.

The encoder sees every delivered symbol before choosing the next input
(noiseless feedback).  The adversary sees the current input symbol and the
whole transcript so far, and may corrupt it to any admissible output while
its error budget lasts.  A session produces a Transcript; nothing survives
between sessions, so any prefix can be replayed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Protocol, Sequence, Union

from ._checks import check_at_least, check_integer
from .channels import ChannelGraph, DirectionState, UnidirectionalChannel

Channel = Union[ChannelGraph, UnidirectionalChannel]


class Sender(NamedTuple):
    """A declared sender state; called, it is a strategy's encode_step.

    start(message) is the state before the first symbol, feed(state, y)
    the state once y is delivered, and emit(state) the next input.
    Called as sender(message, received_prefix), it is emit of the fold of
    feed over the prefix from start(message), run afresh on every call, so
    a Sender is a strategy's encode_step.  The verifier, run_session and
    replay fold the state along their own path instead, one feed per
    delivered symbol.

    key_for, when not None, turns on the verifier's transposition table:
    key_for(channel, t) returns a key function for the search of that
    channel with error budget t, or None where the strategy vouches for
    no key there.  The key function maps a state to an int, which the
    verifier packs with the depth, the budget left and the direction into
    one int table entry.  One table serves the whole search, so a key that
    names no message lets a subtree proven for one message serve another.
    Soundness: two nodes of the search, of any messages, whose keys are
    equal at the same depth, budget left and channel direction must root
    subtrees with the same node count, every leaf of one decoding to its
    message exactly where every leaf of the other does, so that one proof
    of safety, and one node count, serves both.  A key is sound only
    beside the decode it was declared for, which is why a Sender holds
    decode.
    """

    start: Callable[[int], Any]
    feed: Callable[[Any, int], Any]
    emit: Callable[[Any], int]
    decode: Callable[[tuple[int, ...]], int]
    key_for: Optional[Callable[[Channel, int], Optional[Callable[[Any], int]]]] = None

    def __call__(self, message: int, received_prefix: tuple[int, ...]) -> int:
        state = self.start(message)
        for y in received_prefix:
            state = self.feed(state, y)
        return self.emit(state)


@dataclass(frozen=True)
class Strategy:
    """A deterministic feedback coding strategy.

    encode_step maps (message, received prefix) to the next input symbol and
    must depend on nothing else; decode maps a full received word to a
    message and sees no feedback-side state.  encode_step is a declared
    Sender, or any function of (message, prefix).

    The verifier, run_session and replay fold a declared Sender's state,
    one feed per delivered symbol, and ask any other encode_step about each
    prefix.  A key declared for the search also turns on the verifier's
    transposition table, with no further flag: each subtree is proven safe
    once per sender key, whatever the message, and a repeat adds the
    stored node count, so a verdict's nodes still counts the whole tree
    (see the verifier module for the walk).  Each strategy that declares a
    key states in its docstring where and why the key is sound; a strategy
    whose decode is not its Sender's keeps the fold but no key.
    """

    name: str
    message_count: int
    block_length: int
    encode_step: Callable[[int, tuple[int, ...]], int]
    decode: Callable[[tuple[int, ...]], int]


def _prefix_start(message: int) -> tuple[int, tuple[int, ...]]:
    return message, ()


def _prefix_feed(state: tuple[int, tuple[int, ...]], y: int) -> tuple[int, tuple[int, ...]]:
    return state[0], state[1] + (y,)


def sender_of(strategy: Strategy) -> Sender:
    """The Sender to walk: encode_step itself when it is one.

    Its key_for is dropped when decode is not the one it was declared for.
    Any other encode_step gets an adapter: its state is (message, received
    prefix), its emit calls encode_step, and it has no key.
    """
    step = strategy.encode_step
    if isinstance(step, Sender):
        return step if step.decode is strategy.decode else step._replace(key_for=None)
    return Sender(_prefix_start, _prefix_feed, lambda state: step(*state), strategy.decode)


@dataclass(frozen=True)
class Transcript:
    """One played block: the words sent and received, the channel's
    direction at the end, and the decoded message.  Its errors are read
    off the two words, so they cannot contradict them."""

    sent: tuple[int, ...]
    received: tuple[int, ...]
    direction: DirectionState
    decoded: int

    @property
    def error_positions(self) -> tuple[int, ...]:
        return tuple(i for i, (x, y) in enumerate(zip(self.sent, self.received)) if x != y)

    def to_json_dict(self) -> dict:
        return {
            "x": list(self.sent),
            "y": list(self.received),
            "errors": list(self.error_positions),
            "direction": self.direction.value,
            "decoded": self.decoded,
        }


class Adversary(Protocol):
    def choose(
        self,
        sent: int,
        sent_prefix: tuple[int, ...],
        received_prefix: tuple[int, ...],
        budget_left: int,
        direction: DirectionState,
        options: tuple[int, ...],
    ) -> int:
        """Pick the delivered symbol from the admissible options."""


class PassiveAdversary:
    """Never corrupts anything."""

    def choose(self, sent, sent_prefix, received_prefix, budget_left, direction, options):
        return sent


class GreedyAdversary:
    """Corrupts at the earliest opportunity, preferring the smallest output."""

    def choose(self, sent, sent_prefix, received_prefix, budget_left, direction, options):
        if budget_left > 0:
            for candidate in options:
                if candidate != sent:
                    return candidate
        return sent


class PathAdversary:
    """Delivers a prescribed output word, position by position."""

    def __init__(self, outputs: Sequence[int]):
        self.outputs = tuple(outputs)

    def choose(self, sent, sent_prefix, received_prefix, budget_left, direction, options):
        return self.outputs[len(received_prefix)]


def admissible_outputs(channel: Channel, sent: int, budget_left: int, direction: DirectionState) -> tuple[int, ...]:
    """Outputs the adversary may deliver, identity always included."""
    if budget_left <= 0:
        return (sent,)
    return channel.outputs_for(sent, direction)


def advance_direction(channel: Channel, direction: DirectionState, sent: int, received: int) -> DirectionState:
    return channel.direction_after(direction, sent, received)


def check_budget(strategy: Strategy, t: int) -> int:
    """The error budget as a plain int; reject one that no block of this
    strategy can have."""
    t = check_at_least(t, 0, "error budget")
    if t > strategy.block_length:
        raise ValueError("error budget exceeds the block length")
    return t


def check_message(strategy: Strategy, message: int) -> int:
    """The message index as a plain int; reject one outside the
    strategy's message set."""
    message = check_integer(message, "message")
    if not 0 <= message < strategy.message_count:
        raise ValueError(f"message {message} out of range for M={strategy.message_count}")
    return message


def run_session(strategy: Strategy, channel: Channel, adversary: Adversary, message: int, t: int) -> Transcript:
    """Play out one full block and decode it.

    Raises ValueError on hard faults: the strategy emitting a symbol outside
    the alphabet, or the adversary choosing an inadmissible output.
    """
    message = check_message(strategy, message)
    t = check_budget(strategy, t)
    symbols = frozenset(channel.symbols)
    n = strategy.block_length
    sent: list[int] = []
    received: list[int] = []
    direction = DirectionState.UNDECIDED
    budget = t
    sender = sender_of(strategy)
    state = sender.start(message)
    for i in range(n):
        if i:
            state = sender.feed(state, y)
        x = sender.emit(state)
        if x not in symbols:
            raise ValueError(f"strategy emitted {x}, not a channel symbol")
        options = admissible_outputs(channel, x, budget, direction)
        y = adversary.choose(x, tuple(sent), tuple(received), budget, direction, options)
        if y not in options:
            raise ValueError(f"adversary chose {y} for input {x}, admissible: {options}")
        direction = advance_direction(channel, direction, x, y)
        budget -= y != x
        sent.append(x)
        received.append(y)
    decoded = strategy.decode(tuple(received))
    return Transcript(tuple(sent), tuple(received), direction, decoded)


def replay(strategy: Strategy, message: int, received: Sequence[int]) -> tuple[int, ...]:
    """Regenerate the input word the strategy sends against a received word.

    Determinism audit: for any completed Transcript, replay(strategy, m, y)
    must reproduce x exactly.
    """
    message = check_message(strategy, message)
    y = tuple(received)
    if len(y) > strategy.block_length:
        raise ValueError("received word longer than the block")
    sender = sender_of(strategy)
    sent = []
    state = None
    for i in range(len(y)):
        state = sender.feed(state, y[i - 1]) if i else sender.start(message)
        sent.append(sender.emit(state))
    return tuple(sent)
