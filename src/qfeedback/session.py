"""One interactive transmission: encoder with feedback, adversary, decoder.

The encoder sees every delivered symbol before choosing the next input
(noiseless feedback).  The adversary sees the current input symbol and the
whole transcript so far, and may corrupt it to any admissible output while
its error budget lasts.  A session produces a Transcript; nothing survives
between sessions, so any prefix can be replayed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, Union

from .channels import ChannelGraph, DirectionState, UnidirectionalChannel

Channel = Union[ChannelGraph, UnidirectionalChannel]


@dataclass(frozen=True)
class Strategy:
    """A deterministic feedback coding strategy.

    encode_step maps (message, received prefix) to the next input symbol and
    must depend on nothing else; decode maps a full received word to a
    message and sees no feedback-side state.
    """

    name: str
    q: int
    message_count: int
    block_length: int
    encode_step: Callable[[int, tuple[int, ...]], int]
    decode: Callable[[tuple[int, ...]], int]


@dataclass(frozen=True)
class Transcript:
    sent: tuple[int, ...]
    received: tuple[int, ...]
    error_positions: tuple[int, ...]
    direction: DirectionState
    decoded: int

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


def check_budget(strategy: Strategy, t: int) -> None:
    """Reject an error budget that no block of this strategy can have."""
    if t < 0:
        raise ValueError(f"error budget must be nonnegative, got {t}")
    if t > strategy.block_length:
        raise ValueError("error budget exceeds the block length")


def check_message(strategy: Strategy, message: int) -> None:
    """Reject a message index outside the strategy's message set."""
    if not 0 <= message < strategy.message_count:
        raise ValueError(f"message {message} out of range for M={strategy.message_count}")


def run_session(strategy: Strategy, channel: Channel, adversary: Adversary, message: int, t: int) -> Transcript:
    """Play out one full block and decode it.

    Raises ValueError on hard faults: the strategy emitting a symbol outside
    the alphabet, or the adversary choosing an inadmissible output.
    """
    check_message(strategy, message)
    check_budget(strategy, t)
    symbols = frozenset(channel.symbols)
    n = strategy.block_length
    sent: list[int] = []
    received: list[int] = []
    errors: list[int] = []
    direction = DirectionState.UNDECIDED
    budget = t
    for i in range(n):
        x = strategy.encode_step(message, tuple(received))
        if x not in symbols:
            raise ValueError(f"strategy emitted {x}, not a channel symbol")
        options = admissible_outputs(channel, x, budget, direction)
        y = adversary.choose(x, tuple(sent), tuple(received), budget, direction, options)
        if y not in options:
            raise ValueError(f"adversary chose {y} for input {x}, admissible: {options}")
        direction = advance_direction(channel, direction, x, y)
        if y != x:
            errors.append(i)
            budget -= 1
        sent.append(x)
        received.append(y)
    decoded = strategy.decode(tuple(received))
    return Transcript(tuple(sent), tuple(received), tuple(errors), direction, decoded)


def replay(strategy: Strategy, message: int, received: Sequence[int]) -> tuple[int, ...]:
    """Regenerate the input word the strategy sends against a received word.

    Determinism audit: for any completed Transcript, replay(strategy, m, y)
    must reproduce x exactly.
    """
    y = tuple(received)
    if len(y) > strategy.block_length:
        raise ValueError("received word longer than the block")
    return tuple(strategy.encode_step(message, y[:i]) for i in range(len(y)))
