"""Exhaustive game-tree certification of feedback strategies.

For every message, the verifier walks the complete tree of adversary
behaviors: at each position the adversary may deliver any admissible
output, with non-identity choices bounded by the error budget and, on
unidirectional channels, by the lazily committed direction.  A strategy is
certified only if every leaf decodes correctly.

Search order is deterministic: messages ascending, outputs ascending at
every node, so a reported counterexample is the lexicographically least
adversary path for the least failing message, and repeated runs agree
bit for bit.  One generator, _game_tree, yields a message's nodes in that
order; verify_successful and max_errors_survived both consume it, each
with its own node count, node cap and leaf test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .channels import DirectionState
from .session import Channel, Strategy, Transcript, admissible_outputs, advance_direction, check_budget, check_message

DEFAULT_NODE_BUDGET = 10_000_000


class NodeBudgetExceeded(RuntimeError):
    """The search hit its node cap before reaching a definite answer."""


def check_node_budget(node_budget: int) -> None:
    """Reject a node cap that would stop the search before its first node."""
    if node_budget < 1:
        raise ValueError(f"node budget must be at least 1, got {node_budget}")


@dataclass(frozen=True)
class Verdict:
    """Result of an exhaustive verification.

    outcome is "success", "counterexample" or "inconclusive"; the middle
    one carries the failing message and the transcript that breaks it.
    """

    outcome: str
    message: Optional[int] = None
    sent: Optional[tuple[int, ...]] = None
    received: Optional[tuple[int, ...]] = None
    decoded: Optional[int] = None
    nodes: int = 0
    max_depth: int = 0

    def to_json_dict(self) -> dict:
        data: dict = {"outcome": self.outcome, "nodes": self.nodes}
        if self.outcome == "counterexample":
            data["counterexample"] = {
                "message": self.message,
                "sent": list(self.sent),
                "received": list(self.received),
                "decoded": self.decoded,
            }
        return data


def _game_tree(strategy: Strategy, channel: Channel, m: int, t: int) -> Iterator[tuple]:
    """Every node of message m's tree as (sent, received, direction).

    Preorder, outputs ascending, from an explicit stack of pending children
    (pushed in reverse), so deep blocks cannot exhaust the recursion limit.
    A node is expanded, its input chosen and checked and its children
    pushed, only when the consumer asks for the node after it.
    """
    n = strategy.block_length
    symbols = frozenset(channel.symbols)
    stack = [((), (), t, DirectionState.UNDECIDED)]
    while stack:
        sent, received, budget, direction = stack.pop()
        yield sent, received, direction
        if len(received) == n:
            continue
        x = strategy.encode_step(m, received)
        if x not in symbols:
            raise ValueError(f"strategy emitted {x}, not a channel symbol")
        sent += (x,)
        for y in reversed(admissible_outputs(channel, x, budget, direction)):
            stack.append((sent, received + (y,), budget - (y != x), advance_direction(channel, direction, x, y)))


def verify_successful(
    strategy: Strategy,
    channel: Channel,
    t: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    on_transcript: Optional[Callable[[Transcript], None]] = None,
) -> Verdict:
    """Certify that every message survives every t-error adversary.

    Never conflates "not searched" with "safe": running out of node budget
    yields the distinct outcome "inconclusive".
    """
    check_budget(strategy, t)
    check_node_budget(node_budget)
    n = strategy.block_length
    nodes = max_depth = 0
    for m in range(strategy.message_count):
        for sent, received, direction in _game_tree(strategy, channel, m, t):
            nodes += 1
            if nodes > node_budget:
                return Verdict("inconclusive", nodes=nodes, max_depth=max_depth)
            depth = len(received)
            if depth > max_depth:
                max_depth = depth
            if depth < n:
                continue
            decoded = strategy.decode(received)
            if on_transcript is not None:
                errors = tuple(i for i, (a, b) in enumerate(zip(sent, received)) if a != b)
                on_transcript(Transcript(sent, received, errors, direction, decoded))
            if decoded != m:
                return Verdict("counterexample", m, sent, received, decoded, nodes, max_depth)
    return Verdict("success", nodes=nodes, max_depth=max_depth)


def max_errors_survived(
    strategy: Strategy,
    channel: Channel,
    message: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Largest budget t for which the given message always decodes.

    The node budget covers the whole scan over t.  Raises
    NodeBudgetExceeded if the search is cut off, rather than returning a
    number that nothing certifies.
    """
    check_message(strategy, message)
    check_node_budget(node_budget)
    n = strategy.block_length
    nodes = 0
    for t in range(n + 1):
        for _, received, _ in _game_tree(strategy, channel, message, t):
            nodes += 1
            if nodes > node_budget:
                raise NodeBudgetExceeded(f"node budget {node_budget} exhausted")
            if len(received) == n and strategy.decode(received) != message:
                return t - 1
    return n
