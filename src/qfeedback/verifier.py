"""Exhaustive game-tree certification of feedback strategies.

For every message, the verifier walks the complete tree of adversary
behaviors: at each position the adversary may deliver any admissible
output, with non-identity choices bounded by the error budget and, on
unidirectional channels, by the lazily committed direction.  A strategy is
certified only if every leaf decodes correctly.

Search order is deterministic: messages ascending, outputs ascending at
every node, so a reported counterexample is the lexicographically least
adversary path for the least failing message, and repeated runs agree
bit for bit.  The walk keeps an explicit stack, so deep blocks cannot
exhaust the recursion limit.

The walk keeps a transposition table, on by default.  When the strategy
declares a memo key (session.MemoKey; each declaring strategy's docstring
gives the argument for its soundness), every subtree proven safe is
stored, per message, under (sender key, depth, budget left, direction)
with its node count.  A later node with the same key adds that count to
the node total instead of walking the subtree again, unless the count
would cross the node cap, in which case the subtree is walked.  So the
node count still counts the whole tree, and every Verdict field (outcome,
counterexample, nodes, max_depth) equals the plain walk's.  The plain walk
runs instead when the strategy declares no key, when its encode_step or
decode is no longer the one the key was declared with, and when an
on_transcript callback is given, since the callback must see every leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .channels import DirectionState
from .session import Channel, Strategy, Transcript, admissible_outputs, advance_direction, check_budget

DEFAULT_NODE_BUDGET = 10_000_000

# Marks a stack entry that closes a keyed subtree: (_CLOSE, its memo cell,
# the node count before it, None).
_CLOSE = object()


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


def _sender_key(strategy: Strategy):
    """The strategy's declared key function, if it still fits its callables."""
    declared = strategy.memo_key
    if declared is None or declared.encode_step is not strategy.encode_step or declared.decode is not strategy.decode:
        return None
    return declared.key


def verify_successful(
    strategy: Strategy,
    channel: Channel,
    t: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    on_transcript: Optional[Callable[[Transcript], None]] = None,
) -> Verdict:
    """Certify that every message survives every t-error adversary.

    Never conflates "not searched" with "safe": running out of node budget
    yields the distinct outcome "inconclusive".  nodes counts every node of
    the tree walked up to the verdict, memo hits included.
    """
    check_budget(strategy, t)
    check_node_budget(node_budget)
    n = strategy.block_length
    symbols = frozenset(channel.symbols)
    sender_key = _sender_key(strategy) if on_transcript is None else None
    nodes = max_depth = 0
    for m in range(strategy.message_count):
        # key -> [node count of the subtree, once proven safe, else 0]
        memo: dict = {}
        # preorder, outputs ascending: pending children pushed in reverse
        stack = [((), (), t, DirectionState.UNDECIDED)]
        while stack:
            sent, received, budget, direction = stack.pop()
            if sent is _CLOSE:
                # every node below was walked and every leaf decoded to m
                received[0] = nodes - budget
                continue
            nodes += 1
            if nodes > node_budget:
                return Verdict("inconclusive", nodes=nodes, max_depth=max_depth)
            depth = len(received)
            if depth > max_depth:
                max_depth = depth
            if depth == n:
                decoded = strategy.decode(received)
                if on_transcript is not None:
                    errors = tuple(i for i, (a, b) in enumerate(zip(sent, received)) if a != b)
                    on_transcript(Transcript(sent, received, errors, direction, decoded))
                if decoded != m:
                    return Verdict("counterexample", m, sent, received, decoded, nodes, max_depth)
                continue
            if sender_key is not None:
                key = sender_key(m, received, direction)
                if key is not None:
                    # one hash per node: the cell is filled in when the subtree closes
                    cell = memo.setdefault((key, depth, budget, direction), [0])
                    size = cell[0]
                    # a proven subtree reached depth n already, so max_depth stands
                    if size and nodes - 1 + size <= node_budget:
                        nodes += size - 1
                        continue
                    stack.append((_CLOSE, cell, nodes - 1, None))
            x = strategy.encode_step(m, received)
            if x not in symbols:
                raise ValueError(f"strategy emitted {x}, not a channel symbol")
            sent += (x,)
            for y in reversed(admissible_outputs(channel, x, budget, direction)):
                stack.append((sent, received + (y,), budget - (y != x), advance_direction(channel, direction, x, y)))
    return Verdict("success", nodes=nodes, max_depth=max_depth)
