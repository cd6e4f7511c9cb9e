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

The walk carries the sender's state (session.sender_of).  Each pending
child on the stack holds its parent's state; a node's state is
feed(parent state, its received symbol), the root's is start(message),
and a node's input is emit(state).  An encode_step that is not a Sender
gets the adapter state (message, received prefix) with emit calling
encode_step, in the same loop.  A node's children depend only on (input,
budget left, direction), so they are built once per search, through
admissible_outputs and advance_direction, and kept in a table; an input
outside the channel's symbols is rejected when its entry is built.

The walk keeps a transposition table, on by default, one for the whole
search.  When the Sender declares a key for the search
(key_for(channel, t); each declaring strategy's docstring says where and
why its key is sound), every subtree proven safe is stored under one
integer entry with its node count: the sender key, an int, packed with
the depth, the budget left and the direction as
((key * (n + 1) + depth) * (t + 1) + budget) * 3 + direction code.
Depth is at most n, budget at most t and the code below 3, so distinct
(key, depth, budget, direction) get distinct entries, whatever the
sign or size of the key.  A key need not name the message, so a subtree
proven for one message can serve every later one.  A later node with
the same entry adds that count to the node total instead of walking the
subtree again, unless the count would cross the node cap, in which case
the subtree is walked.  The table stores at most TABLE_LIMIT entries;
once that many subtrees are stored, new ones are walked and not stored,
while hits on stored ones still count.  So the node count still counts
the whole tree, and every Verdict field (outcome, counterexample, nodes)
equals the plain walk's, whatever the limit.  The table is off when the
Sender declares no key for the search, when decode is not the Sender's
own, when the adapter runs, and when an on_transcript callback is given,
since the callback must see every leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ._checks import check_at_least
from .channels import DirectionState
from .session import (
    Channel,
    Strategy,
    Transcript,
    admissible_outputs,
    advance_direction,
    check_budget,
    sender_of,
)

DEFAULT_NODE_BUDGET = 10_000_000

# the most entries one search's table stores.  An entry costs 68-95 bytes
# on the rubber searches (its int, its node count and its dict slot) and
# about 110 in a dict of 500,000 entries with keys above 2**31, so a full
# table stays near 0.4 GB, whatever the node cap
TABLE_LIMIT = 4_000_000

# each direction's code in a table entry
_DIRECTION_CODE = {DirectionState.UNDECIDED: 0, DirectionState.NEGATIVE: 1, DirectionState.POSITIVE: 2}


def check_node_budget(node_budget: int) -> int:
    """The node cap as a plain int; reject one that would stop the search
    before its first node."""
    return check_at_least(node_budget, 1, "node budget")


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


def _children(channel: Channel, symbols: frozenset, x: int, budget: int, direction: DirectionState) -> tuple:
    """A node's children as (received symbol, budget left, direction), in push order."""
    if x not in symbols:
        raise ValueError(f"strategy emitted {x}, not a channel symbol")
    return tuple(
        (y, budget - (y != x), advance_direction(channel, direction, x, y))
        for y in reversed(admissible_outputs(channel, x, budget, direction))
    )


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
    t = check_budget(strategy, t)
    node_budget = check_node_budget(node_budget)
    n = strategy.block_length
    decode = strategy.decode
    symbols = frozenset(channel.symbols)
    sender = sender_of(strategy)
    feed, emit = sender.feed, sender.emit
    key = sender.key_for(channel, t) if sender.key_for is not None and on_transcript is None else None
    code = _DIRECTION_CODE
    # packed (sender key, depth, budget left, direction) -> node count of a subtree proven safe
    memo: dict = {}
    # how many more subtrees the table may store
    room = TABLE_LIMIT
    # (input, budget left, direction) -> that node's children
    children_of: dict = {}
    nodes = 0
    for m in range(strategy.message_count):
        # the node's path: sent[i] and received[i] for every i below its depth
        sent = [None] * n
        received = [None] * n
        # preorder, outputs ascending: pending children pushed in reverse as
        # (depth, received symbol, budget left, direction, parent state); an
        # entry that closes a keyed subtree is (-1, its memo entry, the node
        # count before it, None, None)
        stack = [(0, None, t, DirectionState.UNDECIDED, sender.start(m))]
        while stack:
            depth, y, budget, direction, state = stack.pop()
            if depth < 0:
                # every node below was walked and every leaf decoded to m
                memo[y] = nodes - budget
                continue
            nodes += 1
            if nodes > node_budget:
                return Verdict("inconclusive", nodes=nodes)
            if depth:
                received[depth - 1] = y
                if depth < n:
                    state = feed(state, y)
            if depth == n:
                word = tuple(received)
                decoded = decode(word)
                if on_transcript is not None:
                    on_transcript(Transcript(tuple(sent), word, direction, decoded))
                if decoded != m:
                    return Verdict("counterexample", m, tuple(sent), word, decoded, nodes)
                continue
            if key is not None:
                entry = ((key(state) * (n + 1) + depth) * (t + 1) + budget) * 3 + code[direction]
                size = memo.get(entry)
                if size is not None and nodes - 1 + size <= node_budget:
                    nodes += size - 1
                    continue
                if room:
                    room -= 1
                    stack.append((-1, entry, nodes - 1, None, None))
            x = emit(state)
            children = children_of.get((x, budget, direction))
            if children is None:
                children = children_of[x, budget, direction] = _children(channel, symbols, x, budget, direction)
            sent[depth] = x
            depth += 1
            for y, left, after in children:
                stack.append((depth, y, left, after, state))
    return Verdict("success", nodes=nodes)
