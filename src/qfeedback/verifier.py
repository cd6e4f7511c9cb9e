"""Exhaustive game-tree certification of feedback strategies.

For every message, the verifier walks the complete tree of adversary
behaviors: at each position the adversary may deliver any admissible
output, with non-identity choices bounded by the error budget and, on
unidirectional channels, by the lazily committed direction.  A strategy is
certified only if every leaf decodes correctly.

Search order is deterministic: messages ascending, outputs ascending at
every node, so a reported counterexample is the lexicographically least
adversary path for the least failing message, and repeated runs agree
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .channels import DirectionState
from .session import Channel, Strategy, Transcript, admissible_outputs, advance_direction, check_budget

DEFAULT_NODE_BUDGET = 10_000_000


class NodeBudgetExceeded(RuntimeError):
    """The search hit its node cap before reaching a definite answer."""


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


class _Search:
    def __init__(
        self,
        strategy: Strategy,
        channel: Channel,
        node_budget: int,
        on_transcript: Optional[Callable[[Transcript], None]],
    ):
        if node_budget < 1:
            raise ValueError(f"node budget must be at least 1, got {node_budget}")
        self.strategy = strategy
        self.channel = channel
        self.node_budget = node_budget
        self.on_transcript = on_transcript
        self.nodes = 0
        self.max_depth = 0

    def search_message(self, m: int, t: int) -> Optional[tuple]:
        """First failing (sent, received, decoded) in path order, or None.

        Depth-first over an explicit stack of open nodes, outputs ascending,
        so deep blocks cannot exhaust the interpreter's recursion limit.
        """
        n = self.strategy.block_length
        encode_step, decode = self.strategy.encode_step, self.strategy.decode
        sent: list[int] = []
        received: list[int] = []
        # one frame per open node on the path: (input x, its outputs not yet tried, budget, direction)
        frames: list[tuple] = []
        budget, direction = t, DirectionState.UNDECIDED
        while True:
            self.nodes += 1
            if self.nodes > self.node_budget:
                raise NodeBudgetExceeded(f"node budget {self.node_budget} exhausted")
            depth = len(received)
            if depth > self.max_depth:
                self.max_depth = depth
            if depth == n:
                word = tuple(received)
                decoded = decode(word)
                if self.on_transcript is not None:
                    path = tuple(sent)
                    errors = tuple(i for i, (a, b) in enumerate(zip(path, word)) if a != b)
                    self.on_transcript(Transcript(path, word, errors, direction, decoded))
                if decoded != m:
                    return (tuple(sent), word, decoded)
            else:
                x = encode_step(m, tuple(received))
                frames.append((x, iter(admissible_outputs(self.channel, x, budget, direction)), budget, direction))
            # step to the next unvisited node: the next output of the
            # deepest frame that has one left
            while True:
                if not frames:
                    return None
                x, outputs, parent_budget, parent_direction = frames[-1]
                if len(received) == len(frames):
                    sent.pop()
                    received.pop()
                y = next(outputs, None)
                if y is not None:
                    break
                frames.pop()
            sent.append(x)
            received.append(y)
            budget = parent_budget - (1 if y != x else 0)
            direction = advance_direction(self.channel, parent_direction, x, y)


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
    search = _Search(strategy, channel, node_budget, on_transcript)
    for m in range(strategy.message_count):
        try:
            result = search.search_message(m, t)
        except NodeBudgetExceeded:
            return Verdict("inconclusive", nodes=search.nodes, max_depth=search.max_depth)
        if result is not None:
            sent, received, decoded = result
            return Verdict(
                "counterexample",
                message=m,
                sent=sent,
                received=received,
                decoded=decoded,
                nodes=search.nodes,
                max_depth=search.max_depth,
            )
    return Verdict("success", nodes=search.nodes, max_depth=search.max_depth)


def max_errors_survived(
    strategy: Strategy,
    channel: Channel,
    message: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Largest budget t for which the given message always decodes.

    Raises NodeBudgetExceeded if the cumulative search is cut off, rather
    than returning a number that nothing certifies.
    """
    if not 0 <= message < strategy.message_count:
        raise ValueError(f"message {message} out of range for M={strategy.message_count}")
    search = _Search(strategy, channel, node_budget, None)
    best = -1
    for t in range(strategy.block_length + 1):
        if search.search_message(message, t) is not None:
            break
        best = t
    return best
