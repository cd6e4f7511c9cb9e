"""Counting, ranking, and unranking of run-avoiding q-ary strings.

The message sets of the rubber strategies are the strings over {0..q-1}
that never contain r consecutive copies of a reserved symbol.  Counting
uses exact big integers throughout; ranks overflow 64 bits quickly and the
message bijection has to be exact.

The DP state while scanning a string left to right is the trailing run:
(None, 0) when the last symbol is unreserved, (s, k) when the string ends
with exactly k copies of reserved symbol s.  A string is valid iff no
prefix reaches a run of the forbidden length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

State = tuple[Optional[int], int]
_START: State = (None, 0)


@dataclass(frozen=True)
class RunConstraint:
    """Forbid r consecutive copies of symbol b in a q-ary string."""

    q: int
    b: int
    r: int

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError(f"alphabet size must be at least 2, got {self.q}")
        if not 0 <= self.b < self.q:
            raise ValueError(f"reserved symbol {self.b} outside alphabet of size {self.q}")
        if self.r < 1:
            raise ValueError(f"run length must be at least 1, got {self.r}")

    def forbidden_runs(self) -> tuple[tuple[int, int], ...]:
        return ((self.b, self.r),)


@dataclass(frozen=True)
class DualRunConstraint:
    """Forbid r-runs of two distinct symbols at once.

    Used by the unidirectional strategy, whose codewords must dodge the
    rubber runs of both committed directions.
    """

    q: int
    first: int
    second: int
    r: int

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError(f"alphabet size must be at least 2, got {self.q}")
        for s in (self.first, self.second):
            if not 0 <= s < self.q:
                raise ValueError(f"reserved symbol {s} outside alphabet of size {self.q}")
        if self.first == self.second:
            raise ValueError("the two reserved symbols must differ")
        if self.r < 1:
            raise ValueError(f"run length must be at least 1, got {self.r}")

    def forbidden_runs(self) -> tuple[tuple[int, int], ...]:
        return ((self.first, self.r), (self.second, self.r))


def _step(forbidden: tuple[tuple[int, int], ...], state: State, symbol: int) -> Optional[State]:
    """State after appending symbol, or None if that completes a forbidden run."""
    limit = None
    for s, r in forbidden:
        if s == symbol:
            limit = r
            break
    if limit is None:
        return _START
    prev_sym, prev_run = state
    run = prev_run + 1 if prev_sym == symbol else 1
    if run >= limit:
        return None
    return (symbol, run)


# (q, forbidden) -> table, where table[L][state] is the number of valid
# continuations of length L from state.  Rows are appended on demand.
_SUFFIX_TABLES: dict[tuple[int, tuple[tuple[int, int], ...]], list[dict[State, int]]] = {}


def _suffix_counts(q: int, forbidden: tuple[tuple[int, int], ...], length: int) -> list[dict[State, int]]:
    """The suffix-count table for (q, forbidden), with rows 0..length at least.

    Built bottom-up, one row from the one before, so long blocks cost no
    recursion depth.
    """
    table = _SUFFIX_TABLES.get((q, forbidden))
    if table is None:
        states = [_START] + [(s, k) for s, r in forbidden for k in range(1, r)]
        table = _SUFFIX_TABLES[(q, forbidden)] = [dict.fromkeys(states, 1)]
    while len(table) <= length:
        prev = table[-1]
        # Unreserved symbols all lead to the same reset state.
        free = (q - len(forbidden)) * prev[_START]
        row = dict.fromkeys(prev, free)
        for state in prev:
            for s, _ in forbidden:
                nxt = _step(forbidden, state, s)
                if nxt is not None:
                    row[state] += prev[nxt]
        table.append(row)
    return table


def count(constraint, length: int) -> int:
    """Exact number of valid strings of the given length."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    return _suffix_counts(constraint.q, constraint.forbidden_runs(), length)[length][_START]


def is_valid(constraint, word: Sequence[int]) -> bool:
    forbidden = constraint.forbidden_runs()
    state: Optional[State] = _START
    for symbol in word:
        if not 0 <= symbol < constraint.q:
            return False
        state = _step(forbidden, state, symbol)
        if state is None:
            return False
    return True


def rank(constraint, word: Sequence[int]) -> int:
    """Lexicographic index of a valid word among all valid words of its length."""
    q = constraint.q
    forbidden = constraint.forbidden_runs()
    table = _suffix_counts(q, forbidden, len(word))
    state: State = _START
    idx = 0
    for pos, symbol in enumerate(word):
        if not 0 <= symbol < q:
            raise ValueError(f"symbol {symbol} outside alphabet of size {q}")
        below = table[len(word) - pos - 1]
        for lower in range(symbol):
            nxt = _step(forbidden, state, lower)
            if nxt is not None:
                idx += below[nxt]
        nxt = _step(forbidden, state, symbol)
        if nxt is None:
            raise ValueError("word violates the run constraint")
        state = nxt
    return idx


def unrank(constraint, length: int, idx: int) -> tuple[int, ...]:
    """Valid word of the given length with lexicographic index idx."""
    total = count(constraint, length)
    if not 0 <= idx < total:
        raise ValueError(f"index {idx} out of range for {total} words")
    q = constraint.q
    forbidden = constraint.forbidden_runs()
    table = _suffix_counts(q, forbidden, length)
    state: State = _START
    word = []
    for pos in range(length):
        below = table[length - pos - 1]
        for symbol in range(q):
            nxt = _step(forbidden, state, symbol)
            if nxt is None:
                continue
            continuations = below[nxt]
            if idx < continuations:
                word.append(symbol)
                state = nxt
                break
            idx -= continuations
        else:
            raise AssertionError("ran out of symbols while unranking")
    return tuple(word)
