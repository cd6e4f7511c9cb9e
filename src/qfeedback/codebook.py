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
from functools import lru_cache
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


@lru_cache(maxsize=None)
def _suffix_count(q: int, forbidden: tuple[tuple[int, int], ...], length: int, state: State) -> int:
    if length == 0:
        return 1
    # Unreserved symbols all lead to the same reset state.
    total = (q - len(forbidden)) * _suffix_count(q, forbidden, length - 1, _START)
    for s, _ in forbidden:
        nxt = _step(forbidden, state, s)
        if nxt is not None:
            total += _suffix_count(q, forbidden, length - 1, nxt)
    return total


def count(constraint, length: int) -> int:
    """Exact number of valid strings of the given length."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    return _suffix_count(constraint.q, constraint.forbidden_runs(), length, _START)


def is_valid(constraint, word: Sequence[int]) -> bool:
    state: Optional[State] = _START
    for symbol in word:
        if not 0 <= symbol < constraint.q:
            return False
        state = _step(constraint.forbidden_runs(), state, symbol)
        if state is None:
            return False
    return True


def rank(constraint, word: Sequence[int]) -> int:
    """Lexicographic index of a valid word among all valid words of its length."""
    q = constraint.q
    forbidden = constraint.forbidden_runs()
    state: State = _START
    idx = 0
    for pos, symbol in enumerate(word):
        if not 0 <= symbol < q:
            raise ValueError(f"symbol {symbol} outside alphabet of size {q}")
        remaining = len(word) - pos - 1
        for lower in range(symbol):
            nxt = _step(forbidden, state, lower)
            if nxt is not None:
                idx += _suffix_count(q, forbidden, remaining, nxt)
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
    state: State = _START
    word = []
    for pos in range(length):
        remaining = length - pos - 1
        for symbol in range(q):
            nxt = _step(forbidden, state, symbol)
            if nxt is None:
                continue
            below = _suffix_count(q, forbidden, remaining, nxt)
            if idx < below:
                word.append(symbol)
                state = nxt
                break
            idx -= below
        else:
            raise AssertionError("ran out of symbols while unranking")
    return tuple(word)
