"""Counting, ranking, and unranking of run-avoiding q-ary strings.

The message sets of the rubber strategies are the strings over {0..q-1}
that never contain r consecutive copies of a reserved symbol: one reserved
symbol for the one-sided scheme, both ends of the alphabet for the
unidirectional one.  Counting uses exact big integers throughout; ranks
overflow 64 bits quickly and the message bijection has to be exact.

The DP state while scanning a string left to right is the trailing run:
(None, 0) when the last symbol is unreserved, (s, k) when the string ends
with exactly k copies of reserved symbol s.  A string is valid iff no
prefix reaches a run of length r.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ._checks import check_at_least, check_integer

State = tuple[Optional[int], int]
_START: State = (None, 0)


@dataclass(frozen=True)
class RunConstraint:
    """Forbid r consecutive copies of any symbol in reserved in a q-ary string."""

    q: int
    reserved: tuple[int, ...]
    r: int

    def __post_init__(self) -> None:
        check_at_least(self.q, 2, "alphabet size")
        if not isinstance(self.reserved, tuple) or not self.reserved:
            raise ValueError(f"reserved symbols must be a non-empty tuple, got {self.reserved!r}")
        for s in self.reserved:
            if not 0 <= s < self.q:
                raise ValueError(f"reserved symbol {s} outside alphabet of size {self.q}")
        if len(set(self.reserved)) != len(self.reserved):
            raise ValueError("the reserved symbols must differ")
        check_at_least(self.r, 1, "run length")


def _step(constraint: RunConstraint, state: State, symbol: int) -> Optional[State]:
    """State after appending symbol, or None if that completes a forbidden run."""
    if symbol not in constraint.reserved:
        return _START
    prev_sym, prev_run = state
    run = prev_run + 1 if prev_sym == symbol else 1
    if run >= constraint.r:
        return None
    return (symbol, run)


# constraint -> table, where table[L][state] is the number of valid
# continuations of length L from state.  A published table is never
# mutated: a longer one replaces it.
_SUFFIX_TABLES: dict[RunConstraint, list[dict[State, int]]] = {}


def _suffix_counts(constraint: RunConstraint, length: int) -> list[dict[State, int]]:
    """The suffix-count table for constraint, with rows 0..length at least.

    Built bottom-up, one row from the one before, so long blocks cost no
    recursion depth.  The new rows go onto a private copy, published with
    one assignment, so interleaved extensions never see a half-built table.
    """
    reserved = constraint.reserved
    table = _SUFFIX_TABLES.get(constraint)
    if table is None:
        states = [_START] + [(s, k) for s in reserved for k in range(1, constraint.r)]
        table = [dict.fromkeys(states, 1)]
    elif len(table) > length:
        return table
    else:
        table = list(table)
    while len(table) <= length:
        prev = table[-1]
        # Unreserved symbols all lead to the same reset state.
        free = (constraint.q - len(reserved)) * prev[_START]
        row = dict.fromkeys(prev, free)
        for state in prev:
            for s in reserved:
                nxt = _step(constraint, state, s)
                if nxt is not None:
                    row[state] += prev[nxt]
        table.append(row)
    _SUFFIX_TABLES[constraint] = table
    return table


def count(constraint, length: int) -> int:
    """Exact number of valid strings of the given length."""
    check_at_least(length, 0, "length")
    return _suffix_counts(constraint, length)[length][_START]


def is_valid(constraint, word: Sequence[int]) -> bool:
    state: Optional[State] = _START
    for symbol in word:
        if not 0 <= symbol < constraint.q:
            return False
        state = _step(constraint, state, symbol)
        if state is None:
            return False
    return True


def rank(constraint, word: Sequence[int]) -> int:
    """Lexicographic index of a valid word among all valid words of its length."""
    q = constraint.q
    table = _suffix_counts(constraint, len(word))
    state: State = _START
    idx = 0
    for pos, symbol in enumerate(word):
        if not 0 <= symbol < q:
            raise ValueError(f"symbol {symbol} outside alphabet of size {q}")
        below = table[len(word) - pos - 1]
        for lower in range(symbol):
            nxt = _step(constraint, state, lower)
            if nxt is not None:
                idx += below[nxt]
        nxt = _step(constraint, state, symbol)
        if nxt is None:
            raise ValueError("word violates the run constraint")
        state = nxt
    return idx


def unrank(constraint, length: int, idx: int) -> tuple[int, ...]:
    """Valid word of the given length with lexicographic index idx."""
    total = count(constraint, length)
    check_integer(idx, "index")
    if not 0 <= idx < total:
        raise ValueError(f"index {idx} out of range for {total} words")
    q = constraint.q
    table = _suffix_counts(constraint, length)
    state: State = _START
    word = []
    for pos in range(length):
        below = table[length - pos - 1]
        for symbol in range(q):
            nxt = _step(constraint, state, symbol)
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
