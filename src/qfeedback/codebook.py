"""Counting, ranking, and unranking of run-avoiding q-ary strings.

The message sets of the rubber strategies are the strings over {0..q-1}
that never contain r consecutive copies of a reserved symbol: one reserved
symbol for the one-sided scheme, both ends of the alphabet for the
unidirectional one.  Counting uses exact big integers throughout; ranks
overflow 64 bits quickly and the message bijection has to be exact.

The constraint is a finite automaton (_automaton), read left to right:
its state is the string's trailing reserved run, state 0 when the last
symbol is unreserved (or there is none) and one state for each reserved
symbol s and run length k below r, the string ending in exactly k copies
of s.  delta[state][symbol] is the next state, or -1 where symbol would
complete a run of r.  A string is valid iff the walk never reaches -1.
The count table holds, for each length L, the number of valid
continuations of length L from each state; rank and unrank are
enumerative coding over it (Cover 1973, "Enumerative source encoding").
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from ._checks import check_at_least, check_integer


@dataclass(frozen=True)
class RunConstraint:
    """Forbid r consecutive copies of any symbol in reserved in a q-ary string."""

    q: int
    reserved: tuple[int, ...]
    r: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", check_at_least(self.q, 2, "alphabet size"))
        if not isinstance(self.reserved, tuple) or not self.reserved:
            raise ValueError(f"reserved symbols must be a non-empty tuple, got {self.reserved!r}")
        for s in self.reserved:
            if not 0 <= s < self.q:
                raise ValueError(f"reserved symbol {s} outside alphabet of size {self.q}")
        if len(set(self.reserved)) != len(self.reserved):
            raise ValueError("the reserved symbols must differ")
        object.__setattr__(self, "r", check_at_least(self.r, 1, "run length"))


@functools.cache
def _automaton(constraint: RunConstraint) -> list[list[int]]:
    """delta[state][symbol]: the state after appending symbol, or -1 where
    symbol completes a forbidden run."""
    # each state's trailing run (reserved symbol, length); the reset state's is (None, 0)
    runs = [(None, 0)] + [(s, k) for s in constraint.reserved for k in range(1, constraint.r)]
    index = {run: state for state, run in enumerate(runs)}
    delta = []
    for last, length in runs:
        row = [0] * constraint.q
        for s in constraint.reserved:
            row[s] = index.get((s, length + 1 if s == last else 1), -1)
        delta.append(row)
    return delta


# constraint -> table, where table[L][state] is the number of valid
# continuations of length L from state.  A published table is never
# mutated: a longer one replaces it.
_SUFFIX_TABLES: dict[RunConstraint, list[list[int]]] = {}


def _suffix_counts(constraint: RunConstraint, length: int) -> list[list[int]]:
    """The suffix-count table for constraint, with rows 0..length at least.

    Built bottom-up, one row from the one before, so long blocks cost no
    recursion depth.  The new rows go onto a private copy, published with
    one assignment, so interleaved extensions never see a half-built table.
    """
    table = _SUFFIX_TABLES.get(constraint)
    if table is not None and len(table) > length:
        return table
    delta = _automaton(constraint)
    reserved = constraint.reserved
    table = list(table or [[1] * len(delta)])
    while len(table) <= length:
        prev = table[-1]
        # unreserved symbols all lead to the reset state
        free = (constraint.q - len(reserved)) * prev[0]
        table.append([free + sum(prev[row[s]] for s in reserved if row[s] >= 0) for row in delta])
    _SUFFIX_TABLES[constraint] = table
    return table


def count(constraint, length: int) -> int:
    """Exact number of valid strings of the given length."""
    length = check_at_least(length, 0, "length")
    return _suffix_counts(constraint, length)[length][0]


def is_valid(constraint, word: Sequence[int]) -> bool:
    delta = _automaton(constraint)
    state = 0
    for symbol in word:
        if not 0 <= symbol < constraint.q:
            return False
        state = delta[state][symbol]
        if state < 0:
            return False
    return True


def rank(constraint, word: Sequence[int]) -> int:
    """Lexicographic index of a valid word among all valid words of its length."""
    q = constraint.q
    delta = _automaton(constraint)
    table = _suffix_counts(constraint, len(word))
    state = idx = 0
    for pos, symbol in enumerate(word):
        if not 0 <= symbol < q:
            raise ValueError(f"symbol {symbol} outside alphabet of size {q}")
        below = table[len(word) - pos - 1]
        row = delta[state]
        for nxt in row[:symbol]:
            if nxt >= 0:
                idx += below[nxt]
        state = row[symbol]
        if state < 0:
            raise ValueError("word violates the run constraint")
    return idx


def unrank(constraint, length: int, idx: int) -> tuple[int, ...]:
    """Valid word of the given length with lexicographic index idx."""
    total = count(constraint, length)
    idx = check_integer(idx, "index")
    if not 0 <= idx < total:
        raise ValueError(f"index {idx} out of range for {total} words")
    delta = _automaton(constraint)
    table = _suffix_counts(constraint, length)
    state = 0
    word = []
    for pos in range(length):
        below = table[length - pos - 1]
        for symbol, nxt in enumerate(delta[state]):
            if nxt < 0:
                continue
            if idx < below[nxt]:
                word.append(symbol)
                state = nxt
                break
            idx -= below[nxt]
        else:
            raise AssertionError("ran out of symbols while unranking")
    return tuple(word)
