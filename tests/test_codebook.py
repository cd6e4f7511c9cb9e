"""Run-avoiding string machinery, checked against plain enumeration."""

import itertools
import math

import pytest

from qfeedback import codebook
from qfeedback.bounds import run_growth_rate
from qfeedback.codebook import (
    RunConstraint,
    count,
    is_valid,
    rank,
    unrank,
)


def brute_valid(constraint, length):
    """Oracle: enumerate everything and filter by substring scan."""
    runs = [(s,) * constraint.r for s in constraint.reserved]
    out = []
    for word in itertools.product(range(constraint.q), repeat=length):
        bad = False
        for run in runs:
            r = len(run)
            if any(word[i : i + r] == run for i in range(length - r + 1)):
                bad = True
                break
        if not bad:
            out.append(word)
    return out


SMALL_CONSTRAINTS = [
    RunConstraint(2, (1,), 1),
    RunConstraint(2, (1,), 2),
    RunConstraint(2, (0,), 3),
    RunConstraint(3, (2,), 2),
    RunConstraint(3, (0,), 2),
    RunConstraint(4, (3,), 2),
    RunConstraint(4, (1,), 3),
    RunConstraint(3, (0, 2), 2),
    RunConstraint(4, (0, 3), 2),
    RunConstraint(4, (0, 3), 3),
]


@pytest.mark.parametrize("constraint", SMALL_CONSTRAINTS)
@pytest.mark.parametrize("length", [0, 1, 2, 3, 4, 5])
def test_count_rank_unrank_against_enumeration(constraint, length):
    words = brute_valid(constraint, length)
    assert count(constraint, length) == len(words)
    # enumeration order is lexicographic, so ranks are just positions
    for i, w in enumerate(words):
        assert is_valid(constraint, w)
        assert rank(constraint, w) == i
        assert unrank(constraint, length, i) == w


def test_frozen_small_counts():
    fib = RunConstraint(2, (1,), 2)
    assert [count(fib, n) for n in range(6)] == [1, 2, 3, 5, 8, 13]
    assert count(RunConstraint(2, (1,), 1), 3) == 1
    assert count(RunConstraint(3, (2,), 2), 4) == 60
    assert count(RunConstraint(3, (0, 2), 2), 3) == 17
    assert count(RunConstraint(3, (0, 2), 2), 4) == 41


def test_lexicographic_order_frozen():
    c = RunConstraint(2, (1,), 2)
    words = [unrank(c, 3, i) for i in range(count(c, 3))]
    assert words == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
        (1, 0, 1),
    ]
    assert unrank(c, 3, 3) == (1, 0, 0)


def test_first_codeword_is_all_zero_when_zero_unreserved():
    c = RunConstraint(3, (2,), 2)
    assert unrank(c, 6, 0) == (0,) * 6


def test_recurrence_matches_transfer_matrix():
    # avoiding an r-run of one symbol satisfies
    # count(n) = (q-1) * sum_{i=1..r} count(n-i)
    for q, r in [(2, 2), (3, 2), (3, 3), (5, 2)]:
        c = RunConstraint(q, (q - 1,), r)
        vals = [count(c, n) for n in range(r + 8)]
        for n in range(r, len(vals)):
            assert vals[n] == (q - 1) * sum(vals[n - i] for i in range(1, r + 1))


def test_no_unranked_word_contains_forbidden_run():
    c = RunConstraint(2, (1,), 2)
    total = count(c, 50)
    for idx in (0, 1, total // 3, total // 2, total - 2, total - 1):
        w = unrank(c, 50, idx)
        assert is_valid(c, w)
        assert rank(c, w) == idx
        s = "".join(map(str, w))
        assert "11" not in s


def test_dual_constraint_symmetric_under_relabeling():
    # which two symbols are reserved, and in which order, cannot matter,
    # only that there are two
    a = RunConstraint(4, (0, 3), 2)
    b = RunConstraint(4, (1, 2), 2)
    c = RunConstraint(4, (3, 0), 2)
    for n in range(8):
        assert count(a, n) == count(b, n) == count(c, n)


def test_invalid_inputs():
    c = RunConstraint(3, (2,), 2)
    with pytest.raises(ValueError):
        rank(c, (0, 2, 2))
    with pytest.raises(ValueError):
        rank(c, (0, 5))
    with pytest.raises(ValueError):
        unrank(c, 3, count(c, 3))
    with pytest.raises(ValueError):
        unrank(c, -1, 0)
    with pytest.raises(ValueError):
        count(c, -1)
    with pytest.raises(ValueError):
        RunConstraint(1, (0,), 2)
    with pytest.raises(ValueError):
        RunConstraint(3, (3,), 2)
    with pytest.raises(ValueError):
        RunConstraint(3, (0,), 0)
    with pytest.raises(ValueError):
        RunConstraint(3, (1, 1), 2)
    with pytest.raises(ValueError):
        RunConstraint(3, (), 2)
    with pytest.raises(ValueError):
        RunConstraint(4, (0, 3, 0), 2)


def growth_estimate(constraint, length):
    """count(length)^(1/length); tends to the dominant root of the run recurrence."""
    return count(constraint, length) ** (1 / length)


def test_growth_estimate_tends_to_dominant_root():
    c = RunConstraint(2, (1,), 2)
    phi = (1 + math.sqrt(5)) / 2
    assert abs(growth_estimate(c, 40) - phi) < 0.02
    assert abs(run_growth_rate(2, 2) - phi) < 1e-12
    # estimates drift toward the root as length grows
    e10 = abs(growth_estimate(c, 10) - phi)
    e40 = abs(growth_estimate(c, 40) - phi)
    assert e40 < e10


@pytest.mark.parametrize("q,r", [(2, 2), (3, 2), (4, 3)])
def test_growth_estimate_consistent_with_root_finder(q, r):
    c = RunConstraint(q, (q - 1,), r)
    z = run_growth_rate(q, r)
    assert abs(growth_estimate(c, 60) - z) < 0.05
    # tighter in log scale, which is what the rate bounds use
    got = math.log(count(c, 60)) / 60
    assert abs(got - math.log(z)) < 0.02


@pytest.mark.parametrize("q", [3, 4])
def test_long_blocks_count_without_recursion(q):
    # no r = 1 string contains a reserved symbol at all
    assert count(RunConstraint(q, (0,), 1), 3000) == (q - 1) ** 3000
    assert count(RunConstraint(q, (0, q - 1), 1), 3000) == (q - 2) ** 3000
    c = RunConstraint(q, (q - 1,), 2)
    word = unrank(c, 3000, 10**100)
    assert is_valid(c, word) and rank(c, word) == 10**100


def test_interleaved_table_extensions_publish_whole_tables(monkeypatch):
    # one extension of a constraint's table runs inside another, mid-row, as
    # when two threads share a strategy; every count must still equal a
    # fresh table's
    constraint = RunConstraint(3, (2,), 2)
    monkeypatch.setattr(codebook, "_SUFFIX_TABLES", {})
    fresh = [count(constraint, length) for length in range(14)]
    assert fresh[13] == 508_992
    monkeypatch.setattr(codebook, "_SUFFIX_TABLES", {})
    assert count(constraint, 2) == fresh[2]
    step = codebook._step
    interleaved = []

    def step_with_an_interleaved_extension(*args):
        if not interleaved:
            interleaved.append(constraint)
            codebook._suffix_counts(constraint, 6)
        return step(*args)

    monkeypatch.setattr(codebook, "_step", step_with_an_interleaved_extension)
    assert count(constraint, 13) == fresh[13]
    assert interleaved
    assert [count(constraint, length) for length in range(14)] == fresh
