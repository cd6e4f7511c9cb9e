"""Capacity bounds and the quantities behind them.

Rates are measured in base-q logarithm units throughout: 1.0 means one
alphabet symbol of information per channel use.  The zero-error linear
program is solved in exact rational arithmetic; everything else is plain
float evaluation of closed forms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import comb

from .channels import ChannelGraph


def _check_alphabet(q: int) -> None:
    if q < 2:
        raise ValueError(f"alphabet size must be at least 2, got {q}")


def _check_tau(tau: float) -> None:
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")


def binary_entropy(x: float) -> float:
    """Base-2 entropy of a coin with bias x; 0 at both endpoints."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


# ---------------------------------------------------------------------------
# Zero-error capacity via an exact linear program


def _exact_simplex(A: list[list[Fraction]], b: list[Fraction], c: list[Fraction]) -> tuple[Fraction, list[Fraction]]:
    """Minimize c.x subject to A x = b, x >= 0, everything rational.

    Two-phase tableau simplex with Bland's rule (lowest index entering,
    lowest basis index on ratio ties), which cannot cycle on the degenerate
    bases these covering programs produce.  Assumes a feasible, bounded
    program; raises ArithmeticError otherwise.
    """
    m = len(A)
    n = len(A[0])
    for r in range(m):
        if b[r] < 0:
            A[r] = [-x for x in A[r]]
            b[r] = -b[r]
    total = n + m
    T: list[list[Fraction]] = []
    for r in range(m):
        row = [Fraction(x) for x in A[r]] + [Fraction(0)] * m + [Fraction(b[r])]
        row[n + r] = Fraction(1)
        T.append(row)
    basis = list(range(n, n + m))

    def pivot(pr: int, pc: int) -> None:
        pv = T[pr][pc]
        T[pr] = [x / pv for x in T[pr]]
        for rr in range(m):
            if rr != pr and T[rr][pc] != 0:
                f = T[rr][pc]
                T[rr] = [a - f * p for a, p in zip(T[rr], T[pr])]
        basis[pr] = pc

    def optimize(cost: list[Fraction], limit: int) -> None:
        while True:
            reduced = list(cost)
            for r in range(m):
                cb = cost[basis[r]]
                if cb != 0:
                    row = T[r]
                    for j in range(total):
                        reduced[j] -= cb * row[j]
            enter = next((j for j in range(limit) if reduced[j] < 0), None)
            if enter is None:
                return
            leave = None
            best = None
            for r in range(m):
                a = T[r][enter]
                if a > 0:
                    ratio = T[r][-1] / a
                    if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                        best = ratio
                        leave = r
            if leave is None:
                raise ArithmeticError("linear program is unbounded")
            pivot(leave, enter)

    phase1 = [Fraction(0)] * n + [Fraction(1)] * m
    optimize(phase1, total)
    if any(basis[r] >= n and T[r][-1] != 0 for r in range(m)):
        raise ArithmeticError("linear program is infeasible")
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if T[r][j] != 0), None)
            if col is not None:
                pivot(r, col)
    phase2 = list(c) + [Fraction(0)] * m
    optimize(phase2, n)
    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = T[r][-1]
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return value, x


def min_max_output_mass(g: ChannelGraph) -> Fraction:
    """Exact optimal value of the zero-error covering program.

    Minimize, over input distributions P, the largest total mass of inputs
    that can reach a single output symbol.  Capacity 0 shows up as value 1.
    """
    symbols = sorted(g.symbols)
    index = {s: i for i, s in enumerate(symbols)}
    s = len(symbols)
    ncols = s + 1 + s  # P per input, v, one slack per output row
    A: list[list[Fraction]] = []
    b: list[Fraction] = []
    for j, out in enumerate(symbols):
        row = [Fraction(0)] * ncols
        for (i, jj) in g.edges:
            if jj == out:
                row[index[i]] = Fraction(1)
        row[s] = Fraction(-1)
        row[s + 1 + j] = Fraction(1)
        A.append(row)
        b.append(Fraction(0))
    row = [Fraction(0)] * ncols
    for i in range(s):
        row[i] = Fraction(1)
    A.append(row)
    b.append(Fraction(1))
    cost = [Fraction(0)] * ncols
    cost[s] = Fraction(1)
    value, _ = _exact_simplex(A, b, cost)
    return value


def zero_error_capacity(g: ChannelGraph) -> float:
    """log_base(1/value) of the covering program, base = alphabet size."""
    value = min_max_output_mass(g)
    if value >= 1:
        return 0.0
    base = len(g.symbols)
    return (math.log(value.denominator) - math.log(value.numerator)) / math.log(base)


# ---------------------------------------------------------------------------
# Root of the run-avoidance recurrence


@lru_cache(maxsize=None)
def run_growth_rate(q: int, r: int) -> float:
    """Largest real root of x^(r+1) - q*x^r + q - 1, inside (q-1, q].

    This is the exponential growth rate of q-ary strings avoiding an r-run
    of a fixed symbol.  x = 1 is always a root; dividing it out leaves
    g(x) = x^r - (q-1)*(x^(r-1) + ... + 1), which satisfies g(q-1) < 0 and
    g(q) = 1, so bisection on [q-1, q] is safe.  r = 1 collapses to q - 1
    exactly.
    """
    _check_alphabet(q)
    if r < 1:
        raise ValueError(f"run length must be at least 1, got {r}")
    if r == 1:
        return float(q - 1)

    def deflated(x: float) -> float:
        acc = 1.0
        for _ in range(r):
            acc = acc * x - (q - 1)
        return acc

    lo, hi = float(q - 1), float(q)
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if deflated(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Rate curves


def modified_rubber_bound(q: int, tau: float) -> float:
    """Best rubber-scheme rate at error fraction tau: max over run lengths
    r >= 2 of (1 - r*tau) * log_q(growth rate).  Zero beyond tau = 1/2; the
    tau = 0 value is the limit 1."""
    _check_alphabet(q)
    _check_tau(tau)
    if tau == 0.0:
        return 1.0
    if tau > 0.5:
        return 0.0
    best = 0.0
    for r in range(2, math.ceil(1.0 / tau) + 1):
        rate = (1.0 - r * tau) * math.log(run_growth_rate(q, r)) / math.log(q)
        if rate > best:
            best = rate
    return best


def degree_two_bound(q: int, tau: float) -> float:
    """Rate achievable on channels where each output has at most two
    candidate inputs: 1 - h(tau)*log_q(2), saturating past tau = 1/2.
    Needs q >= 3."""
    if q < 3:
        raise ValueError(f"need an alphabet of at least 3 symbols, got {q}")
    _check_tau(tau)
    if tau > 0.5:
        return 1.0 - 1.0 / math.log2(q)
    return 1.0 - binary_entropy(tau) / math.log2(q)


def capacity_upper_bound(q: int, tau: float) -> float:
    """Upper bound on any feedback strategy's rate over the Z channel."""
    _check_alphabet(q)
    _check_tau(tau)
    a = min(tau, 1.0 / (q + 1))
    b = min(tau, 0.5)

    def hq(x: float) -> float:
        return binary_entropy(x) / math.log2(q)

    return 1.0 + hq(a) - a - hq(b)


def sphere_packing_message_bound(n: int, t: int, q: int) -> Fraction:
    """Exact ceiling on the number of messages any feedback strategy of
    block length n can protect against t errors on the Z channel."""
    _check_alphabet(q)
    if not 0 <= t <= n:
        raise ValueError(f"need 0 <= t <= n, got t={t}, n={n}")
    numerator = sum(comb(n, i) * q ** (n - i) for i in range(t + 1))
    denominator = sum(comb(n, i) for i in range(t + 1))
    return Fraction(numerator, denominator)


def binary_symmetric_capacity(tau: float) -> float:
    """Capacity error function of the binary channel with both flip
    directions allowed: 1 - h(tau), then a straight segment
    (1 - 3*tau)*log2(phi) down to zero at tau = 1/3."""
    _check_tau(tau)
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    knee = 1.0 / (3.0 + math.sqrt(5.0))
    if tau <= knee:
        return 1.0 - binary_entropy(tau)
    if tau <= 1.0 / 3.0:
        return (1.0 - 3.0 * tau) * math.log2(phi)
    return 0.0


def single_rubber_rate(q: int):
    """Rate curve of the plain one-symbol rubber scheme: (1-tau)*log_q(q-1).

    Each error costs one extra position and the info alphabet loses one
    symbol.  Returns a function of tau on [0, 1].
    """
    _check_alphabet(q)

    def rate(tau: float) -> float:
        _check_tau(tau)
        if q == 2:
            return 0.0
        return (1.0 - tau) * math.log(q - 1) / math.log(q)

    return rate


def lower_envelope(q: int, tau: float) -> float:
    """Best known achievable rate on the unidirectional channel: the max of
    the rubber curves, the two-candidate bound (q >= 3), and the zero-error
    strategy's constant rate."""
    _check_alphabet(q)
    _check_tau(tau)
    terms = [
        modified_rubber_bound(q, tau),
        math.log((q + 1) // 2) / math.log(q),
        single_rubber_rate(q)(tau),
    ]
    if q >= 3:
        terms.append(degree_two_bound(q, tau))
    return max(terms)
