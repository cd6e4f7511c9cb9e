"""Capacity bounds and the quantities behind them.

Rates are measured in base-q logarithm units throughout: 1.0 means one
alphabet symbol of information per channel use.  Everything is plain
float evaluation of closed forms except the zero-error linear program,
whose optimum is an exact rational.  It is solved in its packing form
(maximize sum(x) subject to at most unit x-mass reaching each output,
x >= 0), whose origin is a feasible basis, so one simplex phase suffices:
no artificial variables, no feasibility phase.  The self-loops every
channel graph carries keep that program bounded.  The simplex runs
fraction-free (Edmonds 1967, Bareiss 1968): the tableau holds integers
over one positive common denominator, so no step reduces a fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import comb

from ._checks import check_at_least
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


def _max_packing(rows: list[list[int]]) -> Fraction:
    """Maximize the sum of the first n variables over the tableau rows.

    Row j is [a_j | e_j | 1]: a 0/1 packing constraint a_j.x <= 1 on the n
    structural variables, then its slack's unit column, then the right-hand
    side.  x = 0 with every slack basic is feasible, so the simplex starts
    there directly.  Every structural variable has coefficient 1 in some
    row, so it is at most 1: the program is bounded, and every entering
    column has a leaving row.  Bland's rule (lowest index entering, lowest
    basis index on ratio ties) keeps these degenerate bases from cycling.

    The tableau is kept in integers: the true tableau is every entry over
    one common denominator d > 0, which is the last pivot (1 at the start).
    Pivoting on p = rows[leave][enter] > 0 leaves the pivot row as it is and
    maps every other row to (x*p - f*y) // d, where f is the row's entry in
    the entering column and y the pivot row's entry; then d becomes p.  The
    division is exact: d is, up to sign, the determinant of the current
    basis, so by Cramer's rule every entry, the reduced costs included, is
    a minor of the original integer tableau.  Dividing by d > 0 changes no
    sign and no ratio comparison, so the pivot sequence is the one the same
    rule takes in rational arithmetic.
    """
    n = len(rows)
    basis = list(range(n, 2 * n))
    # Reduced costs of the maximization, then the objective value.
    objective = [-1] * n + [0] * (n + 1)
    d = 1
    while True:
        enter = next((j for j in range(2 * n) if objective[j] < 0), None)
        if enter is None:
            return Fraction(objective[-1], d)
        leave = None
        for r, row in enumerate(rows):
            a = row[enter]
            if a <= 0:
                continue
            # ratio row[-1] / a against the least so far, cross-multiplied
            if leave is not None:
                here, best = row[-1] * den, num * a
                if here > best or (here == best and basis[r] > basis[leave]):
                    continue
            leave, num, den = r, row[-1], a
        pivot = rows[leave]
        p = pivot[enter]
        for row in rows + [objective]:
            if row is pivot:
                continue
            f = row[enter]
            if f:
                row[:] = [(x * p - f * y) // d for x, y in zip(row, pivot)]
            elif p != d:
                row[:] = [x * p // d for x in row]
        basis[leave] = enter
        d = p


def min_max_output_mass(g: ChannelGraph) -> Fraction:
    """Exact optimal value of the zero-error covering program.

    Minimize, over input distributions P, the largest total mass of inputs
    that can reach a single output symbol.  Capacity 0 shows up as value 1.
    Solved as the packing program max sum(x) subject to, for every output,
    the x-mass of the inputs reaching it being at most 1; x = P / value
    maps one optimum onto the other, so the value is 1 / the packing optimum.
    """
    symbols = sorted(g.symbols)
    index = {s: i for i, s in enumerate(symbols)}
    n = len(symbols)
    rows = [[0] * (2 * n) + [1] for _ in range(n)]
    for r in range(n):
        rows[r][n + r] = 1
    for i, j in g.edges:
        rows[index[j]][index[i]] = 1
    return 1 / _max_packing(rows)


def zero_error_capacity(g: ChannelGraph) -> float:
    """log_base(1/value) of the covering program, base = alphabet size."""
    value = min_max_output_mass(g)
    base = len(g.symbols)
    return (math.log(value.denominator) - math.log(value.numerator)) / math.log(base)


# ---------------------------------------------------------------------------
# Root of the run-avoidance recurrence


@lru_cache(maxsize=None, typed=True)
def run_growth_rate(q: int, r: int) -> float:
    """Largest real root of x^(r+1) - q*x^r + q - 1, inside (q-1, q].

    This is the exponential growth rate of q-ary strings avoiding an r-run
    of a fixed symbol.  x = 1 is always a root; dividing it out leaves
    g(x) = x^r - (q-1)*(x^(r-1) + ... + 1), which satisfies g(q-1) < 0 and
    g(q) = 1, so bisection on [q-1, q] is safe.  r = 1 collapses to q - 1
    exactly.

    The bisection ends when the bracket is 1e-13 wide or one float wide,
    whichever comes first.  From q - 1 = 512 on, adjacent floats in
    [q-1, q] are at least 2^-43 > 1e-13 apart, so only the second ends it:
    the midpoint of a one-float bracket rounds to an endpoint.  Such a
    midpoint never moves the bracket, since g(lo) <= 0 < g(hi) holds
    throughout, so a search the width test ends never reaches it, and the
    root is the same float either way.
    """
    check_at_least(q, 2, "alphabet size")
    check_at_least(r, 1, "run length")
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
        if mid == lo or mid == hi:
            break
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
    tau = 0 value is the limit 1.

    The search over r stops once 1 - r*tau, with a rounding-sized slack,
    falls below the best rate so far.  The stop is exact: in floats the
    growth rate is at most q and math.log is monotone, so the computed
    rate of run length r is at most (1 - r*tau)*(1 + u)^2 with u = 2^-53
    (one rounding for the product, one for the quotient), well inside the
    slack factor 1 + 1e-14; and 1 - r*tau only falls as r grows, so no
    longer run can beat the best.  The result is the full search's, bit
    for bit, after a handful of roots instead of ~1/tau (24 at tau =
    1e-12)."""
    _check_alphabet(q)
    _check_tau(tau)
    if tau == 0.0:
        return 1.0
    best = 0.0
    for r in range(2, math.ceil(1.0 / tau) + 1):
        if (1.0 - r * tau) * (1.0 + 1e-14) < best:
            break
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
    return 1.0 - binary_entropy(min(tau, 0.5)) / math.log2(q)


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
    """Upper bound, as an exact Fraction, on the number of messages any
    feedback strategy of block length n can protect against t errors on
    the Z channel."""
    check_at_least(q, 2, "alphabet size")
    check_at_least(t, 0, "error budget")
    check_at_least(n, t, "block length")
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


def lower_envelope(q: int, tau: float) -> float:
    """Best known achievable rate on the unidirectional channel: the max of
    the modified rubber curve, the zero-error rate and (q >= 3) the
    two-candidate bound.  The one-symbol rubber rate (1-tau)*log_q(q-1)
    never tops them: for q >= 3 it is the tangent of the concave
    degree_two_bound at tau = 1/q, which stays flat past 1/2 where the line
    keeps falling, and for q = 2 it is 0."""
    _check_alphabet(q)
    _check_tau(tau)
    terms = [
        modified_rubber_bound(q, tau),
        math.log((q + 1) // 2) / math.log(q),
    ]
    if q >= 3:
        terms.append(degree_two_bound(q, tau))
    return max(terms)
