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

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable

from ._checks import check_at_least
from .channels import ChannelGraph


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


def _bisect(q: int, above: Callable[[float], bool]) -> float:
    """Bisect [q-1, q], moving hi to a midpoint where above holds and lo
    to the others, until the bracket is 1e-13 wide or one float wide,
    whichever comes first; the last midpoint."""
    lo, hi = float(q - 1), float(q)
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if above(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=None, typed=True)
def run_growth_rate(q: int, r: int) -> float:
    """Largest real root of x^(r+1) - q*x^r + q - 1, inside (q-1, q].

    This is the exponential growth rate of q-ary strings avoiding an r-run
    of a fixed symbol.  x = 1 is always a root; dividing it out leaves
    g(x) = x^r - (q-1)*(x^(r-1) + ... + 1), which satisfies g(q-1) < 0 and
    g(q) = 1, so bisection on [q-1, q] (_bisect, above where g > 0) is
    safe.  r = 1 collapses to q - 1 exactly.

    From q - 1 = 512 on, adjacent floats in [q-1, q] are at least
    2^-43 > 1e-13 apart, so only a one-float bracket ends the bisection:
    its midpoint rounds to an endpoint.  Such a midpoint never moves the
    bracket, since g(lo) <= 0 < g(hi) holds throughout, so a search the
    width test ends never reaches it, and the root is the same float
    either way.

    The bisection asks only for g's sign, so the float recurrence
    acc*x - (q-1) stops once acc <= 0: for x > 0, acc*x then rounds to a
    nonpositive float, and subtracting the positive q - 1 keeps it
    negative (rounding is monotone), so every later step, the last one
    included, stays negative.  Each test then costs a few steps below the
    root instead of r, and every root is the full loop's float.
    """
    check_at_least(q, 2, "alphabet size")
    check_at_least(r, 1, "run length")
    if r == 1:
        return float(q - 1)

    def deflated(x: float) -> float:
        acc = 1.0
        for _ in range(r):
            acc = acc * x - (q - 1)
            if acc <= 0.0:
                break
        return acc

    return _bisect(q, lambda x: deflated(x) > 0.0)


@lru_cache(maxsize=None)
def _log_growth_ceiling(q: int) -> float:
    """log of the largest value run_growth_rate(q, r) can return, for any r.

    That is the bisection that always moves lo (_bisect, above nowhere),
    call it A.  By induction on the step, any bisection's lo is at most
    A's and its hi at most q, so its midpoint, and what it returns at that
    step, is at most A's (float rounding is monotone), and A's midpoints
    only rise.  A bisection whose hi never moves is A itself.  One whose
    hi moved to a midpoint lies at or below A's lo from then on, so what
    it returns, at whatever step, is at most what A returns.
    """
    return math.log(_bisect(q, lambda x: False))


# ---------------------------------------------------------------------------
# Rate curves


def modified_rubber_bound(q: int, tau: float) -> float:
    """Best rubber-scheme rate at error fraction tau: max over run lengths
    r >= 2 of (1 - r*tau) * log_q(growth rate).  Zero from tau = 1/2 on,
    where no run length leaves room (1 - r*tau <= 0), returned at once, as
    the curves ask for half their grid there; the tau = 0 value is the
    limit 1.

    The search over r stops once (1 - r*tau) * L / log(q), computed as
    each rate is, is at most the best rate so far, L the log of the
    largest growth rate any run length can give (_log_growth_ceiling).
    The stop is exact: float rounding and math.log are monotone, 1 - r*tau
    only falls as r grows, and every growth rate is at least 1, so the
    computed rate of every run length from r on is at most that ceiling,
    and none can beat the best; once r*tau >= 1 the ceiling is at most 0,
    so the stop fires.  The result is the full search's, bit for bit,
    after a handful of roots instead of ~1/tau (24 at tau = 1e-12).  At a
    tau so small that 1 - r*tau rounds to 1, the roots reach their largest
    float, the rates the ceiling itself, after a few dozen run lengths (45
    at q = 2, fewer for larger q), and the search stops there."""
    q = check_at_least(q, 2, "alphabet size")
    _check_tau(tau)
    if tau == 0.0:
        return 1.0
    if tau >= 0.5:
        return 0.0
    best = 0.0
    ceiling, log_q = _log_growth_ceiling(q), math.log(q)
    for r in itertools.count(2):
        room = 1.0 - r * tau
        if room * ceiling / log_q <= best:
            break
        rate = room * math.log(run_growth_rate(q, r)) / log_q
        if rate > best:
            best = rate
    return best


def degree_two_bound(q: int, tau: float) -> float:
    """Rate achievable on channels where each output has at most two
    candidate inputs: 1 - h(tau)*log_q(2), saturating past tau = 1/2.
    Needs q >= 3."""
    q = check_at_least(q, 3, "alphabet size")
    _check_tau(tau)
    return 1.0 - binary_entropy(min(tau, 0.5)) / math.log2(q)


def capacity_upper_bound(q: int, tau: float) -> float:
    """Upper bound on any feedback strategy's rate over the Z channel."""
    q = check_at_least(q, 2, "alphabet size")
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
    keeps falling, and for q = 2 it is 0.  modified_rubber_bound, called
    first, checks q and tau."""
    rate = max(modified_rubber_bound(q, tau), math.log((q + 1) // 2) / math.log(q))
    return max(rate, degree_two_bound(q, tau)) if q >= 3 else rate
