"""Bounds and the zero-error LP, cross-checked against independent oracles.

The LP oracle enumerates every basic feasible point of the covering
program by brute force in exact rationals, so it shares no code path with
the simplex implementation under test.  The rational-arithmetic simplex,
the unbounded run-length search and the search stopped at the wider 1e-9
slack are kept here as references for the integer simplex and the
early-stopping search.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from qfeedback.bounds import (
    binary_entropy,
    binary_symmetric_capacity,
    capacity_upper_bound,
    degree_two_bound,
    lower_envelope,
    min_max_output_mass,
    modified_rubber_bound,
    run_growth_rate,
    sphere_packing_message_bound,
    zero_error_capacity,
)
from qfeedback.channels import (
    ChannelGraph,
    make_inverse_z_channel,
    make_star_channel,
    make_symmetric_channel,
    make_z_channel,
)

PHI = (1 + math.sqrt(5)) / 2


def solve_exact(mat, rhs):
    """Gaussian elimination over Fractions; None when singular."""
    n = len(mat)
    M = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        inv = M[col][col]
        M[col] = [x / inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def oracle_min_max_mass(g):
    """Minimize the largest output fan-in mass by checking every vertex.

    Variables (P_0..P_{s-1}, v).  Constraints: fan-in(out) - v <= 0 per
    output, -P_i <= 0, sum P = 1.  Every vertex makes s of the 2s
    inequalities active alongside the equality.
    """
    symbols = sorted(g.symbols)
    s = len(symbols)
    idx = {sym: i for i, sym in enumerate(symbols)}
    ineqs = []
    for out in symbols:
        a = [Fraction(0)] * (s + 1)
        for i, j in g.edges:
            if j == out:
                a[idx[i]] += 1
        a[s] = Fraction(-1)
        ineqs.append(a)
    for i in range(s):
        a = [Fraction(0)] * (s + 1)
        a[i] = Fraction(-1)
        ineqs.append(a)
    eq = [Fraction(1)] * s + [Fraction(0)]
    best = None
    for active in itertools.combinations(range(len(ineqs)), s):
        mat = [ineqs[i] for i in active] + [eq]
        sol = solve_exact(mat, [Fraction(0)] * s + [Fraction(1)])
        if sol is None:
            continue
        if any(sum(a * x for a, x in zip(row, sol)) > 0 for row in ineqs):
            continue
        v = sol[s]
        if best is None or v < best:
            best = v
    return best


def fraction_max_packing(rows):
    """The simplex in Fraction arithmetic: same tableau, same Bland's rule."""
    n = len(rows)
    basis = list(range(n, 2 * n))
    objective = [Fraction(-1)] * n + [Fraction(0)] * (n + 1)
    while True:
        enter = next((j for j in range(2 * n) if objective[j] < 0), None)
        if enter is None:
            return objective[-1]
        leave = best = None
        for r, row in enumerate(rows):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if leave is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    leave, best = r, ratio
        pivot = rows[leave]
        scale = pivot[enter]
        pivot[:] = [x / scale for x in pivot]
        for row in rows + [objective]:
            f = row[enter]
            if row is not pivot and f != 0:
                row[:] = [a - f * p if p else a for a, p in zip(row, pivot)]
        basis[leave] = enter


def fraction_min_max_mass(g):
    symbols = sorted(g.symbols)
    index = {s: i for i, s in enumerate(symbols)}
    n = len(symbols)
    rows = [[Fraction(0)] * (2 * n) + [Fraction(1)] for _ in range(n)]
    for r in range(n):
        rows[r][n + r] = Fraction(1)
    for i, j in g.edges:
        rows[index[j]][index[i]] = Fraction(1)
    return 1 / fraction_max_packing(rows)


@pytest.mark.parametrize("factory", [make_z_channel, make_inverse_z_channel, make_symmetric_channel, make_star_channel])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_lp_matches_vertex_enumeration(factory, q):
    g = factory(q)
    assert min_max_output_mass(g) == oracle_min_max_mass(g)


def test_lp_matches_vertex_enumeration_on_random_graphs():
    rng = random.Random(20)
    for k in range(30):
        s = 2 + k % 3
        # three loop-only graphs, three complete ones, then random densities
        density = 0.0 if k < 3 else 1.0 if k < 6 else rng.random()
        edges = {(i, j) for i in range(s) for j in range(s) if i == j or rng.random() < density}
        g = ChannelGraph("random", s, tuple(range(s)), frozenset(edges))
        assert min_max_output_mass(g) == oracle_min_max_mass(g), sorted(edges)


def test_lp_optimum_needs_a_slack_to_reenter():
    # a seeded random 6-symbol graph; vertex enumeration gives 2/3 (in about
    # a second), a simplex that never lets a slack re-enter stops at 1
    outputs = {0: (1, 2, 3, 4, 5), 1: (0, 2, 3, 4), 2: (3, 4, 5), 3: (1, 4), 4: (0, 2), 5: (1, 2, 3)}
    edges = {(i, i) for i in outputs} | {(i, j) for i, js in outputs.items() for j in js}
    g = ChannelGraph("six", 6, tuple(outputs), frozenset(edges))
    assert min_max_output_mass(g) == fraction_min_max_mass(g) == Fraction(2, 3)


@pytest.mark.parametrize("factory", [make_z_channel, make_inverse_z_channel, make_symmetric_channel, make_star_channel])
def test_integer_simplex_matches_fraction_simplex(factory):
    for q in range(2, 33):
        g = factory(q)
        assert min_max_output_mass(g) == fraction_min_max_mass(g), q


def test_integer_simplex_matches_fraction_simplex_on_random_graphs():
    rng = random.Random(909)
    for k in range(200):
        s = 2 + k % 9
        density = rng.random()
        edges = {(i, j) for i in range(s) for j in range(s) if i == j or rng.random() < density}
        g = ChannelGraph("random", s, tuple(range(s)), frozenset(edges))
        assert min_max_output_mass(g) == fraction_min_max_mass(g), sorted(edges)


def test_z_channel_mass_closed_form():
    for q in range(2, 25):
        assert min_max_output_mass(make_z_channel(q)) == Fraction(1, (q + 1) // 2)


def test_inverse_z_agrees_with_z():
    for q in range(2, 7):
        assert min_max_output_mass(make_inverse_z_channel(q)) == min_max_output_mass(make_z_channel(q))


def test_symmetric_channel_has_no_zero_error_capacity():
    for q in (2, 3, 5):
        assert min_max_output_mass(make_symmetric_channel(q)) == 1
        assert zero_error_capacity(make_symmetric_channel(q)) == 0.0


def test_star_channel_values():
    # the two-symbol star is fully covered by one output, the three-symbol
    # star splits cleanly in half
    assert min_max_output_mass(make_star_channel(2)) == 1
    assert min_max_output_mass(make_star_channel(3)) == Fraction(1, 2)
    # capacity is measured in the star's own alphabet of q + 1 symbols
    assert abs(zero_error_capacity(make_star_channel(3)) - math.log(2) / math.log(4)) < 1e-12


def test_zero_error_capacity_of_z():
    for q in range(2, 9):
        got = zero_error_capacity(make_z_channel(q))
        want = math.log((q + 1) // 2) / math.log(q)
        assert abs(got - want) < 1e-12


# ---------------------------------------------------------------- roots


def test_growth_rate_fibonacci_and_tribonacci():
    assert abs(run_growth_rate(2, 2) - PHI) < 1e-9
    assert abs(run_growth_rate(2, 3) - 1.8392867552141612) < 1e-9


def test_growth_rate_run_length_one_is_exact():
    for q in range(2, 9):
        assert run_growth_rate(q, 1) == float(q - 1)


def test_growth_rate_closed_form_quadratic():
    # r = 2: the deflated polynomial is x^2 - (q-1)x - (q-1)
    for q in range(2, 9):
        c = q - 1
        want = (c + math.sqrt(c * c + 4 * c)) / 2
        assert abs(run_growth_rate(q, 2) - want) < 1e-9


def test_growth_rate_is_a_root():
    for q in range(2, 9):
        for r in range(2, 7):
            z = run_growth_rate(q, r)
            assert q - 1 < z <= q
            residual = z ** (r + 1) - q * z**r + q - 1
            assert abs(residual) < 1e-7 * q**r


def test_growth_rate_monotone_in_run_length():
    for q in (2, 3, 5):
        rates = [run_growth_rate(q, r) for r in range(1, 8)]
        assert rates == sorted(rates)
        assert rates[-1] < q


def test_growth_rate_against_numpy_roots():
    np = pytest.importorskip("numpy")
    for q in (2, 3, 4, 7):
        for r in (2, 3, 5):
            coeffs = [1.0, -float(q)] + [0.0] * (r - 1) + [float(q - 1)]
            roots = np.roots(coeffs)
            real = max(z.real for z in roots if abs(z.imag) < 1e-9)
            assert abs(run_growth_rate(q, r) - real) < 1e-8


@pytest.mark.parametrize("q", [513, 1024, 4096])
def test_growth_rate_ends_where_floats_are_coarser_than_the_stop_width(q):
    # from q - 1 = 512 on no bracket in [q-1, q] is ever 1e-13 narrow, and
    # the bisection once looped forever on a one-float bracket
    for r in (2, 3):
        assert q - 1 < run_growth_rate(q, r) <= q


def test_growth_rate_validation():
    with pytest.raises(ValueError):
        run_growth_rate(1, 2)
    with pytest.raises(ValueError):
        run_growth_rate(3, 0)


# ---------------------------------------------------------------- curves


def test_entropy_basics():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert abs(binary_entropy(0.3) - binary_entropy(0.7)) < 1e-15
    with pytest.raises(ValueError):
        binary_entropy(1.2)


def test_modified_rubber_bound_values():
    assert modified_rubber_bound(2, 0.0) == 1.0
    assert modified_rubber_bound(2, 0.6) == 0.0
    assert abs(modified_rubber_bound(2, 0.25) - 0.5 * math.log2(PHI)) < 1e-12
    # at small tau a longer run wins over r = 2
    z3 = run_growth_rate(2, 3)
    direct = max((1 - r * 0.05) * math.log(run_growth_rate(2, r)) / math.log(2) for r in range(2, 21))
    assert abs(modified_rubber_bound(2, 0.05) - direct) < 1e-12
    assert z3 > run_growth_rate(2, 2)


def unbounded_rubber_bound(q, tau):
    """modified_rubber_bound with every run length up to ceil(1/tau) tried."""
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


def test_rubber_bound_early_stop_is_exact():
    taus = [i / 100 for i in range(101)] + [0.0075, 1 / 3, 0.1234567]
    for q in range(2, 10):
        for tau in taus:
            assert modified_rubber_bound(q, tau) == unbounded_rubber_bound(q, tau), (q, tau)


def wide_slack_rubber_bound(q, tau):
    """modified_rubber_bound stopped at a slack of 1e-9, which solved about
    1e-9/tau more roots than the search needs."""
    if tau == 0.0:
        return 1.0
    best = 0.0
    for r in range(2, math.ceil(1.0 / tau) + 1):
        if (1.0 - r * tau) * (1.0 + 1e-9) < best:
            break
        rate = (1.0 - r * tau) * math.log(run_growth_rate(q, r)) / math.log(q)
        if rate > best:
            best = rate
    return best


@pytest.mark.parametrize("q", range(2, 10))
def test_rubber_bound_rounding_slack_matches_the_wide_slack(q):
    for k in range(3, 13):
        tau = float(f"1e-{k}")
        assert modified_rubber_bound(q, tau) == wide_slack_rubber_bound(q, tau), (q, tau)


def test_rubber_bound_solves_few_roots_at_small_tau():
    # the full search would solve a root for each of the 999 run lengths at
    # tau = 0.001; at 1e-12 the 1e-9 slack solved 1,024
    for tau, most in ((0.001, 20), (1e-12, 40)):
        run_growth_rate.cache_clear()
        modified_rubber_bound(3, tau)
        assert run_growth_rate.cache_info().currsize <= most


def test_degree_two_bound_values():
    assert degree_two_bound(4, 0.0) == 1.0
    assert abs(degree_two_bound(4, 0.6) - 0.5) < 1e-12
    assert abs(degree_two_bound(3, 0.5) - (1 - math.log(2) / math.log(3))) < 1e-12
    with pytest.raises(ValueError):
        degree_two_bound(2, 0.3)


def test_one_symbol_rubber_rate_is_a_tangent_of_degree_two():
    # The plain one-symbol rubber rate (1-tau)*log_q(q-1) touches the concave
    # degree_two_bound at tau = 1/q and lies below it elsewhere, which is why
    # lower_envelope has no term for it.
    for q in range(3, 41):
        for tau in sorted({i / 500 for i in range(501)} | {1 / q}):
            line = (1 - tau) * math.log(q - 1) / math.log(q)
            assert line <= degree_two_bound(q, tau) + 1e-15
        touch = (1 - 1 / q) * math.log(q - 1) / math.log(q)
        assert abs(touch - degree_two_bound(q, 1 / q)) < 1e-12


def test_capacity_upper_bound_values():
    assert capacity_upper_bound(3, 0.0) == 1.0
    assert abs(capacity_upper_bound(2, 1 / 3) - 2 / 3) < 1e-12
    assert abs(capacity_upper_bound(5, 0.5) - math.log(3) / math.log(5)) < 1e-12
    # constant plateau past tau = 1/2
    for q in (2, 3, 7):
        want = math.log((q + 1) / 2) / math.log(q)
        for tau in (0.5, 0.7, 1.0):
            assert abs(capacity_upper_bound(q, tau) - want) < 1e-12


def test_sphere_packing_bound_values():
    assert sphere_packing_message_bound(4, 1, 2) == Fraction(48, 5)
    assert sphere_packing_message_bound(2, 1, 3) == Fraction(5)
    assert sphere_packing_message_bound(3, 0, 5) == 125
    assert sphere_packing_message_bound(2, 2, 2) == Fraction(9, 4)
    with pytest.raises(ValueError):
        sphere_packing_message_bound(2, 3, 2)
    with pytest.raises(ValueError):
        sphere_packing_message_bound(2, -1, 2)


def test_binary_symmetric_capacity_values():
    assert binary_symmetric_capacity(0.0) == 1.0
    assert binary_symmetric_capacity(0.4) == 0.0
    assert binary_symmetric_capacity(1.0) == 0.0
    assert abs(binary_symmetric_capacity(0.1) - (1 - binary_entropy(0.1))) < 1e-15
    assert abs(binary_symmetric_capacity(0.25) - 0.25 * math.log2(PHI)) < 1e-12


def test_binary_symmetric_capacity_is_continuous_at_breakpoints():
    knee = 1 / (3 + math.sqrt(5))
    eps = 1e-12
    assert abs(binary_symmetric_capacity(knee - eps) - binary_symmetric_capacity(knee + eps)) < 1e-9
    assert abs(binary_symmetric_capacity(1 / 3 - eps)) < 1e-9
    assert binary_symmetric_capacity(1 / 3 + eps) == 0.0


def test_lower_envelope_values():
    assert abs(lower_envelope(5, 0.7) - math.log(3) / math.log(5)) < 1e-12
    assert abs(lower_envelope(2, 0.25) - 0.5 * math.log2(PHI)) < 1e-12
    assert lower_envelope(2, 0.6) == 0.0
    assert abs(lower_envelope(4, 0.6) - 0.5) < 1e-12


def test_lower_envelope_below_upper_bound():
    for q in (2, 3, 5):
        for i in range(21):
            tau = i / 20
            assert lower_envelope(q, tau) <= capacity_upper_bound(q, tau) + 1e-9


def test_tau_domain_is_enforced():
    for fn in (
        lambda t: modified_rubber_bound(3, t),
        lambda t: degree_two_bound(3, t),
        lambda t: capacity_upper_bound(3, t),
        lambda t: lower_envelope(3, t),
        binary_symmetric_capacity,
    ):
        with pytest.raises(ValueError):
            fn(-0.01)
        with pytest.raises(ValueError):
            fn(1.01)
