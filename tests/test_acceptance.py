"""Acceptance harness: ten numbered criteria, one test and one report line each.

Run with `pytest -v` to get one PASS/FAIL line per criterion from the test
names, or add `-s` to also see the `criterion N: ...` summary lines.  Every
tolerance is stated inline; nothing is loosened to make a run pass.
"""

import math
import time
from fractions import Fraction
from functools import lru_cache

from qfeedback.bounds import (
    capacity_upper_bound,
    degree_two_bound,
    lower_envelope,
    min_max_output_mass,
    modified_rubber_bound,
    run_growth_rate,
    sphere_packing_message_bound,
    zero_error_capacity,
    binary_symmetric_capacity,
)
from qfeedback.channels import make_unidirectional_pair, make_z_channel
from qfeedback.cli import main
from qfeedback.codebook import RunConstraint, count, unrank
from qfeedback.strategies import (
    identity_strategy,
    modified_rubber_strategy,
    rubber_stack_parse,
    unidirectional_rubber_strategy,
    zero_error_unidirectional_strategy,
)
from qfeedback.verifier import verify_successful

PHI = (1 + math.sqrt(5)) / 2
NODE_BUDGET = 10_000_000
JOB_TIME_LIMIT = 60.0


def _report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num}: {status}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


def test_criterion_01_zero_error_lp_closed_form():
    # exact rational optimum 1/ceil(q/2) on the one-step-down channel,
    # q = 2..8, full sweep under one second
    started = time.perf_counter()
    failures = []
    for q in range(2, 9):
        g = make_z_channel(q)
        mass = min_max_output_mass(g)
        want = Fraction(1, (q + 1) // 2)
        if mass != want:
            failures.append(f"q={q}: mass {mass} != {want}")
        cap = zero_error_capacity(g)
        target = math.log((q + 1) // 2) / math.log(q)
        if abs(cap - target) > 1e-12:
            failures.append(f"q={q}: capacity {cap} != {target}")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"sweep took {elapsed:.3f}s, limit 1s")
    _report(1, not failures, "; ".join(failures) or f"{elapsed:.3f}s for q=2..8")


def test_criterion_02_growth_rate_roots():
    failures = []
    if abs(run_growth_rate(2, 2) - PHI) > 1e-9:
        failures.append(f"golden ratio off: {run_growth_rate(2, 2)!r}")
    for q in range(2, 9):
        if run_growth_rate(q, 1) != float(q - 1):
            failures.append(f"r=1 not exact at q={q}")
    _report(2, not failures, "; ".join(failures))


def test_criterion_03_plateau_identity():
    # for odd alphabets and tau >= 1/2 both bounds collapse onto
    # log_q((q+1)/2), so the capacity error function is known exactly there
    failures = []
    for q in (3, 5, 7):
        target = math.log((q + 1) / 2) / math.log(q)
        for tau in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
            upper = capacity_upper_bound(q, tau)
            lower = lower_envelope(q, tau)
            if abs(upper - target) > 1e-12 or abs(lower - target) > 1e-12:
                failures.append(f"q={q} tau={tau}: {lower} .. {upper} vs {target}")
    _report(3, not failures, "; ".join(failures[:3]))


def test_criterion_04_bounds_sandwich_and_monotone():
    failures = []
    taus = [i / 100 for i in range(101)]
    for q in range(2, 9):
        curves = {
            "upper": lambda tau, q=q: capacity_upper_bound(q, tau),
            "lower_envelope": lambda tau, q=q: lower_envelope(q, tau),
            "modified_rubber": lambda tau, q=q: modified_rubber_bound(q, tau),
        }
        if q >= 3:
            curves["degree_two"] = lambda tau, q=q: degree_two_bound(q, tau)
        if q == 2:
            curves["symmetric"] = binary_symmetric_capacity
        values = {name: [fn(tau) for tau in taus] for name, fn in curves.items()}
        for lo, hi in zip(values["lower_envelope"], values["upper"]):
            if lo > hi + 1e-9:
                failures.append(f"q={q}: lower {lo} above upper {hi}")
                break
        for name, vals in values.items():
            for a, b in zip(vals, vals[1:]):
                if b > a + 1e-12:
                    failures.append(f"q={q}: {name} increases")
                    break
    _report(4, not failures, "; ".join(failures[:3]))


@lru_cache(maxsize=None)
def _certified_rubber_jobs():
    """The four rubber certifications, with their full leaf transcripts."""
    jobs = []
    for q, n, t in ((2, 6, 1), (2, 8, 2), (3, 6, 1), (3, 8, 2)):
        strategy = modified_rubber_strategy(q, 2, "z", n, t)
        leaves = []
        started = time.perf_counter()
        verdict = verify_successful(
            strategy, make_z_channel(q), t, node_budget=NODE_BUDGET, on_transcript=leaves.append
        )
        elapsed = time.perf_counter() - started
        jobs.append((q, n, t, strategy, verdict, leaves, elapsed))
    return tuple(jobs)


def test_criterion_05_exhaustive_certifications():
    failures = []
    job_count = 0

    # (a) modified rubber schemes, message counts pinned to the codebook
    expected_m = {(2, 6, 1): 8, (2, 8, 2): 8, (3, 6, 1): 60, (3, 8, 2): 60}
    for q, n, t, strategy, verdict, _, elapsed in _certified_rubber_jobs():
        job_count += 1
        if verdict.outcome != "success":
            failures.append(f"rubber q={q} n={n} t={t}: {verdict.outcome}")
        want = count(RunConstraint(q, (q - 1,), 2), n - 2 * t)
        if strategy.message_count != want or strategy.message_count != expected_m[(q, n, t)]:
            failures.append(f"rubber q={q} n={n} t={t}: M={strategy.message_count}")
        if elapsed >= JOB_TIME_LIMIT:
            failures.append(f"rubber q={q} n={n} t={t}: {elapsed:.1f}s")

    # (b) the zero-error scheme survives a budget equal to the block length
    for q in range(2, 7):
        for n in range(1, 5):
            job_count += 1
            strategy = zero_error_unidirectional_strategy(q, n)
            started = time.perf_counter()
            verdict = verify_successful(strategy, make_unidirectional_pair(q), n, node_budget=NODE_BUDGET)
            elapsed = time.perf_counter() - started
            if verdict.outcome != "success":
                failures.append(f"zero_error q={q} n={n}: {verdict.outcome}")
            if elapsed >= JOB_TIME_LIMIT:
                failures.append(f"zero_error q={q} n={n}: {elapsed:.1f}s")

    # (c) direction-agnostic rubber over its whole small-parameter grid
    for q in (3, 4):
        for t in (0, 1, 2):
            for n in range(2 * t + 1, 9):
                job_count += 1
                strategy = unidirectional_rubber_strategy(q, 2, n, t)
                started = time.perf_counter()
                verdict = verify_successful(strategy, make_unidirectional_pair(q), t, node_budget=NODE_BUDGET)
                elapsed = time.perf_counter() - started
                if verdict.outcome != "success":
                    failures.append(f"uni q={q} n={n} t={t}: {verdict.outcome}")
                if elapsed >= JOB_TIME_LIMIT:
                    failures.append(f"uni q={q} n={n} t={t}: {elapsed:.1f}s")

    _report(5, not failures, "; ".join(failures[:4]) or f"{job_count} certifications")


def test_criterion_06_deterministic_counterexample():
    strategy = identity_strategy(2, 2)
    ch = make_z_channel(2)
    first = verify_successful(strategy, ch, 1)
    second = verify_successful(strategy, ch, 1)
    ok = (
        first == second
        and first.outcome == "counterexample"
        and first.message == 1
        and first.sent == (0, 1)
        and first.received == (0, 0)
        and first.decoded == 0
    )
    _report(6, ok, f"got {first!r}" if not ok else "stable across runs")


def test_criterion_07_message_count_ceiling():
    failures = []
    if sphere_packing_message_bound(4, 1, 2) != Fraction(48, 5):
        failures.append(f"(4,1,2) -> {sphere_packing_message_bound(4, 1, 2)}")
    for q in (2, 3, 5):
        for n in (1, 2, 3):
            if sphere_packing_message_bound(n, 0, q) != q**n:
                failures.append(f"t=0 mismatch at q={q} n={n}")
    _report(7, not failures, "; ".join(failures))


def test_criterion_08_one_way_advantage_in_emitted_csv(tmp_path):
    # between the tangency point and 1/3 the one-way channel strictly beats
    # the two-way channel, and the gap must be visible in the shipped CSV
    path = tmp_path / "curves_q2.csv"
    assert main(["curves", "--q", "2", "--step", "0.01", "--out", str(path)]) == 0
    table = {}
    for line in path.read_text().strip().split("\n")[1:]:
        tau, value, curve = line.split(",")
        table.setdefault(curve, {})[round(float(tau), 6)] = float(value)
    knee = 1 / (3 + math.sqrt(5))
    failures = []
    checked = 0
    for i in range(101):
        tau = round(i / 100, 6)
        if not knee < tau < 1 / 3:
            continue
        checked += 1
        env = table["lower_envelope"][tau]
        sym = table["symmetric"][tau]
        if not env > sym:
            failures.append(f"tau={tau}: envelope {env} <= symmetric {sym}")
        if abs(env - (1 - 2 * tau) * math.log2(PHI)) > 1e-9:
            failures.append(f"tau={tau}: envelope {env} off the segment")
    if checked < 10:
        failures.append(f"only {checked} grid points inside the interval")
    _report(8, not failures, "; ".join(failures[:3]) or f"{checked} grid points")


def test_criterion_09_amortized_transmission_cost():
    # replaying every certified rubber transcript: after any prefix, the
    # sender has spent at most k + r*errors non-filler symbols
    failures = []
    checked = 0
    for q, n, t, strategy, verdict, leaves, _ in _certified_rubber_jobs():
        if verdict.outcome != "success":
            failures.append(f"q={q} n={n} t={t} not certified")
            continue
        k = n - 2 * t
        constraint = RunConstraint(q, (q - 1,), 2)
        for tr in leaves:
            w = list(unrank(constraint, k, tr.decoded))
            checked += 1
            for i in range(n + 1):
                work = 0
                for j in range(i):
                    stack = rubber_stack_parse(
                        tr.received[:j], rubber=q - 1, correction=1, run_length=2
                    )
                    if not (len(stack) >= k and stack[:k] == w):
                        work += 1
                errors = sum(1 for j in range(i) if tr.sent[j] != tr.received[j])
                if work > k + 2 * errors:
                    failures.append(
                        f"q={q} n={n} t={t} y={tr.received}: {work} > {k}+2*{errors}"
                    )
                    break
    _report(9, not failures, "; ".join(failures[:3]) or f"{checked} transcripts")


def test_criterion_10_codebook_rate_meets_growth_rate():
    got = math.log2(count(RunConstraint(2, (1,), 2), 60)) / 60
    want = math.log2(PHI)
    ok = abs(got - want) <= 0.02
    _report(10, ok, f"|{got:.5f} - {want:.5f}| = {abs(got - want):.5f}")
