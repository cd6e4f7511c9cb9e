"""The benchmark's four workloads: job lists, set-up, passes and goldens.

Each workload is a fixed list of jobs.  Three workloads drive the
in-process CLI (``qfeedback.cli.main``); ``sessions_long`` calls
``run_session`` through the public API.  Every job's output is checked
against ``goldens.json``; a mismatch, an exception or an unexpected exit
code counts as a failed op.

Module attributes of qfeedback that the tracer patches (``cli.main``,
``session.run_session``) are looked up at call time, never bound here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

from qfeedback import channels, cli, session, strategies

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(HERE, "goldens.json")

WORKLOADS = ("verify_rubber", "verify_uni", "sessions_long", "bounds_grid")


def _verify(strategy, q, n, t, channel, r=None):
    job = {"cmd": "verify", "strategy": strategy, "q": q, "n": n, "t": t, "channel": channel}
    if r is not None:
        job["r"] = r
    return job


def _zcap(channel, q):
    return {"cmd": "zcap", "channel": channel, "q": q}


def _curves(q, step):
    return {"cmd": "curves", "q": q, "step": step}


def _scheme(scheme_id, strategy, q, r, n, t, channel):
    return {"id": scheme_id, "strategy": strategy, "q": q, "r": r, "n": n, "t": t, "channel": channel}


# Job sizes.  FULL is what the benchmark measures; TINY runs the same code
# paths in well under a second and exists for the benchmark's own tests.
FULL = {
    "verify_rubber": [
        ("rubber_z", _verify("modified_rubber", 3, 12, 3, "z", r=2)),
        ("identity_z", _verify("identity", 2, 12, 1, "z")),
        ("rubber_sym", _verify("modified_rubber", 3, 12, 3, "sym", r=2)),
    ],
    "verify_uni": [
        ("unirubber_uni", _verify("unidirectional_rubber", 4, 10, 2, "uni", r=2)),
        ("zero_error_uni", _verify("zero_error", 5, 6, 6, "uni")),
    ],
    "bounds_grid": [
        ("zcap_z", _zcap("z", 24)),
        ("zcap_invz", _zcap("invz", 24)),
        ("zcap_sym", _zcap("sym", 24)),
        ("zcap_star", _zcap("star", 24)),
        ("curves_q8", _curves(8, 0.001)),
    ],
    "sessions_long": {
        # Alternated.  Codewords of length 84 and 25: at these block lengths
        # a session of either scheme costs about the same, so p50 and p90
        # do not merely split the two schemes.
        "schemes": [
            _scheme("rubber_z", "modified_rubber", 4, 3, 120, 12, "z"),
            _scheme("unirubber_uni", "unidirectional_rubber", 4, 3, 38, 4, "uni"),
        ],
        # at least ten sessions beyond p90 in every pass
        "sessions_per_pass": 120,
    },
}

TINY = {
    "verify_rubber": [
        ("rubber_z", _verify("modified_rubber", 3, 6, 1, "z", r=2)),
        ("identity_z", _verify("identity", 2, 4, 1, "z")),
        ("rubber_sym", _verify("modified_rubber", 3, 6, 1, "sym", r=2)),
    ],
    "verify_uni": [
        ("unirubber_uni", _verify("unidirectional_rubber", 4, 6, 1, "uni", r=2)),
        ("zero_error_uni", _verify("zero_error", 3, 3, 3, "uni")),
    ],
    "bounds_grid": [
        ("zcap_z", _zcap("z", 4)),
        ("zcap_invz", _zcap("invz", 4)),
        ("zcap_sym", _zcap("sym", 4)),
        ("zcap_star", _zcap("star", 4)),
        ("curves_q3", _curves(3, 0.1)),
    ],
    "sessions_long": {
        "schemes": [
            _scheme("rubber_z", "modified_rubber", 3, 2, 10, 2, "z"),
            _scheme("unirubber_uni", "unidirectional_rubber", 4, 2, 9, 2, "uni"),
        ],
        "sessions_per_pass": 4,
    },
}


class RandomAdversary:
    """Spends its budget at random admissible positions.

    At each step it corrupts with probability budget_left / positions_left,
    to a uniformly chosen admissible non-identity output, so a session
    usually spends its whole budget spread over the block.
    """

    def __init__(self, rng: random.Random, n: int):
        self.rng = rng
        self.n = n

    def choose(self, sent, sent_prefix, received_prefix, budget_left, direction, options):
        corruptions = [y for y in options if y != sent]
        if not corruptions or budget_left <= 0:
            return sent
        if self.rng.random() * (self.n - len(received_prefix)) < budget_left:
            return self.rng.choice(corruptions)
        return sent


@dataclass
class Scheme:
    id: str
    strategy: session.Strategy
    channel: object
    t: int


@dataclass
class State:
    """Everything built before the first job: the output of set-up."""

    name: str
    seed: int
    spec: dict
    schemes: list = field(default_factory=list)


def _build_scheme(cfg: dict) -> Scheme:
    if cfg["strategy"] == "modified_rubber":
        strategy = strategies.modified_rubber_strategy(cfg["q"], cfg["r"], cfg["channel"], cfg["n"], cfg["t"])
        channel = channels.make_z_channel(cfg["q"]) if cfg["channel"] == "z" else channels.make_inverse_z_channel(cfg["q"])
    else:
        strategy = strategies.unidirectional_rubber_strategy(cfg["q"], cfg["r"], cfg["n"], cfg["t"])
        channel = channels.make_unidirectional_pair(cfg["q"])
    return Scheme(cfg["id"], strategy, channel, cfg["t"])


def setup(name: str, seed: int, sizes: dict = FULL) -> State:
    """Build what the workload's first job needs.

    Strategy construction counts the codebook, which fills the module-global
    count cache, so a fresh process pays the cold-cache cost here.
    """
    spec = sizes[name]
    state = State(name, seed, spec)
    if name == "sessions_long":
        state.schemes = [_build_scheme(cfg) for cfg in spec["schemes"]]
        return state
    job_id, first = spec[0]
    if first["cmd"] == "verify":
        _build_scheme({"id": job_id, **first})
    else:
        for build in (channels.make_z_channel, channels.make_inverse_z_channel, channels.make_symmetric_channel, channels.make_star_channel):
            build(first["q"])
    return state


# ---------------------------------------------------------------------------
# jobs


@dataclass
class Outcome:
    """One job's result: the latency, the ops it covers, and whether it passed."""

    seconds: float
    ops: int
    ok: bool


def _observe_cli(argv: list, out_path: Optional[str]) -> tuple[int, bytes]:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        rc = cli.main(argv)
    if out_path is None:
        return rc, captured.getvalue().encode("utf-8")
    with open(out_path, "rb") as handle:
        return rc, handle.read()


def cli_argv(job_id: str, job: dict, tmpdir: str) -> tuple[list, Optional[str]]:
    """The job's argv, and the file it writes (None when it prints)."""
    argv = [job["cmd"]]
    for key, value in job.items():
        if key != "cmd":
            argv += ["--" + key, str(value)]
    suffix = {"verify": ".json", "curves": ".csv"}.get(job["cmd"])
    if suffix is None:
        return argv, None
    out = os.path.join(tmpdir, job_id + suffix)
    return argv + ["--out", out], out


def observe(job: dict, rc: int, output: bytes) -> dict:
    """The pinned facts of one CLI job: exit code, output hash, search counts."""
    facts = {"exit": rc, "sha256": hashlib.sha256(output).hexdigest(), "ops": 1}
    if job["cmd"] == "verify":
        report = json.loads(output)
        facts["nodes"] = report["nodes"]
        if "counterexample" in report:
            facts["counterexample"] = report["counterexample"]
            # messages searched, the failing one included
            facts["ops"] = report["counterexample"]["message"] + 1
        else:
            facts["ops"] = report["M"]
    return facts


def _report_failure(job: str, what: str) -> None:
    print(f"perfbench: job {job} failed: {what}", file=sys.stderr)


def run_cli_job(job_id: str, job: dict, tmpdir: str, golden: dict) -> Outcome:
    argv, out = cli_argv(job_id, job, tmpdir)
    started = time.perf_counter()
    try:
        rc, output = _observe_cli(argv, out)
    except (Exception, SystemExit):  # SystemExit: an argparse usage error
        elapsed = time.perf_counter() - started
        _report_failure(job_id, traceback.format_exc())
        return Outcome(elapsed, golden["ops"], False)
    elapsed = time.perf_counter() - started
    try:
        facts = observe(job, rc, output)
    except (ValueError, KeyError) as exc:
        facts = {"exit": rc, "error": repr(exc)}
    ok = facts == golden
    if not ok:
        _report_failure(job_id, f"expected {golden}, got {facts}")
    return Outcome(elapsed, golden["ops"], ok)


def session_jobs(state: State, label: str) -> list[tuple[int, int, int]]:
    """(scheme index, message, adversary seed) for one pass.

    Drawn from the seed and the pass label alone, so a given pass sees the
    same sessions whatever ran before it.  Every pass draws fresh messages,
    so each strategy's per-message codeword cache misses.
    """
    rng = random.Random(f"{state.seed}/{label}")
    jobs = []
    for i in range(state.spec["sessions_per_pass"]):
        k = i % len(state.schemes)
        jobs.append((k, rng.randrange(state.schemes[k].strategy.message_count), rng.getrandbits(64)))
    return jobs


def run_session_job(scheme: Scheme, strategy: session.Strategy, message: int, adv_seed: int) -> tuple[Outcome, Optional[session.Transcript]]:
    adversary = RandomAdversary(random.Random(adv_seed), strategy.block_length)
    started = time.perf_counter()
    try:
        transcript = session.run_session(strategy, scheme.channel, adversary, message, scheme.t)
    except Exception:
        elapsed = time.perf_counter() - started
        _report_failure(scheme.id, traceback.format_exc())
        return Outcome(elapsed, 1, False), None
    elapsed = time.perf_counter() - started
    ok = transcript.decoded == message
    if not ok:
        _report_failure(scheme.id, f"message {message} decoded as {transcript.decoded}")
    return Outcome(elapsed, 1, ok), transcript


def run_pass(state: State, tmpdir: str, goldens: dict, label: str, wrap_strategy=None) -> tuple[list[Outcome], list]:
    """One pass over the workload's job list.

    Returns the outcomes and, for sessions, (scheme, message, transcript)
    triples for the replay audit.  wrap_strategy, when given, replaces each
    session strategy before it is used (the tracer's hook).
    """
    outcomes: list[Outcome] = []
    played = []
    if state.name == "sessions_long":
        used = [wrap_strategy(s.strategy) if wrap_strategy else s.strategy for s in state.schemes]
        for k, message, adv_seed in session_jobs(state, label):
            outcome, transcript = run_session_job(state.schemes[k], used[k], message, adv_seed)
            outcomes.append(outcome)
            if transcript is not None:
                played.append((state.schemes[k], message, transcript))
        return outcomes, played
    wanted = goldens[state.name]
    for job_id, job in state.spec:
        outcomes.append(run_cli_job(job_id, job, tmpdir, wanted[job_id]))
    return outcomes, played


def replay_failures(played: list) -> int:
    """Sessions whose sent word the strategy does not reproduce from (m, y)."""
    failed = 0
    for scheme, message, transcript in played:
        if session.replay(scheme.strategy, message, transcript.received) != transcript.sent:
            _report_failure(scheme.id, f"replay of message {message} differs from the sent word")
            failed += 1
    return failed


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def observe_goldens(sizes: dict, tmpdir: str) -> dict:
    """Run every CLI job once and record its facts (how goldens.json is made)."""
    goldens = {}
    for name in WORKLOADS:
        if name == "sessions_long":
            continue
        goldens[name] = {}
        for job_id, job in sizes[name]:
            argv, out = cli_argv(job_id, job, tmpdir)
            rc, output = _observe_cli(argv, out)
            goldens[name][job_id] = observe(job, rc, output)
    return goldens

