"""Command line frontend.

Subcommands:

* curves    - emit the bound curves for one alphabet size as CSV
* verify    - exhaustively certify a strategy, write a JSON report
* zcap      - solve the zero-error covering program for a channel
* session   - run and print a single feedback session
* campaign  - run a batch of the above from a config file

Exit codes: 0 success, 2 counterexample, 3 inconclusive search, 1 usage or
config error.  Reports carry no timestamps; wall times go to a sidecar
".log" file so reruns reproduce outputs byte for byte.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import io
import json
import math
import os
import sys
import time

from ._checks import check_at_least
from .bounds import (
    binary_symmetric_capacity,
    capacity_upper_bound,
    degree_two_bound,
    lower_envelope,
    min_max_output_mass,
    modified_rubber_bound,
    zero_error_capacity,
)
from .channels import (
    make_inverse_z_channel,
    make_star_channel,
    make_symmetric_channel,
    make_unidirectional_pair,
    make_z_channel,
)
from .session import GreedyAdversary, PassiveAdversary, PathAdversary, check_budget, check_message, run_session
from .strategies import (
    identity_strategy,
    modified_rubber_strategy,
    unidirectional_rubber_strategy,
    zero_error_unidirectional_strategy,
)
from .verifier import DEFAULT_NODE_BUDGET, check_node_budget, verify_successful

_GRAPH_CHANNELS = {
    "z": make_z_channel,
    "invz": make_inverse_z_channel,
    "sym": make_symmetric_channel,
    "star": make_star_channel,
}

_CHANNELS = {**_GRAPH_CHANNELS, "uni": make_unidirectional_pair}


# name -> (builder from parsed args, default channel id); a default of None
# means the channel named by --side
_STRATEGIES = {
    "modified_rubber": (lambda a: modified_rubber_strategy(a.q, a.r, a.side, a.n, a.t), None),
    "zero_error": (lambda a: zero_error_unidirectional_strategy(a.q, a.n), "uni"),
    "unidirectional_rubber": (lambda a: unidirectional_rubber_strategy(a.q, a.r, a.n, a.t), "uni"),
    "identity": (lambda a: identity_strategy(a.q, a.n), "z"),
}


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for counterexamples, so usage errors exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _SectionParser(_Parser):
    """Parses one campaign section: errors raise, keys must match flags exactly."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(f"missing, unknown or malformed key: {message}")


def _write_text(path: str, text: str) -> None:
    """Write atomically: a temp file beside the target, then os.replace."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _dump_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _build_strategy_and_channel(args):
    """The strategy, the channel id and the channel that args select, t checked."""
    build, default_channel = _STRATEGIES[args.strategy]
    strategy = build(args)
    check_budget(strategy, args.t)
    channel_id = args.channel or default_channel or args.side
    return strategy, channel_id, _CHANNELS[channel_id](args.q)


def _build_adversary(selector: str, n: int):
    if selector == "greedy":
        return GreedyAdversary()
    if selector == "passive":
        return PassiveAdversary()
    if selector.startswith("path:"):
        try:
            outputs = [int(part) for part in selector[len("path:"):].split(",")]
        except ValueError:
            raise ValueError(f"malformed adversary path {selector!r}") from None
        if len(outputs) != n:
            raise ValueError(f"adversary path has {len(outputs)} symbols, block length is {n}")
        return PathAdversary(outputs)
    raise ValueError(f"unknown adversary {selector!r}")


# ---------------------------------------------------------------------------
# curves


def _curve_functions(q: int) -> dict:
    zero_error = math.log((q + 1) // 2) / math.log(q)
    funcs = {
        "upper": lambda tau: capacity_upper_bound(q, tau),
        "lower_envelope": lambda tau: lower_envelope(q, tau),
        "modified_rubber": lambda tau: modified_rubber_bound(q, tau),
        "zero_error": lambda tau: zero_error,
    }
    if q >= 3:
        funcs["degree_two"] = lambda tau: degree_two_bound(q, tau)
    if q == 2:
        funcs["symmetric"] = binary_symmetric_capacity
    return funcs


def _curves_job(args):
    """Checked curves job; running it writes every bound curve as CSV, by curve then tau."""
    check_at_least(args.q, 2, "alphabet size")
    if not 0.0 < args.step <= 0.5:
        raise ValueError(f"grid step must lie in (0, 0.5], got {args.step}")
    taus = []
    i = 0
    while i * args.step <= 1.0 + 1e-9:
        taus.append(min(i * args.step, 1.0))
        i += 1

    def run() -> int:
        funcs = _curve_functions(args.q)
        lines = ["tau,value,curve"]
        for curve in sorted(funcs):
            evaluate = funcs[curve]
            for tau in taus:
                lines.append(f"{tau:.12g},{evaluate(tau):.12g},{curve}")
        _write_text(args.out, "\n".join(lines) + "\n")
        return 0

    return run


# ---------------------------------------------------------------------------
# verify


_OUTCOME_EXIT = {"success": 0, "counterexample": 2, "inconclusive": 3}


def _verify_job(args):
    """Checked verification; running it writes the report plus a timing sidecar."""
    strategy, channel_id, channel = _build_strategy_and_channel(args)
    check_node_budget(args.budget)

    def run() -> int:
        started = time.perf_counter()
        verdict = verify_successful(strategy, channel, args.t, node_budget=args.budget)
        elapsed_ms = int((time.perf_counter() - started) * 1000)
        report = {
            "strategy": strategy.name,
            "channel": channel_id,
            "n": args.n,
            "M": strategy.message_count,
            "t": args.t,
            **verdict.to_json_dict(),
        }
        _write_text(args.out, _dump_json(report))
        _write_text(args.out + ".log", f"wall_time_ms={elapsed_ms}\n")
        return _OUTCOME_EXIT[verdict.outcome]

    return run


# ---------------------------------------------------------------------------
# zcap


def _zcap_job(args):
    graph = _GRAPH_CHANNELS[args.channel](args.q)

    def run() -> int:
        mass = min_max_output_mass(graph)
        report = {
            "channel": args.channel,
            "q": args.q,
            "alphabet_size": len(graph.symbols),
            "min_max_output_mass": f"{mass.numerator}/{mass.denominator}",
            "capacity": zero_error_capacity(graph),
        }
        sys.stdout.write(_dump_json(report))
        return 0

    return run


# ---------------------------------------------------------------------------
# session


def _session_job(args):
    strategy, _, channel = _build_strategy_and_channel(args)
    check_message(strategy, args.message)
    adversary = _build_adversary(args.adversary, args.n)

    def run() -> int:
        transcript = run_session(strategy, channel, adversary, args.message, args.t)
        sys.stdout.write(_dump_json(transcript.to_json_dict()))
        return 0 if transcript.decoded == args.message else 2

    return run


# ---------------------------------------------------------------------------
# campaign

# subcommands a campaign section may name; zcap and session print, so their
# stdout goes to the section's out file
_CAMPAIGN_KINDS = ("curves", "verify", "zcap", "session")
_PRINTING_KINDS = ("zcap", "session")


def _section_job(parser: _SectionParser, name: str, section) -> tuple:
    """(checked job, out file for printed output or None, every file the job
    writes) for one section.

    Every key but kind is the subcommand's flag of the same name.
    """
    keys = dict(section)
    kind = keys.pop("kind", None)
    out = keys.pop("out", None) if kind in _PRINTING_KINDS else None
    try:
        if kind not in _CAMPAIGN_KINDS:
            raise ValueError("missing 'kind'" if kind is None else f"unknown kind {kind!r}")
        if kind in _PRINTING_KINDS and out is None:
            raise ValueError("missing 'out'")
        args = parser.parse_args([kind] + [f"--{key}={value}" for key, value in keys.items()])
        written = [out] if out is not None else [args.out]
        if kind == "verify":
            written.append(args.out + ".log")
        return args.job(args), out, written
    except ValueError as exc:
        raise ValueError(f"config error in [{name}]: {exc}") from None


def _campaign_job(args):
    """Every section's checked job; running them aggregates their exit codes.

    Every section is parsed and its job built before the first job runs.
    Values are flag values taken literally, so there is no interpolation.
    A config with no job, or two jobs writing the same file, is an error.
    """
    config = configparser.ConfigParser(interpolation=None)
    try:
        found = config.read(args.config)
    except configparser.Error as exc:
        raise ValueError(f"config error: {exc}") from None
    if not found:
        raise ValueError(f"cannot read config file {args.config!r}")
    if not config.sections():
        raise ValueError(f"config error: {args.config!r} has no job sections")
    parser = _build_parser(_SectionParser)
    jobs = []
    writers = {}
    for name in config.sections():
        job, out, written = _section_job(parser, name, config[name])
        for path in map(os.path.abspath, written):
            if path in writers:
                raise ValueError(f"config error in [{name}]: {path!r} is also written by [{writers[path]}]")
            writers[path] = name
        jobs.append((job, out))

    def run() -> int:
        codes = []
        for job, out in jobs:
            with contextlib.redirect_stdout(io.StringIO()) as printed:
                codes.append(job())
            if out is not None:
                _write_text(out, printed.getvalue())
        # a counterexample outranks an inconclusive search
        return next((code for code in (2, 3) if code in codes), 0)

    return run


# ---------------------------------------------------------------------------


def _add_strategy_arguments(parser) -> None:
    parser.add_argument("--strategy", required=True, choices=tuple(_STRATEGIES))
    parser.add_argument("--q", type=int, required=True, help="alphabet size")
    parser.add_argument("--n", type=int, required=True, help="block length")
    parser.add_argument("--t", type=int, required=True, help="adversary error budget")
    parser.add_argument("--r", type=int, default=None, help="rubber run length")
    parser.add_argument("--side", choices=("z", "invz"), default="z")
    parser.add_argument("--channel", choices=tuple(_CHANNELS), default=None)


def _build_parser(parser_class=_Parser) -> _Parser:
    parser = parser_class(prog="qfeedback", description="Feedback coding over adversarial q-ary channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    curves = sub.add_parser("curves", help="emit bound curves as CSV")
    curves.add_argument("--q", type=int, required=True)
    curves.add_argument("--step", type=float, default=0.01)
    curves.add_argument("--out", required=True)
    curves.set_defaults(job=_curves_job)

    verify = sub.add_parser("verify", help="exhaustively certify a strategy")
    _add_strategy_arguments(verify)
    verify.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    verify.add_argument("--out", required=True)
    verify.set_defaults(job=_verify_job)

    zcap = sub.add_parser("zcap", help="zero-error covering program for a channel")
    zcap.add_argument("--channel", required=True, choices=tuple(_GRAPH_CHANNELS))
    zcap.add_argument("--q", type=int, required=True)
    zcap.set_defaults(job=_zcap_job)

    session = sub.add_parser("session", help="run one feedback session")
    _add_strategy_arguments(session)
    session.add_argument("--message", type=int, required=True)
    session.add_argument("--adversary", default="greedy", help="greedy, passive, or path:y1,y2,...")
    session.set_defaults(job=_session_job)

    campaign = sub.add_parser("campaign", help="run a batch config")
    campaign.add_argument("--config", required=True)
    campaign.set_defaults(job=_campaign_job)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.job(args)()
    except (ValueError, OSError) as exc:
        print(f"qfeedback: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
