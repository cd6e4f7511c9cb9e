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
from .session import GreedyAdversary, PassiveAdversary, PathAdversary, run_session
from .strategies import (
    identity_strategy,
    modified_rubber_strategy,
    unidirectional_rubber_strategy,
    zero_error_unidirectional_strategy,
)
from .verifier import DEFAULT_NODE_BUDGET, verify_successful

_GRAPH_CHANNELS = {
    "z": make_z_channel,
    "invz": make_inverse_z_channel,
    "sym": make_symmetric_channel,
    "star": make_star_channel,
}

_CHANNELS = {**_GRAPH_CHANNELS, "uni": make_unidirectional_pair}


def _run_length(args) -> int:
    if args.r is None:
        raise ValueError(f"{args.strategy} requires r")
    return args.r


# name -> (builder from parsed args, default channel id); a default of None
# means the channel named by --side
_STRATEGIES = {
    "modified_rubber": (lambda a: modified_rubber_strategy(a.q, _run_length(a), a.side, a.n, a.t), None),
    "zero_error": (lambda a: zero_error_unidirectional_strategy(a.q, a.n), "uni"),
    "unidirectional_rubber": (lambda a: unidirectional_rubber_strategy(a.q, _run_length(a), a.n, a.t), "uni"),
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
        raise ValueError(message)


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
    """The strategy, the channel id and the channel that args select."""
    build, default_channel = _STRATEGIES[args.strategy]
    strategy = build(args)
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


def write_curves(q: int, step: float, path: str) -> None:
    """CSV of every bound curve for one q, rows sorted by curve then tau."""
    if q < 2:
        raise ValueError(f"alphabet size must be at least 2, got {q}")
    if not 0.0 < step <= 0.5:
        raise ValueError(f"grid step must lie in (0, 0.5], got {step}")
    taus = []
    i = 0
    while i * step <= 1.0 + 1e-9:
        taus.append(min(i * step, 1.0))
        i += 1
    funcs = _curve_functions(q)
    lines = ["tau,value,curve"]
    for curve in sorted(funcs):
        evaluate = funcs[curve]
        for tau in taus:
            lines.append(f"{tau:.12g},{evaluate(tau):.12g},{curve}")
    _write_text(path, "\n".join(lines) + "\n")


def _cmd_curves(args) -> int:
    write_curves(args.q, args.step, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


_OUTCOME_EXIT = {"success": 0, "counterexample": 2, "inconclusive": 3}


def _cmd_verify(args) -> int:
    """Run one verification, write report plus timing sidecar."""
    strategy, channel_id, channel = _build_strategy_and_channel(args)
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


# ---------------------------------------------------------------------------
# zcap


def _cmd_zcap(args) -> int:
    graph = _GRAPH_CHANNELS[args.channel](args.q)
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


# ---------------------------------------------------------------------------
# session


def _cmd_session(args) -> int:
    strategy, _, channel = _build_strategy_and_channel(args)
    adversary = _build_adversary(args.adversary, args.n)
    transcript = run_session(strategy, channel, adversary, args.message, args.t)
    sys.stdout.write(_dump_json(transcript.to_json_dict()))
    return 0 if transcript.decoded == args.message else 2


# ---------------------------------------------------------------------------
# campaign

# subcommands a campaign section may name; zcap and session print, so their
# stdout goes to the section's out file
_CAMPAIGN_KINDS = ("curves", "verify", "zcap", "session")
_PRINTING_KINDS = ("zcap", "session")


def _parse_section(parser: _SectionParser, name: str, section) -> tuple:
    """(parsed args, out file for printed output or None) for one section.

    Every key but kind is the subcommand's flag of the same name.
    """
    keys = dict(section)
    kind = keys.pop("kind", None)
    if kind is None:
        raise ValueError(f"config error in [{name}]: missing 'kind'")
    if kind not in _CAMPAIGN_KINDS:
        raise ValueError(f"config error in [{name}]: unknown kind {kind!r}")
    out = keys.pop("out", None) if kind in _PRINTING_KINDS else None
    if kind in _PRINTING_KINDS and out is None:
        raise ValueError(f"config error in [{name}]: missing 'out'")
    try:
        args = parser.parse_args([kind] + [f"--{key}={value}" for key, value in keys.items()])
    except ValueError as exc:
        raise ValueError(f"config error in [{name}]: missing, unknown or malformed key: {exc}") from None
    return args, out


def run_campaign(config_path: str) -> int:
    """Run every job in the config; exit severity aggregates job outcomes.

    Every section is parsed before the first job runs.
    """
    config = configparser.ConfigParser()
    if not config.read(config_path):
        raise ValueError(f"cannot read config file {config_path!r}")
    parser = _build_parser(_SectionParser)
    jobs = [_parse_section(parser, name, config[name]) for name in config.sections()]
    codes = []
    for args, out in jobs:
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            codes.append(args.func(args))
        if out is not None:
            _write_text(out, printed.getvalue())
    if 2 in codes:
        return 2
    if 3 in codes:
        return 3
    return 0


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
    curves.set_defaults(func=_cmd_curves)

    verify = sub.add_parser("verify", help="exhaustively certify a strategy")
    _add_strategy_arguments(verify)
    verify.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    verify.add_argument("--out", required=True)
    verify.set_defaults(func=_cmd_verify)

    zcap = sub.add_parser("zcap", help="zero-error covering program for a channel")
    zcap.add_argument("--channel", required=True, choices=tuple(_GRAPH_CHANNELS))
    zcap.add_argument("--q", type=int, required=True)
    zcap.set_defaults(func=_cmd_zcap)

    session = sub.add_parser("session", help="run one feedback session")
    _add_strategy_arguments(session)
    session.add_argument("--message", type=int, required=True)
    session.add_argument("--adversary", default="greedy", help="greedy, passive, or path:y1,y2,...")
    session.set_defaults(func=_cmd_session)

    campaign = sub.add_parser("campaign", help="run a batch config")
    campaign.add_argument("--config", required=True)
    campaign.set_defaults(func=lambda args: run_campaign(args.config))

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"qfeedback: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
