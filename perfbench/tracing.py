"""Traced run: spans around qfeedback's public callables, patched from outside.

Nothing under src/ changes.  The tracer wraps

* strategy callables, through dataclasses.replace on the frozen Strategy
  (for CLI jobs, inside a wrapper of qfeedback.cli.verify_successful);
* module-level names in the module where they are looked up;
* ChannelGraph and UnidirectionalChannel methods, on the class.

Spans are aggregated in memory per name (calls, inclusive and self time,
plus a few per-call observations) and turned into the per-layer metrics
when the traced pass ends.  A span's self time is its duration minus the
time of the spans it directly encloses.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from time import perf_counter_ns

from qfeedback import bounds, channels, cli, session, strategies, verifier

from workloads import RandomAdversary

# CLI channel ids by ChannelGraph.name, for the per-channel bounds metrics
_CHANNEL_IDS = {"z": "z", "inverse_z": "invz", "symmetric": "sym", "star": "star"}
BOUND_CHANNELS = ("z", "invz", "sym", "star")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.sums = defaultdict(int)
        self._stack: list[list] = []  # [span name, ns covered by children]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, observe=None):
        """fn wrapped in a span; name may be a function of the call's args.

        observe(parent span name, args, result), when given, runs after the
        span closes.
        """
        stack, calls, total, own = self._stack, self.calls, self.total_ns, self.self_ns

        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            if observe is not None:
                parent = stack[-1][0] if stack else None
            frame = [span, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                calls[span] += 1
                total[span] += elapsed
                own[span] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(parent, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name, observe=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, observe))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrap_strategy(self, strategy):
        return dataclasses.replace(
            strategy,
            encode_step=self.wrap("strategies.encode_step", strategy.encode_step),
            decode=self.wrap("strategies.decode", strategy.decode),
        )

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        sums = self.sums

        def parse_seen(parent, args, result):
            if parent == "strategies.encode_step":
                sums["parse_symbols_in_step"] += len(args[0])

        def word_length(key, length=len):
            # rank and is_valid take (constraint, word), unrank (constraint, length, index)
            def seen(parent, args, result):
                sums[key] += length(args[1])
            return seen

        self.patch(strategies, "rubber_stack_parse", "strategies.rubber_stack_parse", parse_seen)
        self.patch(strategies, "rank", "codebook.rank", word_length("codebook.rank.len"))
        self.patch(strategies, "is_valid", "codebook.is_valid", word_length("codebook.is_valid.len"))
        self.patch(strategies, "unrank", "codebook.unrank", word_length("codebook.unrank.len", int))

        for module in (verifier, session):
            self.patch(module, "admissible_outputs", "session.admissible_outputs")
            self.patch(module, "advance_direction", "session.advance_direction")
        self.patch(channels.ChannelGraph, "outputs", "channels.outputs")
        self.patch(channels.UnidirectionalChannel, "direction_after", "channels.direction_after")
        self.patch(session, "run_session", "session.run_session")
        # the benchmark's own adversary, so run_session's self time excludes it
        self.patch(RandomAdversary, "choose", "bench.adversary")

        def verified(parent, args, verdict):
            sums["verifier.nodes"] += verdict.nodes

        calls = self.calls
        original_verify = cli.verify_successful

        def verify_with_traced_strategy(strategy, *args, **kwargs):
            before = calls["strategies.decode"]
            try:
                return original_verify(self.wrap_strategy(strategy), *args, **kwargs)
            finally:
                sums["verifier.leaves"] += calls["strategies.decode"] - before

        self._patches.append((cli, "verify_successful", original_verify))
        cli.verify_successful = self.wrap("verifier.verify_successful", verify_with_traced_strategy, verified)

        def per_channel(args):
            return "bounds.min_max_output_mass." + _CHANNEL_IDS.get(args[0].name, args[0].name)

        for module in (cli, bounds):
            self.patch(module, "min_max_output_mass", per_channel)
            self.patch(module, "modified_rubber_bound", "bounds.modified_rubber_bound")
        for fn in ("zero_error_capacity", "lower_envelope", "capacity_upper_bound", "degree_two_bound"):
            self.patch(cli, fn, "bounds." + fn)
        self.patch(cli, "main", "cli.main")

    # -- metrics ---------------------------------------------------------------

    def _per_call(self, span: str, scale: float) -> float:
        calls = self.calls.get(span, 0)
        return self.total_ns.get(span, 0) / calls / scale if calls else 0.0

    def _mean(self, key: str, span: str) -> float:
        calls = self.calls.get(span, 0)
        return self.sums.get(key, 0) / calls if calls else 0.0

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict:
        """Every per-layer metric, as {name: (value, unit)}.

        A layer the workload never calls reports 0 calls and 0 time.
        """
        c, s = self.calls, self.sums
        us, ms = 1e3, 1e6
        steps = c.get("strategies.encode_step", 0)
        verify_s = self.total_ns.get("verifier.verify_successful", 0) / 1e9
        cli_jobs = c.get("cli.main", 0)
        out = {
            "strategies.encode_step.calls": (steps, "count"),
            "strategies.encode_step.self_us": (self.self_ns.get("strategies.encode_step", 0) / us, "us"),
            "strategies.decode.calls": (c.get("strategies.decode", 0), "count"),
            "strategies.decode.self_us": (self.self_ns.get("strategies.decode", 0) / us, "us"),
            "strategies.rubber_stack_parse.calls": (c.get("strategies.rubber_stack_parse", 0), "count"),
            "strategies.rubber_stack_parse.us_per_call": (self._per_call("strategies.rubber_stack_parse", us), "us"),
            "strategies.parse_symbols_per_step": (s.get("parse_symbols_in_step", 0) / steps if steps else 0.0, "ratio"),
            "verifier.nodes": (s.get("verifier.nodes", 0), "count"),
            "verifier.leaves": (s.get("verifier.leaves", 0), "count"),
            "verifier.nodes_per_s": (s.get("verifier.nodes", 0) / verify_s if verify_s else 0.0, "1/s"),
            "verifier.self_s": (self.self_ns.get("verifier.verify_successful", 0) / 1e9, "s"),
            "session.admissible_outputs.calls": (c.get("session.admissible_outputs", 0), "count"),
            "session.admissible_outputs.us_per_call": (self._per_call("session.admissible_outputs", us), "us"),
            "session.advance_direction.calls": (c.get("session.advance_direction", 0), "count"),
            "session.advance_direction.us_per_call": (self._per_call("session.advance_direction", us), "us"),
            "session.run_session.self_us": (self.self_ns.get("session.run_session", 0) / us, "us"),
            "channels.outputs.calls": (c.get("channels.outputs", 0), "count"),
            "channels.outputs.us_per_call": (self._per_call("channels.outputs", us), "us"),
            "channels.direction_after.calls": (c.get("channels.direction_after", 0), "count"),
            "channels.direction_after.us_per_call": (self._per_call("channels.direction_after", us), "us"),
        }
        for fn in ("rank", "unrank", "is_valid"):
            span = "codebook." + fn
            out[span + ".calls"] = (c.get(span, 0), "count")
            out[span + ".us_per_call"] = (self._per_call(span, us), "us")
            out[span + ".word_len"] = (self._mean(span + ".len", span), "symbols")
        for channel in BOUND_CHANNELS:
            span = "bounds.min_max_output_mass." + channel
            out[span + ".calls"] = (c.get(span, 0), "count")
            out[span + ".ms_per_call"] = (self._per_call(span, ms), "ms")
        for fn in ("modified_rubber_bound", "lower_envelope", "capacity_upper_bound"):
            span = "bounds." + fn
            out[span + ".calls"] = (c.get(span, 0), "count")
            out[span + ".us_per_call"] = (self._per_call(span, us), "us")
        out["cli.overhead_ms"] = (self.self_ns.get("cli.main", 0) / ms / cli_jobs if cli_jobs else 0.0, "ms")
        out["trace.overhead"] = (traced_wall_s / untraced_wall_s, "ratio")
        return out

    def spans(self) -> dict:
        """The aggregated span table, for the run's detail line."""
        return {
            name: {"calls": self.calls[name], "total_us": self.total_ns[name] / 1e3, "self_us": self.self_ns[name] / 1e3}
            for name in sorted(self.calls)
        }
