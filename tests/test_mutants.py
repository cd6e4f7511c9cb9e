"""Each oracle shows that it can fail: one planted fault per row.

A row names a fault, builds it, and runs the oracle that must catch it;
the row passes only if that oracle raises AssertionError.  Strategy-side
faults replace one field of a built-in Sender (Sender._replace), so the
strategy keeps its decode and, with it, its table key.  Verifier-side
faults, and the growth-rate fault, make one textual substitution in the
source of qfeedback/verifier.py or qfeedback/bounds.py and load the result
as a fresh module (the table-size oracle makes one more, to capture the
table); each substitution must match exactly once, so a refactor that
moves the line fails here, naming the row to re-aim, instead of passing
silently.  The envelope fault replaces the lower_envelope the
curves job calls.  Beside the faults, controls run the same oracles on the
unplanted copies and must pass; a fault written out in the test (a feed)
has a control written out the same way, with the fault taken out.
"""

import importlib.util
import itertools
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from qfeedback import bounds, cli, verifier
from qfeedback.bounds import lower_envelope, modified_rubber_bound
from qfeedback.channels import make_symmetric_channel, make_unidirectional_pair, make_z_channel
from qfeedback.strategies import (
    _push,
    identity_strategy,
    modified_rubber_strategy,
    unidirectional_rubber_strategy,
    zero_error_unidirectional_strategy,
)
from qfeedback.verifier import verify_successful
from test_bounds import assert_growth_rate_is_the_full_loop_root
from test_cli import assert_envelope_is_the_max_of_the_achievable_curves
from test_strategies import STACK_CASES, assert_sender_stack_is_the_parse
from test_verdict_oracle import oracle_verdict
from test_verifier import assert_memo_matches_full_walk, assert_node_budget_boundary_is_exact, interned, whole_state_key

_loaded = itertools.count()


def copy_with(original, *edits):
    """A fresh copy of a qfeedback module, its source with each (old, new)
    edit made: old replaced by new."""
    with open(original.__file__, encoding="utf-8") as handle:
        source = handle.read()
    for old, new in edits:
        # not an AssertionError, which a row built inside its check would count as caught
        if source.count(old) != 1:
            raise LookupError(f"re-aim this mutant: {old!r} no longer matches exactly once")
        source = source.replace(old, new)
    name = f"qfeedback._copy{next(_loaded)}"
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader=None))
    module.__package__ = "qfeedback"
    # dataclasses look the defining module up while the source runs
    sys.modules[name] = module
    try:
        exec(compile(source, original.__file__, "exec"), module.__dict__)
    finally:
        del sys.modules[name]
    return module


def verifier_copy(*edits):
    """A copy of verifier.py with the edits made."""
    module = copy_with(verifier, *edits)
    # verdicts compare equal only within one class
    module.Verdict = verifier.Verdict
    return module


def verifier_with(*edits):
    """verify_successful from a copy of verifier.py with the edits made."""
    return verifier_copy(*edits).verify_successful


def growth_rate_oracle(*edits):
    """The full-loop reference run on run_growth_rate from a copy of bounds.py."""
    growth_rate = copy_with(bounds, *edits).run_growth_rate
    return lambda: assert_growth_rate_is_the_full_loop_root(growth_rate)


def with_sender(strategy, **fields):
    return replace(strategy, encode_step=strategy.encode_step._replace(**fields))


def rubber_z():
    return modified_rubber_strategy(3, 2, "z", 8, 2)


def tuple_key(strategy, q, whole=True):
    """The search-wide key spelled out as a tuple, interned to ints, and
    declared where the strategy declares its own: the unread suffix
    codeword[matched:] with matched, the tail, and whether the message is
    0.  Not whole, it is one int that drops the tail's length and the
    message-0 bit: the suffix's base-q value packed with matched, then the
    tail's digits, so a tail can pass for more suffix."""

    def key_for(channel, t):
        if strategy.encode_step.key_for(channel, t) is None:
            return None

        def key(state):
            w, matched, tail = state.codeword, state.matched, state.tail
            if whole:
                return w[matched:], matched, tail, state.message == 0
            code = 0
            for s in w[matched:]:
                code = code * q + s
            code = code * len(w) + matched
            for s in tail:
                code = code * q + s
            return code

        return interned(key)

    return with_sender(strategy, key_for=key_for)


def unirubber():
    return unidirectional_rubber_strategy(3, 2, 9, 2)


def zero_error_key(q, n, skip):
    """zero_error's key written out over the digits word[i + skip:], and
    declared where its own is; its own reads every unread digit, skip 0."""
    strategy = zero_error_unidirectional_strategy(q, n)
    base = (q + 1) // 2

    def key_for(channel, t):
        if strategy.encode_step.key_for(channel, t) is None:
            return None

        def key(state):
            word, i, _ = state
            code = 0
            for digit in word[i + skip :]:
                code = code * base + digit
            return code

        return key

    return with_sender(strategy, key_for=key_for)


def unnormalised(feed):
    """A feed that keeps matched where it was when a pop runs below it."""

    def mutant(state, y):
        after = feed(state, y)
        return after._replace(matched=state.matched) if after.matched < state.matched else after

    return mutant


def rubber_z_feed(rubber, correction):
    """rubber_z's feed written out, pushing with the given rubber and
    correction (run length 2); its own are rubber 2 and correction +1."""

    def feed(state, y):
        w, matched, tail = state.codeword, state.matched, state.tail
        if tail or matched == len(w) or y != w[matched]:
            matched, tail = _push(w, matched, tail, y, rubber, correction, 2)
        else:
            matched += 1
        return state._replace(matched=matched, tail=tail)

    return feed


def without_degree_two_below(cut):
    """lower_envelope without its degree_two_bound term below tau = cut."""

    def envelope(q, tau):
        if tau < cut:
            return max(modified_rubber_bound(q, tau), math.log((q + 1) // 2) / math.log(q))
        return lower_envelope(q, tau)

    return envelope


def envelope_oracle(q, envelope=lower_envelope):
    def check():
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "lower_envelope", envelope):
            assert_envelope_is_the_max_of_the_achievable_curves(Path(tmp) / "curves.csv", q)

    return check


def differential(strategy, channel, t, verify=verify_successful):
    return lambda: assert_memo_matches_full_walk(strategy, channel, t, verify)


def table_size_oracle(*edits, limit=100):
    """A keyed search with the table limit set, from a copy of verifier.py
    with the edits made: the unbounded search's verdict, from a table
    filled to the limit and no further."""
    tables = []

    def new_table():
        tables.append({})
        return tables[-1]

    module = verifier_copy((TABLE, "memo: dict = new_table()"), *edits)
    module.new_table, module.TABLE_LIMIT = new_table, limit

    def check():
        strategy, channel = rubber_z(), make_z_channel(3)
        assert module.verify_successful(strategy, channel, 2) == verify_successful(strategy, channel, 2)
        assert [len(table) for table in tables] == [limit]

    return check


def cap_boundary(verify):
    # unkeyed, so the node that reaches the cap is walked, not a table hit
    return lambda: assert_node_budget_boundary_is_exact(identity_strategy(2, 3), make_z_channel(2), 0, verify)


def verdict_oracle(strategy, channel, t):
    def check():
        assert verify_successful(strategy, channel, t) == oracle_verdict(strategy, channel, t)

    return check


def stack_oracle(strategy, case, channel, t):
    return lambda: assert_sender_stack_is_the_parse(strategy, STACK_CASES[case][1], channel, t)


def keyed_as_on(strategy, home):
    """The strategy declaring, for every channel, the key it declares on home."""
    key_for = strategy.encode_step.key_for
    return with_sender(strategy, key_for=lambda channel, t: key_for(home, t))


ENTRY = "entry = ((key(state) * (n + 1) + depth) * (t + 1) + budget) * 3 + code[direction]"
TABLE = "memo: dict = {}"
STORE = "if room:"
CAP_CHECK = "if size is not None and nodes - 1 + size <= node_budget:"
CAP = "if nodes > node_budget:"
SIGN_STOP = "if acc <= 0.0:"

ROWS = {
    # a tail digit passes for a suffix digit
    "key without the tail's length and the message-0 bit": lambda: differential(
        tuple_key(unirubber(), 3, whole=False), make_unidirectional_pair(3), 2
    ),
    # on sym the adversary forges rubber and pops into the matched prefix
    "key_for that ignores the channel": lambda: verdict_oracle(
        keyed_as_on(modified_rubber_strategy(2, 2, "z", 4, 1), make_z_channel(2)), make_symmetric_channel(2), 1
    ),
    "feed that does not normalise matched after a pop below it": lambda: stack_oracle(
        with_sender(rubber_z(), feed=unnormalised(rubber_z().encode_step.feed)),
        "rubber_z",
        make_symmetric_channel(3),
        2,
    ),
    "table hit that skips the node-cap check": lambda: differential(
        rubber_z(), make_z_channel(3), 2, verifier_with((CAP_CHECK, "if size is not None:"))
    ),
    # a rubber key implies the errors so far where it is declared; the
    # whole state does not, on a channel that forges rubber
    "memo entry without the budget": lambda: differential(
        whole_state_key(modified_rubber_strategy(2, 1, "invz", 3, 1)),
        make_symmetric_channel(2),
        2,
        verifier_with((ENTRY, "entry = (key(state) * (n + 1) + depth) * 3 + code[direction]")),
    ),
    # the unidirectional sender's phase is the entry's direction, not part of its key
    "memo entry without the direction": lambda: differential(
        unidirectional_rubber_strategy(3, 2, 8, 2),
        make_unidirectional_pair(3),
        2,
        verifier_with((ENTRY, "entry = (key(state) * (n + 1) + depth) * (t + 1) + budget")),
    ),
    "table that stores past its limit": lambda: table_size_oracle((STORE, "if True:")),
    # digits 0 and 1 are sent as 0 and 2, which have two and three outputs on uni(4)
    "zero_error key without the next digit": lambda: differential(
        zero_error_key(4, 5, skip=1), make_unidirectional_pair(4), 5
    ),
    "node cap off by one": lambda: cap_boundary(verifier_with((CAP, "if nodes >= node_budget:"))),
    "rubber feed with the flipped correction, z": lambda: stack_oracle(
        with_sender(rubber_z(), feed=rubber_z_feed(2, -1)), "rubber_z", make_z_channel(3), 2
    ),
    "rubber feed with the flipped correction, sym": lambda: stack_oracle(
        with_sender(rubber_z(), feed=rubber_z_feed(2, -1)), "rubber_z", make_symmetric_channel(3), 2
    ),
    # side z pushing as side invz would
    "rubber feed under the inverse-Z convention, z": lambda: stack_oracle(
        with_sender(rubber_z(), feed=rubber_z_feed(0, -1)), "rubber_z", make_z_channel(3), 2
    ),
    "rubber feed under the inverse-Z convention, sym": lambda: stack_oracle(
        with_sender(rubber_z(), feed=rubber_z_feed(0, -1)), "rubber_z", make_symmetric_channel(3), 2
    ),
    # a positive accumulator below 1 can still turn negative
    "growth-rate sign read before it is known": lambda: growth_rate_oracle((SIGN_STOP, "if acc < 1.0:")),
    "lower_envelope without degree_two_bound below 0.2": lambda: envelope_oracle(8, without_degree_two_below(0.2)),
}

CONTROLS = {
    "the key spelled out as a tuple": lambda: differential(
        tuple_key(unirubber(), 3), make_unidirectional_pair(3), 2
    ),
    "the whole state as key": lambda: differential(
        whole_state_key(modified_rubber_strategy(2, 1, "invz", 3, 1)), make_symmetric_channel(2), 2, verifier_with()
    ),
    "the sender's own key_for": lambda: verdict_oracle(
        modified_rubber_strategy(2, 2, "z", 4, 1), make_symmetric_channel(2), 1
    ),
    "the sender's own feed": lambda: stack_oracle(rubber_z(), "rubber_z", make_symmetric_channel(3), 2),
    "the verifier copied unchanged, rubber": lambda: differential(rubber_z(), make_z_channel(3), 2, verifier_with()),
    "the verifier copied unchanged, unirubber": lambda: differential(
        unidirectional_rubber_strategy(3, 2, 8, 2), make_unidirectional_pair(3), 2, verifier_with()
    ),
    "the verifier copied unchanged, node cap": lambda: cap_boundary(verifier_with()),
    "the verifier copied unchanged, table size": lambda: table_size_oracle(),
    "zero_error key written out with every unread digit": lambda: differential(
        zero_error_key(4, 5, skip=0), make_unidirectional_pair(4), 5
    ),
    "rubber feed written out with its own correction, z": lambda: stack_oracle(
        with_sender(rubber_z(), feed=rubber_z_feed(2, +1)), "rubber_z", make_z_channel(3), 2
    ),
    "rubber feed written out with its own correction, sym": lambda: stack_oracle(
        with_sender(rubber_z(), feed=rubber_z_feed(2, +1)), "rubber_z", make_symmetric_channel(3), 2
    ),
    "bounds copied unchanged, growth rate": lambda: growth_rate_oracle(),
    "the envelope test on lower_envelope": lambda: envelope_oracle(8),
}


@pytest.mark.parametrize("row", ROWS)
def test_the_oracle_catches_the_planted_fault(row):
    check = ROWS[row]()
    with pytest.raises(AssertionError):
        check()


@pytest.mark.parametrize("control", CONTROLS)
def test_the_oracle_passes_without_the_fault(control):
    CONTROLS[control]()()
