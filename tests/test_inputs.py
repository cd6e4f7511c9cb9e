"""Every public entry point checks its integer arguments by one rule.

An integer argument that is not an integer (a float, even a whole one, or
a string) is a ValueError naming the argument.  Unchecked, some of these
built a strategy with a float message count, constructed a channel or a
constraint, or returned a value; others died with a TypeError.
"""

import argparse

import pytest

from qfeedback import cli
from qfeedback.bounds import run_growth_rate, sphere_packing_message_bound
from qfeedback.channels import ChannelGraph, UnidirectionalChannel
from qfeedback.codebook import RunConstraint, count, unrank
from qfeedback.strategies import (
    identity_strategy,
    modified_rubber_strategy,
    unidirectional_rubber_strategy,
    zero_error_unidirectional_strategy,
)

CONSTRAINT = RunConstraint(3, (2,), 2)


def graph(q):
    return ChannelGraph("pair", q, (0, 1), frozenset({(0, 0), (1, 1), (1, 0)}))


def curves_job(q):
    return cli._curves_job(argparse.Namespace(q=q, step=0.5, out="never.csv"))


# (entry point, valid arguments, {integer argument: the name its error gives})
ENTRY_POINTS = [
    (graph, {"q": 2}, {"q": "alphabet size"}),
    (UnidirectionalChannel, {"q": 3}, {"q": "alphabet size"}),
    (RunConstraint, {"q": 3, "reserved": (2,), "r": 2}, {"q": "alphabet size", "r": "run length"}),
    (count, {"constraint": CONSTRAINT, "length": 3}, {"length": "length"}),
    (unrank, {"constraint": CONSTRAINT, "length": 3, "idx": 1}, {"length": "length", "idx": "index"}),
    (run_growth_rate, {"q": 3, "r": 2}, {"q": "alphabet size", "r": "run length"}),
    (
        sphere_packing_message_bound,
        {"n": 4, "t": 1, "q": 3},
        {"n": "block length", "t": "error budget", "q": "alphabet size"},
    ),
    (
        modified_rubber_strategy,
        {"q": 3, "r": 2, "side": "z", "n": 6, "t": 1},
        {"q": "alphabet size", "r": "run length", "n": "block length", "t": "error budget"},
    ),
    (zero_error_unidirectional_strategy, {"q": 3, "n": 4}, {"q": "alphabet size", "n": "block length"}),
    (
        unidirectional_rubber_strategy,
        {"q": 3, "r": 2, "n": 7, "t": 1},
        {"q": "alphabet size", "r": "run length", "n": "block length", "t": "error budget"},
    ),
    (identity_strategy, {"q": 2, "n": 2}, {"q": "alphabet size", "n": "block length"}),
    (curves_job, {"q": 3}, {"q": "alphabet size"}),
]


@pytest.mark.parametrize(
    "call, kwargs, what",
    [
        pytest.param(call, {**kwargs, name: bad}, what, id=f"{call.__name__}-{name}={bad!r}")
        for call, kwargs, names in ENTRY_POINTS
        for name, what in names.items()
        for bad in (float(kwargs[name]), str(kwargs[name]))
    ],
)
def test_a_non_integer_is_a_value_error_naming_the_argument(call, kwargs, what):
    with pytest.raises(ValueError, match=f"^{what} must be an integer, got "):
        call(**kwargs)
