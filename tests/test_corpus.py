"""Today's answers as committed data: the verdict corpus.

tests/data/verdicts.json pins three kinds of answer, read off the code at
one commit (its "commit" field):

* "groups": a small grid of whole Verdicts, uncapped and at node caps 1,
  37 and 500, stored as one SHA-256 per (q, strategy, channel) group,
  taken over the group's canonical JSON (sort_keys);
* "searches": mid-scale keyed searches, beyond the oracles' reach, each
  Verdict stored in full;
* "reports": one CLI verify report per strategy and channel, run through
  main in process, stored as the SHA-256 of its bytes with the exit code
  (the ".log" sidecar holds a wall time and is left out).

The corpus checks only that no answer moved; the oracles check that the
answers are right.  A change that moves an entry changes an answer.  On a
mismatch the test prints the group's current verdicts, to diff against
the same group at the commit that wrote the file.

Rewrite the file from a clean src/ with

    python tests/test_corpus.py --write
"""

import dataclasses
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qfeedback.channels import (
    make_inverse_z_channel,
    make_star_channel,
    make_symmetric_channel,
    make_unidirectional_pair,
    make_z_channel,
)
from qfeedback.cli import main
from qfeedback.strategies import (
    identity_strategy,
    modified_rubber_strategy,
    unidirectional_rubber_strategy,
    zero_error_unidirectional_strategy,
)
from qfeedback.verifier import DEFAULT_NODE_BUDGET, verify_successful

DATA = Path(__file__).resolve().parent / "data" / "verdicts.json"

CHANNELS = {
    "z": make_z_channel,
    "invz": make_inverse_z_channel,
    "sym": make_symmetric_channel,
    "star": make_star_channel,
    "uni": make_unidirectional_pair,
}

CAPS = (DEFAULT_NODE_BUDGET, 1, 37, 500)


def grid_builders(q, n, t):
    """(strategy id, builder) of each grid strategy at (q, n, t); a rubber
    scheme is built for the budget it is searched at."""
    yield "identity", lambda: identity_strategy(q, n)
    yield "zero_error", lambda: zero_error_unidirectional_strategy(q, n)
    for r in (1, 2):
        for side in ("z", "invz"):
            yield f"modified_rubber r={r} {side}", lambda r=r, side=side: modified_rubber_strategy(q, r, side, n, t)
    if q >= 3:
        yield "unidirectional_rubber r=2", lambda: unidirectional_rubber_strategy(q, 2, n, t)


def verdict_json(verdict):
    """Every field of the Verdict, its words as JSON lists."""
    return json.loads(json.dumps(dataclasses.asdict(verdict)))


def grid_group_verdicts():
    """(q, strategy id, channel id) -> that group's entries, in grid order:
    q 2-4, n 1-6, t up to min(3, n), every channel and cap.  q = 4, n = 6,
    t = 0 is left out: its paths took half the grid's time."""
    groups = {}
    for q in (2, 3, 4):
        for n in range(1, 7):
            for t in range(min(3, n) + 1):
                if (q, n, t) == (4, 6, 0):
                    continue
                for name, build in grid_builders(q, n, t):
                    try:
                        strategy = build()
                    except ValueError:
                        strategy = None
                    for channel_id, make in CHANNELS.items():
                        entries = groups.setdefault(f"q={q} {name} on {channel_id}", [])
                        if strategy is None:
                            entries.append({"n": n, "t": t, "rejected": True})
                            continue
                        channel = make(q)
                        for cap in CAPS:
                            verdict = verify_successful(strategy, channel, t, node_budget=cap)
                            entries.append({"n": n, "t": t, "cap": cap, "verdict": verdict_json(verdict)})
    return groups


def digest(data):
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


# (q, strategy, channel id, t) of each mid-scale search: keyed on its own
# channel, 10^4 to 10^5 nodes, and one counterexample off it
SEARCHES = [
    (3, lambda: modified_rubber_strategy(3, 2, "z", 10, 2), "z", 2),
    (4, lambda: modified_rubber_strategy(4, 2, "z", 9, 2), "z", 2),
    (3, lambda: modified_rubber_strategy(3, 2, "invz", 10, 3), "invz", 3),
    (3, lambda: unidirectional_rubber_strategy(3, 2, 12, 3), "uni", 3),
    (4, lambda: unidirectional_rubber_strategy(4, 2, 10, 2), "uni", 2),
    (5, lambda: zero_error_unidirectional_strategy(5, 7), "uni", 7),
    (3, lambda: modified_rubber_strategy(3, 2, "z", 10, 2), "sym", 2),
]


def search_entries():
    entries = []
    for q, build, channel_id, t in SEARCHES:
        strategy = build()
        verdict = verify_successful(strategy, CHANNELS[channel_id](q), t)
        entries.append({"strategy": strategy.name, "channel": channel_id, "t": t, "verdict": verdict_json(verdict)})
    return entries


# the flags of one verify job per strategy; each runs on every channel
REPORT_JOBS = {
    "identity": ["--strategy", "identity", "--q", "3", "--n", "4", "--t", "1"],
    "zero_error": ["--strategy", "zero_error", "--q", "3", "--n", "4", "--t", "2"],
    "modified_rubber z": ["--strategy", "modified_rubber", "--q", "3", "--r", "2", "--n", "6", "--t", "1"],
    "modified_rubber invz": [
        "--strategy", "modified_rubber", "--q", "3", "--r", "2", "--side", "invz", "--n", "6", "--t", "1",
    ],
    "unidirectional_rubber": ["--strategy", "unidirectional_rubber", "--q", "3", "--r", "2", "--n", "7", "--t", "2"],
}


def report_entries(directory):
    """(strategy, channel id) -> exit code and report digest, each report
    written into directory."""
    entries = {}
    for name, flags in REPORT_JOBS.items():
        for channel_id in CHANNELS:
            out = Path(directory) / f"{name} {channel_id}.json"
            code = main(["verify", *flags, "--channel", channel_id, "--out", str(out)])
            entries[f"{name} on {channel_id}"] = {
                "exit": code,
                "sha256": hashlib.sha256(out.read_bytes()).hexdigest(),
            }
    return entries


@pytest.fixture(scope="module")
def corpus():
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_grid_verdicts_are_the_corpus(corpus):
    groups = grid_group_verdicts()
    assert sorted(groups) == sorted(corpus["groups"])
    for name, entries in groups.items():
        assert digest(entries) == corpus["groups"][name], f"{name}: {json.dumps(entries, sort_keys=True)}"


def test_mid_scale_searches_are_the_corpus(corpus):
    assert search_entries() == corpus["searches"]


def test_verify_reports_are_the_corpus(corpus, tmp_path):
    assert report_entries(tmp_path) == corpus["reports"]


def write():
    """Rewrite the corpus from the committed src/ and name the commit read."""
    root = DATA.parents[2]
    if subprocess.run(["git", "diff", "--quiet", "--", "src"], cwd=root).returncode != 0:
        sys.exit("src/ differs from the commit: the corpus records committed answers only")
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True)
    with tempfile.TemporaryDirectory() as directory:
        reports = report_entries(directory)
    corpus = {
        "commit": commit.stdout.strip(),
        "groups": {name: digest(entries) for name, entries in grid_group_verdicts().items()},
        "searches": search_entries(),
        "reports": reports,
    }
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    write()
