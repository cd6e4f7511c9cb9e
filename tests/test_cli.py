"""End-to-end checks of the command line frontend.

Most tests drive main() in process; subprocess tests cover the module
entry point itself and reports across hash seeds.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

import qfeedback
from qfeedback import cli
from qfeedback.bounds import capacity_upper_bound, lower_envelope, min_max_output_mass
from qfeedback.channels import make_z_channel
from qfeedback.cli import main


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "tau,value,curve"
    rows = []
    for line in lines[1:]:
        tau, value, curve = line.split(",")
        rows.append((float(tau), float(value), curve))
    return rows


def test_curves_csv_shape_and_values(tmp_path):
    out = tmp_path / "curves.csv"
    assert main(["curves", "--q", "2", "--step", "0.01", "--out", str(out)]) == 0
    rows = read_csv(out)
    curves = {c for _, _, c in rows}
    assert curves == {"upper", "lower_envelope", "modified_rubber", "zero_error", "symmetric"}
    # 101 grid points per curve
    assert len(rows) == 5 * 101
    by_curve = {}
    for tau, value, curve in rows:
        by_curve.setdefault(curve, {})[round(tau, 6)] = value
    assert abs(by_curve["lower_envelope"][0.25] - 0.347120956815) < 1e-9
    assert abs(by_curve["symmetric"][0.25] - 0.173560478408) < 1e-9
    assert abs(by_curve["upper"][0.25] - 0.75) < 1e-9
    assert by_curve["zero_error"][0.25] == 0.0
    # rows are grouped by curve name alphabetically, each group in tau order
    names = [c for _, _, c in rows]
    assert names == [c for c in sorted(curves) for _ in range(101)]
    for curve in curves:
        taus = [tau for tau, _, c in rows if c == curve]
        assert taus == sorted(taus)


CURVES_SHA256 = {
    (2, 0.01): "48932e4bdf907f4c8e63302237327819ffe57f29e2cf149fb97fad67da6aec1d",
    (3, 0.001): "b061050d67734eddac0121582037eff130c594ef73121ac29eb2323b4ac44b77",
    (8, 0.001): "939cd49a359fbf25016cfe83af729b44c08650ad4a6c328d77ef3e143bce4ce2",
    (24, 0.005): "89dcbd3a95ef36d772e5ee2265ea1f3b1e69f8e7655b3daa408fea5ad6ddc00a",
}


@pytest.mark.parametrize("q,step", CURVES_SHA256)
def test_curves_csv_is_pinned(tmp_path, q, step):
    out = tmp_path / "curves.csv"
    assert main(["curves", "--q", str(q), "--step", str(step), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CURVES_SHA256[q, step]


def test_curves_include_degree_two_for_larger_alphabets(tmp_path):
    out = tmp_path / "c5.csv"
    assert main(["curves", "--q", "5", "--step", "0.1", "--out", str(out)]) == 0
    rows = read_csv(out)
    curves = {c for _, _, c in rows}
    assert "degree_two" in curves
    assert "symmetric" not in curves
    env = {tau: v for tau, v, c in rows if c == "lower_envelope"}
    for tau, value in env.items():
        assert abs(value - lower_envelope(5, tau)) < 1e-9


def assert_envelope_is_the_max_of_the_achievable_curves(out, q):
    # rounding to .12g is monotone, so the printed max is the max printed
    assert main(["curves", "--q", str(q), "--step", "0.01", "--out", str(out)]) == 0
    by_tau = {}
    for tau, value, curve in read_csv(out):
        by_tau.setdefault(tau, {})[curve] = value
    achievable = ["modified_rubber", "zero_error"] + (["degree_two"] if q >= 3 else [])
    assert len(by_tau) == 101
    for values in by_tau.values():
        assert values["lower_envelope"] == max(values[c] for c in achievable)


@pytest.mark.parametrize("q", [2, 3, 4, 8])
def test_curves_envelope_is_the_max_of_the_achievable_curves(tmp_path, q):
    assert_envelope_is_the_max_of_the_achievable_curves(tmp_path / "curves.csv", q)


def test_curves_rejects_bad_step(tmp_path):
    out = tmp_path / "never.csv"
    assert main(["curves", "--q", "2", "--step", "0.7", "--out", str(out)]) == 1
    assert not out.exists()


def test_curves_rejects_a_step_below_the_grid_floor(tmp_path, capsys):
    # the floor bounds a job's size: a step of 1e-9 would ask for 10^9 rows per curve
    out = tmp_path / "never.csv"
    assert main(["curves", "--q", "2", "--step", "9e-7", "--out", str(out)]) == 1
    assert "error: grid step must lie in [1e-06, 0.5], got 9e-07" in capsys.readouterr().err
    assert not out.exists()


def test_curves_rejects_alphabet_below_two(tmp_path, capsys):
    out = tmp_path / "q1.csv"
    assert main(["curves", "--q", "1", "--out", str(out)]) == 1
    assert not out.exists()
    assert "alphabet size" in capsys.readouterr().err


def test_a_curves_run_holds_one_curve_at_a_time(tmp_path):
    # the whole CSV as one list of lines and its join peaked at 8.0 MB
    tracemalloc.start()
    try:
        assert main(["curves", "--q", "8", "--step", "0.0001", "--out", str(tmp_path / "c.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000


def test_a_built_curves_job_holds_no_grid():
    # every tau built as a float with the job held 32.4 MB at the floor
    tracemalloc.start()
    try:
        job = cli._curves_job(argparse.Namespace(q=8, step=1e-6, out="never.csv"))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert callable(job)
    assert held < 1_000_000


def test_a_curve_failing_mid_stream_leaves_no_file(tmp_path, monkeypatch, capsys):
    # upper sorts after degree_two, lower_envelope and modified_rubber, so
    # three curves are in the temp file when it fails
    def upper(q, tau):
        if tau > 0.5:
            assert [p.stat().st_size > 0 for p in tmp_path.glob("c.csv.*.tmp")] == [True]
            raise ValueError("upper bound failed")
        return capacity_upper_bound(q, tau)

    monkeypatch.setattr(cli, "capacity_upper_bound", upper)
    out = tmp_path / "c.csv"
    assert main(["curves", "--q", "3", "--step", "0.001", "--out", str(out)]) == 1
    assert "upper bound failed" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == []
    out.write_text("kept\n")
    assert main(["curves", "--q", "3", "--step", "0.001", "--out", str(out)]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv"]
    assert out.read_text() == "kept\n"


def test_a_failed_write_leaves_no_directory_it_made(tmp_path, monkeypatch):
    def upper(q, tau):
        if tau > 0.5:
            raise ValueError("upper bound failed")
        return capacity_upper_bound(q, tau)

    monkeypatch.setattr(cli, "capacity_upper_bound", upper)
    monkeypatch.chdir(tmp_path)
    assert main(["curves", "--q", "3", "--step", "0.01", "--out", "sub/dir/c.csv"]) == 1
    assert list(tmp_path.iterdir()) == []
    # a directory that was there before the write stays
    (tmp_path / "sub").mkdir()
    assert main(["curves", "--q", "3", "--step", "0.01", "--out", "sub/dir/c.csv"]) == 1
    assert [p.name for p in tmp_path.rglob("*")] == ["sub"]


def test_writes_leave_no_temp_files(tmp_path):
    assert main(["curves", "--q", "2", "--step", "0.5", "--out", str(tmp_path / "c.csv")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv"]
    # a target that cannot be replaced fails cleanly and leaves nothing behind
    (tmp_path / "d").mkdir()
    assert main(["curves", "--q", "2", "--step", "0.5", "--out", str(tmp_path / "d")]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "d"]


def test_verify_success_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--strategy", "modified_rubber",
            "--q", "2", "--n", "6", "--t", "1", "--r", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["outcome"] == "success"
    assert report["M"] == 8
    assert report["n"] == 6
    assert report["t"] == 1
    assert report["channel"] == "z"
    assert "counterexample" not in report
    assert "wall_time_ms" not in report
    sidecar = (tmp_path / "report.json.log").read_text()
    assert sidecar.startswith("wall_time_ms=")


def test_verify_counterexample_report(tmp_path):
    out = tmp_path / "identity.json"
    code = main(
        [
            "verify",
            "--strategy", "identity",
            "--q", "2", "--n", "2", "--t", "1",
            "--out", str(out),
        ]
    )
    assert code == 2
    report = json.loads(out.read_text())
    assert report["outcome"] == "counterexample"
    assert report["counterexample"] == {
        "message": 1,
        "sent": [0, 1],
        "received": [0, 0],
        "decoded": 0,
    }


def test_verify_inconclusive_exit_code(tmp_path):
    out = tmp_path / "tiny.json"
    code = main(
        [
            "verify",
            "--strategy", "modified_rubber",
            "--q", "2", "--n", "6", "--t", "1", "--r", "2",
            "--budget", "2",
            "--out", str(out),
        ]
    )
    assert code == 3
    assert json.loads(out.read_text())["outcome"] == "inconclusive"


RUBBER_ARGS = ["--strategy", "modified_rubber", "--q", "2", "--n", "6", "--t", "1", "--r", "2"]
RUBBER_REPORT = {"M": 8, "channel": "z", "n": 6, "strategy": "modified_rubber(q=2,r=2,side=z,n=6,t=1)", "t": 1}
VERIFY_REPORTS = {
    "success": (RUBBER_ARGS, 0, dict(RUBBER_REPORT, nodes=101, outcome="success")),
    "counterexample": (
        ["--strategy", "identity", "--q", "2", "--n", "2", "--t", "1"],
        2,
        {
            "M": 4,
            "channel": "z",
            "counterexample": {"decoded": 0, "message": 1, "received": [0, 0], "sent": [0, 1]},
            "n": 2,
            "nodes": 6,
            "outcome": "counterexample",
            "strategy": "identity(q=2,n=2)",
            "t": 1,
        },
    ),
    "inconclusive": (RUBBER_ARGS + ["--budget", "2"], 3, dict(RUBBER_REPORT, nodes=3, outcome="inconclusive")),
}


@pytest.mark.parametrize("outcome", VERIFY_REPORTS)
def test_verify_reports_are_pinned(tmp_path, outcome):
    args, code, report = VERIFY_REPORTS[outcome]
    out = tmp_path / "report.json"
    assert main(["verify"] + args + ["--out", str(out)]) == code
    assert out.read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_verify_node_budget_below_one_is_a_usage_error(tmp_path):
    out = tmp_path / "nobudget.json"
    for budget in ("0", "-5"):
        args = ["verify", "--strategy", "identity", "--q", "2", "--n", "2", "--t", "1"]
        assert main(args + ["--budget", budget, "--out", str(out)]) == 1
        assert not out.exists()


def test_verify_reports_are_reproducible(tmp_path):
    out = tmp_path / "r.json"
    args = [
        "verify",
        "--strategy", "unidirectional_rubber",
        "--q", "3", "--n", "6", "--t", "1", "--r", "2",
        "--out", str(out),
    ]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


def run_fresh(args, hash_seed):
    """The module entry point in a new process with the given PYTHONHASHSEED;
    a run past the timeout fails the test instead of hanging it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qfeedback.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-m", "qfeedback.cli", *args], capture_output=True, env=env, timeout=60)


def test_curves_end_for_alphabets_past_512(tmp_path):
    # the growth-rate bisection once looped forever from q = 513 on
    out = tmp_path / "c513.csv"
    proc = run_fresh(["curves", "--q", "513", "--step", "0.25", "--out", str(out)], 0)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert len(read_csv(out)) == 5 * 5


@pytest.mark.parametrize(
    "args, code",
    [
        (["verify", "--strategy", "unidirectional_rubber", "--q", "3", "--r", "2", "--n", "7", "--t", "1", "--channel", "uni"], 0),
        (["verify", "--strategy", "modified_rubber", "--q", "3", "--r", "2", "--n", "6", "--t", "1", "--channel", "sym"], 2),
        (["session", "--strategy", "unidirectional_rubber", "--q", "3", "--r", "2", "--n", "7", "--t", "1", "--message", "3"], 0),
    ],
    ids=["verify-success", "verify-counterexample", "session"],
)
def test_reports_are_identical_across_hash_seeds(tmp_path, args, code):
    # directions and phases hash by identity, which differs between processes
    reports = []
    for hash_seed in (0, 4242):
        out = tmp_path / f"report{hash_seed}.json"
        proc = run_fresh(args + ["--out", str(out)] if args[0] == "verify" else args, hash_seed)
        assert (proc.returncode, proc.stderr) == (code, b"")
        reports.append(out.read_bytes() if args[0] == "verify" else proc.stdout)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])


def test_verify_deep_block_does_not_recurse(tmp_path):
    out = tmp_path / "deep.json"
    code = main(["verify", "--strategy", "identity", "--q", "2", "--n", "1200", "--t", "1", "--out", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["nodes"] == 2402
    assert report["counterexample"]["message"] == 1
    assert report["counterexample"]["received"] == [0] * 1200


def test_verify_deep_block_with_memo_does_not_recurse(tmp_path, capsys):
    # modified_rubber declares a memo key, so this runs the memo walk
    out = tmp_path / "deep.json"
    args = ["verify", "--strategy", "modified_rubber", "--q", "3", "--r", "2", "--n", "1500", "--t", "1"]
    assert main(args + ["--budget", "100000", "--out", str(out)]) == 3
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    assert (report["outcome"], report["nodes"]) == ("inconclusive", 100001)


def test_negative_budget_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "neg.json"
    assert main(["verify", "--strategy", "identity", "--q", "2", "--n", "3", "--t", "-1", "--out", str(out)]) == 1
    assert not out.exists()
    args = ["session", "--strategy", "identity", "--q", "2", "--n", "3", "--t", "-1", "--message", "0"]
    assert main(args + ["--adversary", "passive"]) == 1
    assert "nonnegative" in capsys.readouterr().err


def test_missing_r_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = main(
        ["verify", "--strategy", "modified_rubber", "--q", "2", "--n", "6", "--t", "1", "--out", str(out)]
    )
    assert code == 1
    assert "run length must be an integer, got None" in capsys.readouterr().err


def test_zcap_output(capsys):
    assert main(["zcap", "--channel", "z", "--q", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["min_max_output_mass"] == "1/3"
    assert report["alphabet_size"] == 5
    assert abs(report["capacity"] - math.log(3) / math.log(5)) < 1e-12
    mass = min_max_output_mass(make_z_channel(5))
    assert f"{mass.numerator}/{mass.denominator}" == "1/3"


ZCAP_REPORTS = {
    # channel: {q: (min_max_output_mass, capacity, alphabet_size)}
    "z": {5: ("1/3", 0.6826061944859854, 5), 24: ("1/12", 0.7818957080144684, 24)},
    "invz": {5: ("1/3", 0.6826061944859854, 5), 24: ("1/12", 0.7818957080144684, 24)},
    "sym": {5: ("1/1", 0.0, 5), 24: ("1/1", 0.0, 24)},
    "star": {5: ("1/3", 0.6131471927654585, 6), 24: ("1/12", 0.7719796553163858, 25)},
}


def assert_zcap_report_is_pinned(capsys, channel, q):
    mass, capacity, size = ZCAP_REPORTS[channel][q]
    assert main(["zcap", "--channel", channel, "--q", str(q)]) == 0
    report = {"alphabet_size": size, "capacity": capacity, "channel": channel, "min_max_output_mass": mass, "q": q}
    assert capsys.readouterr().out == json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("channel", sorted(ZCAP_REPORTS))
def test_zcap_q5_reports_are_pinned(capsys, channel):
    assert_zcap_report_is_pinned(capsys, channel, 5)


@pytest.mark.parametrize("channel", sorted(ZCAP_REPORTS))
def test_zcap_q24_reports_are_pinned(capsys, channel):
    assert_zcap_report_is_pinned(capsys, channel, 24)


def test_session_trace_output(capsys):
    code = main(
        [
            "session",
            "--strategy", "modified_rubber",
            "--q", "3", "--n", "4", "--t", "1", "--r", "2",
            "--message", "3",
            "--adversary", "path:0,2,2,0",
        ]
    )
    assert code == 0
    trace = json.loads(capsys.readouterr().out)
    assert trace == {
        "x": [1, 2, 2, 0],
        "y": [0, 2, 2, 0],
        "errors": [0],
        "direction": "undecided",
        "decoded": 3,
    }


def test_session_with_a_long_block_decodes(capsys):
    args = ["--strategy", "modified_rubber", "--q", "3", "--r", "2", "--n", "1500", "--t", "1"]
    assert main(["session"] + args + ["--message", "123456789", "--adversary", "passive"]) == 0
    trace = json.loads(capsys.readouterr().out)
    assert len(trace["y"]) == 1500
    assert trace["decoded"] == 123456789


def test_session_decode_failure_exits_two(capsys):
    code = main(
        [
            "session",
            "--strategy", "identity",
            "--q", "2", "--n", "2", "--t", "1",
            "--message", "1",
            "--adversary", "path:0,0",
        ]
    )
    assert code == 2
    assert json.loads(capsys.readouterr().out)["decoded"] == 0


def test_session_rejects_malformed_path(capsys):
    code = main(
        [
            "session",
            "--strategy", "identity",
            "--q", "2", "--n", "3", "--t", "0",
            "--message", "0",
            "--adversary", "path:0,0",
        ]
    )
    assert code == 1


def test_campaign_runs_all_jobs(tmp_path):
    config = tmp_path / "jobs.ini"
    config.write_text(
        f"""
[rubber-check]
kind = verify
strategy = modified_rubber
q = 2
n = 6
t = 1
r = 2
out = {tmp_path}/rubber.json

[capacity-z3]
kind = zcap
channel = z
q = 3
out = {tmp_path}/zcap.json

[curves-q3]
kind = curves
q = 3
step = 0.25
out = {tmp_path}/curves.csv

[one-session]
kind = session
strategy = zero_error
q = 5
n = 3
t = 3
message = 7
adversary = path:3,2,0
out = {tmp_path}/session.json
"""
    )
    assert main(["campaign", "--config", str(config)]) == 0
    assert json.loads((tmp_path / "rubber.json").read_text())["outcome"] == "success"
    assert json.loads((tmp_path / "zcap.json").read_text())["min_max_output_mass"] == "1/2"
    assert (tmp_path / "curves.csv").exists()
    assert json.loads((tmp_path / "session.json").read_text())["decoded"] == 7


def test_campaign_aggregates_worst_outcome(tmp_path):
    config = tmp_path / "jobs.ini"
    config.write_text(
        f"""
[good]
kind = verify
strategy = modified_rubber
q = 2
n = 6
t = 1
r = 2
out = {tmp_path}/good.json

[broken]
kind = verify
strategy = identity
q = 2
n = 2
t = 1
out = {tmp_path}/broken.json
"""
    )
    assert main(["campaign", "--config", str(config)]) == 2


def test_campaign_outputs_are_byte_identical_across_runs(tmp_path):
    config = tmp_path / "jobs.ini"
    config.write_text(
        f"""
[check]
kind = verify
strategy = unidirectional_rubber
q = 3
n = 5
t = 1
r = 2
out = {tmp_path}/check.json

[curves]
kind = curves
q = 2
step = 0.2
out = {tmp_path}/curves.csv
"""
    )
    assert main(["campaign", "--config", str(config)]) == 0
    snapshots = {
        name: (tmp_path / name).read_bytes() for name in ("check.json", "curves.csv")
    }
    assert main(["campaign", "--config", str(config)]) == 0
    for name, blob in snapshots.items():
        assert (tmp_path / name).read_bytes() == blob


def test_campaign_missing_key_is_config_error(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[job]\nkind = verify\nstrategy = identity\nq = 2\n")
    assert main(["campaign", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "config error in [job]" in err
    assert "missing" in err


def test_campaign_bad_later_section_runs_nothing(tmp_path, capsys):
    config = tmp_path / "jobs.ini"
    config.write_text(
        f"""
[a]
kind = curves
q = 3
out = {tmp_path}/a.csv

[b]
kind = verify
strategy = identity
q = two
n = 2
t = 1
out = {tmp_path}/b.json
"""
    )
    assert main(["campaign", "--config", str(config)]) == 1
    assert "config error in [b]" in capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()
    assert not (tmp_path / "b.json").exists()


# (strategy, the flags of a job it accepts, one strategy flag it does not read)
UNREAD_FLAGS = [
    ("zero_error", "--q 3 --n 4 --t 2", "--r 7"),
    ("zero_error", "--q 3 --n 4 --t 2", "--side invz"),
    ("unidirectional_rubber", "--q 3 --r 2 --n 7 --t 1", "--side invz"),
    ("identity", "--q 2 --n 3 --t 1", "--r 2"),
    ("identity", "--q 2 --n 3 --t 1", "--side z"),
]


@pytest.mark.parametrize("kind", ["verify", "session", "campaign"])
@pytest.mark.parametrize(
    "strategy, flags, unread", UNREAD_FLAGS, ids=[f"{strategy}{unread}" for strategy, _, unread in UNREAD_FLAGS]
)
def test_a_flag_the_strategy_does_not_read_is_rejected(tmp_path, capsys, kind, strategy, flags, unread):
    # the report would name neither flag, so accepting one would certify what was not asked
    args = ["--strategy", strategy, *flags.split(), *unread.split()]
    if kind == "verify":
        code = main(["verify", *args, "--out", str(tmp_path / "r.json")])
    elif kind == "session":
        code = main(["session", *args, "--message", "0"])
    else:
        keys = "".join(f"{key[2:]} = {value}\n" for key, value in zip(args[::2], args[1::2]))
        config = tmp_path / "jobs.ini"
        section = f"kind = verify\n{keys}out = {tmp_path}/b.json\n"
        config.write_text(f"[a]\nkind = curves\nq = 3\nout = {tmp_path}/a.csv\n\n[b]\n{section}")
        code = main(["campaign", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 1
    assert f"strategy {strategy} does not read {unread.split()[0]}" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == (["jobs.ini"] if kind == "campaign" else [])


def test_modified_rubber_without_side_is_side_z(tmp_path):
    args = ["verify", "--strategy", "modified_rubber", "--q", "3", "--r", "2", "--n", "6", "--t", "1"]
    assert main(args + ["--out", str(tmp_path / "default.json")]) == 0
    assert main(args + ["--side", "z", "--out", str(tmp_path / "z.json")]) == 0
    assert (tmp_path / "default.json").read_bytes() == (tmp_path / "z.json").read_bytes()
    assert json.loads((tmp_path / "default.json").read_text())["channel"] == "z"


VERIFY_IDENTITY = "kind = verify\nstrategy = identity\nq = 2\nn = 2\nout = {d}/b.json\n"
SESSION_IDENTITY = "kind = session\nstrategy = identity\nq = 2\nt = 1\nout = {d}/b.json\n"


@pytest.mark.parametrize(
    "section",
    [
        pytest.param("kind = verify\nstrategy = modified_rubber\nq = 2\nn = 6\nt = 1\nout = {d}/b.json", id="missing-r"),
        pytest.param(VERIFY_IDENTITY + "t = 3", id="t-above-n"),
        pytest.param(VERIFY_IDENTITY + "t = 1\nbudget = 0", id="budget-0"),
        pytest.param(SESSION_IDENTITY + "n = 3\nmessage = 1\nadversary = path:0,1", id="path-length"),
        pytest.param(SESSION_IDENTITY + "n = 2\nmessage = 4", id="message-range"),
        pytest.param("kind = curves\nq = 1\nout = {d}/b.csv", id="curves-q-1"),
        pytest.param("kind = curves\nq = 3\nstep = 9e-7\nout = {d}/b.csv", id="curves-step-below-floor"),
        pytest.param("kind = zcap\nchannel = z\nq = 1\nout = {d}/b.json", id="zcap-q-1"),
    ],
)
def test_campaign_checks_every_job_before_running_any(tmp_path, capsys, section):
    config = tmp_path / "jobs.ini"
    config.write_text(f"[a]\nkind = curves\nq = 3\nout = {tmp_path}/a.csv\n\n[b]\n" + section.format(d=tmp_path) + "\n")
    assert main(["campaign", "--config", str(config)]) == 1
    assert "config error in [b]" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["jobs.ini"]


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("[a]\nkind = curves\nq = 3\nq = 4\nout = {d}/a.csv\n", id="duplicate-key"),
        pytest.param(
            "[a]\nkind = curves\nq = 3\nout = {d}/a.csv\n\n[a]\nkind = curves\nq = 2\nout = {d}/b.csv\n",
            id="duplicate-section",
        ),
        pytest.param("kind = curves\nq = 3\nout = {d}/a.csv\n", id="missing-header"),
    ],
)
def test_campaign_unparsable_config_is_config_error(tmp_path, capsys, text):
    config = tmp_path / "jobs.ini"
    config.write_text(text.format(d=tmp_path))
    assert main(["campaign", "--config", str(config)]) == 1
    assert "qfeedback: error: config error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["jobs.ini"]


@pytest.mark.parametrize("text", [pytest.param("", id="empty"), pytest.param("[DEFAULT]\nq = 3\n", id="defaults-only")])
def test_campaign_without_jobs_is_config_error(tmp_path, capsys, text):
    config = tmp_path / "jobs.ini"
    config.write_text(text)
    assert main(["campaign", "--config", str(config)]) == 1
    assert "no job sections" in capsys.readouterr().err


@pytest.mark.parametrize(
    "first,second",
    [
        pytest.param(
            "kind = curves\nq = 3\nout = {d}/same.csv", "kind = curves\nq = 2\nout = {d}/sub/../same.csv", id="same-out"
        ),
        pytest.param(
            "kind = verify\nstrategy = identity\nq = 2\nn = 2\nt = 0\nout = {d}/r.json",
            "kind = curves\nq = 2\nout = {d}/r.json.log",
            id="verify-sidecar",
        ),
    ],
)
def test_campaign_jobs_must_not_share_an_output(tmp_path, capsys, first, second):
    config = tmp_path / "jobs.ini"
    config.write_text(f"[a]\n{first}\n\n[b]\n{second}\n".format(d=tmp_path))
    assert main(["campaign", "--config", str(config)]) == 1
    assert "config error in [b]" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["jobs.ini"]


def test_campaign_values_are_literal(tmp_path):
    config = tmp_path / "jobs.ini"
    config.write_text(f"[a]\nkind = curves\nq = 3\nstep = 0.25\nout = {tmp_path}/o/100%.csv\n")
    assert main(["campaign", "--config", str(config)]) == 0
    assert (tmp_path / "o" / "100%.csv").read_text().startswith("tau,value,curve\n")


def test_campaign_unknown_key_is_config_error(tmp_path, capsys):
    config = tmp_path / "jobs.ini"
    config.write_text(f"[job]\nkind = curves\nq = 3\nworkers = 2\nout = {tmp_path}/c.csv\n")
    assert main(["campaign", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "config error in [job]" in err
    assert "workers" in err
    assert not (tmp_path / "c.csv").exists()


def test_campaign_keys_must_match_flags_exactly(tmp_path):
    config = tmp_path / "jobs.ini"
    # "ste" would abbreviate --step on the command line
    config.write_text(f"[job]\nkind = curves\nq = 3\nste = 0.5\nout = {tmp_path}/c.csv\n")
    assert main(["campaign", "--config", str(config)]) == 1
    assert not (tmp_path / "c.csv").exists()


def test_campaign_printing_kinds_need_out(tmp_path, capsys):
    config = tmp_path / "jobs.ini"
    config.write_text("[job]\nkind = zcap\nchannel = z\nq = 3\n")
    assert main(["campaign", "--config", str(config)]) == 1
    assert "config error in [job]: missing 'out'" in capsys.readouterr().err


def test_campaign_session_defaults_to_greedy_adversary(tmp_path, capsys):
    args = ["--strategy", "identity", "--q", "2", "--n", "2", "--t", "1", "--message", "1"]
    assert main(["session"] + args) == 2
    printed = capsys.readouterr().out
    config = tmp_path / "jobs.ini"
    config.write_text(
        f"[s]\nkind = session\nstrategy = identity\nq = 2\nn = 2\nt = 1\nmessage = 1\nout = {tmp_path}/s.json\n"
    )
    assert main(["campaign", "--config", str(config)]) == 2
    assert (tmp_path / "s.json").read_text() == printed
    assert capsys.readouterr().out == ""


def test_campaign_unknown_kind_is_config_error(tmp_path):
    config = tmp_path / "bad.ini"
    config.write_text("[job]\nkind = dance\n")
    assert main(["campaign", "--config", str(config)]) == 1


def test_campaign_missing_file_is_config_error(tmp_path):
    assert main(["campaign", "--config", str(tmp_path / "absent.ini")]) == 1


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as info:
        main(["verify", "--strategy", "no_such_thing", "--q", "2", "--n", "2", "--t", "0", "--out", "x.json"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 1


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qfeedback.cli", "zcap", "--channel", "z", "--q", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["min_max_output_mass"] == "1/1"
