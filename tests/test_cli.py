"""End-to-end checks of the command line frontend.

Most tests drive main() in process; one subprocess test covers the module
entry point itself.
"""

import json
import math
import subprocess
import sys

import pytest

from qfeedback.bounds import lower_envelope, min_max_output_mass
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


def test_curves_rejects_bad_step(tmp_path):
    out = tmp_path / "never.csv"
    assert main(["curves", "--q", "2", "--step", "0.7", "--out", str(out)]) == 1
    assert not out.exists()


def test_curves_rejects_alphabet_below_two(tmp_path, capsys):
    out = tmp_path / "q1.csv"
    assert main(["curves", "--q", "1", "--out", str(out)]) == 1
    assert not out.exists()
    assert "alphabet size" in capsys.readouterr().err


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


def test_verify_deep_block_does_not_recurse(tmp_path):
    out = tmp_path / "deep.json"
    code = main(["verify", "--strategy", "identity", "--q", "2", "--n", "1200", "--t", "1", "--out", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["nodes"] == 2402
    assert report["counterexample"]["message"] == 1
    assert report["counterexample"]["received"] == [0] * 1200


def test_negative_budget_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "neg.json"
    assert main(["verify", "--strategy", "identity", "--q", "2", "--n", "3", "--t", "-1", "--out", str(out)]) == 1
    assert not out.exists()
    args = ["session", "--strategy", "identity", "--q", "2", "--n", "3", "--t", "-1", "--message", "0"]
    assert main(args + ["--adversary", "passive"]) == 1
    assert "nonnegative" in capsys.readouterr().err


def test_missing_r_is_a_usage_error(tmp_path):
    out = tmp_path / "x.json"
    code = main(
        ["verify", "--strategy", "modified_rubber", "--q", "2", "--n", "6", "--t", "1", "--out", str(out)]
    )
    assert code == 1


def test_zcap_output(capsys):
    assert main(["zcap", "--channel", "z", "--q", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["min_max_output_mass"] == "1/3"
    assert report["alphabet_size"] == 5
    assert abs(report["capacity"] - math.log(3) / math.log(5)) < 1e-12
    mass = min_max_output_mass(make_z_channel(5))
    assert f"{mass.numerator}/{mass.denominator}" == "1/3"


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
