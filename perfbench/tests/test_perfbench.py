"""The benchmark's own checks, at tiny job sizes.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


@pytest.fixture(scope="module")
def goldens(tmp_path_factory):
    return workloads.observe_goldens(workloads.TINY, str(tmp_path_factory.mktemp("goldens")))


def measure(name, trace, goldens, tmp_path, seed=3):
    return run.measure(name, seed, 0.0, trace, str(tmp_path), sizes=workloads.TINY, goldens=goldens, probes=2)


def units(result):
    return {key: metric["unit"] for key, metric in result["metrics"].items()}


def test_spec_names_the_workloads_the_benchmark_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(name, goldens, tmp_path):
    result, detail = measure(name, False, goldens, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert set(detail["provenance"]) >= {"cpu", "nproc", "python", "git_sha", "src_sha256", "seed"}
    assert detail["error_rate"] == 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_yields_every_per_layer_metric(name, goldens, tmp_path):
    result, detail = measure(name, True, goldens, tmp_path)
    assert result["correct"]
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace.overhead"]["value"] > 0
    assert detail["spans"]


def test_traced_counts_match_the_goldens_and_repeat(goldens, tmp_path):
    first, _ = measure("verify_rubber", True, goldens, tmp_path)
    again, _ = measure("verify_rubber", True, goldens, tmp_path)
    counts = {k: m["value"] for k, m in first["metrics"].items() if m["unit"] == "count"}
    assert counts == {k: m["value"] for k, m in again["metrics"].items() if m["unit"] == "count"}
    assert counts["verifier.nodes"] == sum(job["nodes"] for job in goldens["verify_rubber"].values())
    assert counts["verifier.leaves"] == counts["strategies.decode.calls"] > 0
    assert counts["codebook.rank.calls"] > 0


def test_traced_session_counts_repeat_for_a_seed(goldens, tmp_path):
    first, _ = measure("sessions_long", True, goldens, tmp_path, seed=7)
    again, _ = measure("sessions_long", True, goldens, tmp_path, seed=7)
    counts = {k: m["value"] for k, m in first["metrics"].items() if m["unit"] == "count"}
    assert counts == {k: m["value"] for k, m in again["metrics"].items() if m["unit"] == "count"}
    per_pass = workloads.TINY["sessions_long"]
    steps = sum(per_pass["schemes"][i % 2]["n"] for i in range(per_pass["sessions_per_pass"]))
    assert counts["strategies.encode_step.calls"] == steps
    assert counts["verifier.nodes"] == 0


def test_a_wrong_golden_is_a_failed_op_and_a_nonzero_exit(goldens, tmp_path, monkeypatch, capsys):
    wrong = copy.deepcopy(goldens)
    wrong["verify_rubber"]["identity_z"]["counterexample"]["message"] += 1
    result, detail = measure("verify_rubber", False, wrong, tmp_path)
    assert not result["correct"] and result["failed"] > 0 and detail["error_rate"] > 0

    measure_full = run.measure
    monkeypatch.setattr(
        run, "measure",
        lambda *args: measure_full(*args, sizes=workloads.TINY, goldens=wrong, probes=1),
    )
    assert run.main(["--workload", "verify_rubber", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == result["failed"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable] + SPEC["command"][1:] + ["--workload", "verify_rubber", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
