"""qfeedback benchmark: one workload per process, one thread, stdlib only.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify_rubber --seed 1 --seconds 10 --trace 0

The program is imported from ./src; nothing is installed or built.  With
--trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of one traced pass.  The line before it
holds the run's detail: provenance (CPU, nproc, Python, source hash, git
sha when there is one), every raw sample and, when traced, the span table.
Exit code 0 means every op matched its golden; 1 means some op failed;
2 means the checkout holds no qfeedback sources.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Fresh processes whose median set-up time is reported as setup_s.
SETUP_PROBES = 11
# A median needs at least three timed passes, however short --seconds is.
MIN_PASSES = 3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "src_sha256": _source_sha256(),
        "seed": seed,
    }


def setup_time(name: str) -> float:
    """One fresh process's set-up time for the workload, in seconds."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), name],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure(name: str, seed: int, seconds: float, trace: bool, tmpdir: str, sizes=None, goldens=None, probes=SETUP_PROBES):
    """Run one workload; return (result line, detail line) as dicts.

    sizes and goldens default to the full job sizes and goldens.json; the
    benchmark's tests pass tiny ones.
    """
    import workloads

    sizes = sizes or workloads.FULL
    goldens = goldens if goldens is not None else workloads.load_goldens()
    state = workloads.setup(name, seed, sizes)
    outcomes, played = workloads.run_pass(state, tmpdir, goldens, "warm")
    attempted = sum(o.ops for o in outcomes)
    failed = sum(o.ops for o in outcomes if not o.ok)

    walls, latencies_ms, setup_samples = [], [], []
    begin = time.perf_counter()
    # Stop at the pass boundary nearest to the deadline.  Set-up probes run
    # between passes, spread over the run, so their median sees the same
    # drift in machine speed as the passes do.
    while len(walls) < MIN_PASSES or time.perf_counter() - begin + statistics.median(walls) / 2 < seconds:
        share = min(1.0, (time.perf_counter() - begin) / seconds) if seconds > 0 else 1.0
        while not trace and len(setup_samples) < probes * share:
            setup_samples.append(setup_time(name))
        started = time.perf_counter()
        outcomes, _ = workloads.run_pass(state, tmpdir, goldens, f"timed{len(walls)}")
        walls.append(time.perf_counter() - started)
        for o in outcomes:
            attempted += o.ops
            failed += 0 if o.ok else o.ops
            latencies_ms += [o.seconds * 1e3 / o.ops] * o.ops
    while not trace and len(setup_samples) < probes:
        setup_samples.append(setup_time(name))
    # replay audit of the warm-up pass's sessions, outside the timed region
    failed += workloads.replay_failures(played)

    wall_s = statistics.median(walls)
    ops_per_pass = sum(o.ops for o in outcomes)
    detail = {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(seed),
        "timed_passes": len(walls),
        "wall_s_samples": walls,
        "ops_per_pass": ops_per_pass,
    }
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            started = time.perf_counter()
            outcomes, _ = workloads.run_pass(state, tmpdir, goldens, "traced", wrap_strategy=tracer.wrap_strategy)
            traced_wall = time.perf_counter() - started
        finally:
            tracer.unpatch()
        attempted += sum(o.ops for o in outcomes)
        failed += sum(o.ops for o in outcomes if not o.ok)
        metrics = tracer.metrics(traced_wall, wall_s)
        detail["spans"] = tracer.spans()
    else:
        p90 = statistics.quantiles(latencies_ms, n=10, method="inclusive")[8]
        detail["setup_s_samples"] = setup_samples
        detail["op_latency_samples"] = len(latencies_ms)
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (wall_s, "s"),
            "ops_per_s": (ops_per_pass / wall_s, "1/s"),
            "op_p50_ms": (statistics.median(latencies_ms), "ms"),
            "op_p90_ms": (p90, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    detail["attempted"], detail["failed"] = attempted, failed
    detail["error_rate"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return result, detail


@contextlib.contextmanager
def scratch_dir():
    """A temporary directory for CLI outputs inside the checkout, removed after."""
    parent = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(parent, exist_ok=True)
    path = tempfile.mkdtemp(dir=parent)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(parent)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify_rubber", "verify_uni", "sessions_long", "bounds_grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qfeedback", "__init__.py")):
        print(f"perfbench: no qfeedback sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import qfeedback

    if os.path.dirname(os.path.dirname(os.path.abspath(qfeedback.__file__))) != SRC:
        print(f"perfbench: qfeedback was imported from {qfeedback.__file__}, not {SRC}", file=sys.stderr)
        return 2

    with scratch_dir() as tmpdir:
        result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmpdir)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
