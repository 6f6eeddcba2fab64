"""satfactor's benchmark: one seeded workload per run, closed loop, one process.

    python3 perfbench/run.py --workload bench-sat18 --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/``; the
run exits with status 2, printing no result, when it is not there.

A run generates its inputs from ``--seed``, then runs tasks one after the
other (whole rounds of task kinds) until ``--seconds`` have passed and at
least the fixed campaign -- the first CAMPAIGN_TASKS tasks -- is done.
Every task's output is checked against the benchmark's own ground truth;
a task that raises or fails a check counts as failed and as +inf in the
percentiles.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
campaign once untraced and once traced and reports the per-layer metrics,
including the tracing overhead.  Either way the last line of stdout is one
JSON object; a fuller result, with provenance and the exact counters, and
in traced runs the spans, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# The campaign behind wall_s, and the smallest sample behind task_s.p75:
# 40 tasks leave 10 beyond the 75th percentile.
CAMPAIGN_TASKS = 40
# Inputs generated per run; a run stops early if a machine gets through
# them all before --seconds.
POOL_TASKS = 360
SETUP_SAMPLES = 5


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup(workload_name: str, seed: int, tracer_enabled: bool):
    """Import the program and generate this run's inputs; time both."""
    start = time.perf_counter()
    import workloads

    import satfactor

    if not Path(satfactor.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"perfbench: imported satfactor from {satfactor.__file__}, not from src/")
    if workload_name not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {workload_name!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[workload_name]
    tracer = Tracer(tracer_enabled, workloads.COUNTERS)
    n_tasks = math.ceil(POOL_TASKS / workload.round_size) * workload.round_size
    inputs = workload.make_inputs(tracer, seed, n_tasks)
    return time.perf_counter() - start, workload, tracer, inputs


def _setup_sample(args) -> float:
    """Set-up time of a fresh process, as measured by that process."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def _campaign_size(workload) -> int:
    return math.ceil(CAMPAIGN_TASKS / workload.round_size) * workload.round_size


def _run_task(workload, tracer, i: int, task, workdir: Path) -> tuple[float, str | None]:
    """Time one task's program calls, then check its output."""
    tracer.task = i
    t0 = time.perf_counter()
    try:
        out = workload.run(tracer, task, workdir)
        elapsed = time.perf_counter() - t0
        workload.check(task, out)
    except Exception:  # a failed task is recorded, and the run goes on
        return math.inf, f"task {i}: {traceback.format_exc(limit=3)}"
    finally:
        tracer.task = None
    return elapsed, None


def _run_pass(workload, tracer, inputs, seconds: float, workdir: Path) -> tuple[list, list]:
    """Run whole rounds until the campaign is done and `seconds` have passed."""
    times: list[float] = []
    failures: list[str] = []
    start = time.perf_counter()
    for i, task in enumerate(inputs):
        elapsed, failure = _run_task(workload, tracer, i, task, workdir)
        times.append(elapsed)
        failures += [failure] if failure else []
        round_done = (i + 1) % workload.round_size == 0
        if round_done and len(times) >= _campaign_size(workload) and time.perf_counter() - start >= seconds:
            break
    return times, failures


def _run_paired(workload, tracer, inputs, workdir: Path) -> tuple[list, list, list]:
    """Run each campaign task untraced and traced, back to back.

    Pairing keeps the machine's drift out of the tracing overhead; the
    order alternates so neither side always runs on warm caches.
    """
    plain: list[float] = []
    traced: list[float] = []
    failures: list[str] = []
    untraced = Tracer(False)
    for i, task in enumerate(inputs[: _campaign_size(workload)]):
        sides = [(untraced, plain), (tracer, traced)]
        for side_tracer, times in sides if i % 2 == 0 else sides[::-1]:
            elapsed, failure = _run_task(workload, side_tracer, i, task, workdir)
            times.append(elapsed)
            failures += [failure] if failure else []
    return plain, traced, failures


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile as statistics.quantiles gives it; +inf once failed
    tasks (+inf) reach it."""
    cut = statistics.quantiles(values, n=100)[q - 1]
    return math.inf if math.isnan(cut) else cut


def _end_to_end(times: list[float], campaign: int, setup_s: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(times[:campaign]), "s"),
        "tasks_per_s": (len(times) / sum(times), "1/s"),
        "task_s.p50": (_percentile(times, 50), "s"),
        "task_s.p75": (_percentile(times, 75), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _provenance(args) -> dict:
    rev = "unknown"  # an exported source tree has no git metadata
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_rev": rev,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "satfactor" / "__init__.py").is_file():
        print(f"perfbench: no satfactor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    setup_s, workload, tracer, inputs = _setup(args.workload, args.seed, args.trace == 1)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workdir = OUT_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    if args.trace:
        plain, traced, failures = _run_paired(workload, tracer, inputs, workdir)
        metrics = layer_metrics(tracer.spans, sum(traced) - sum(plain))
        attempted = len(plain) + len(traced)
        counters = {name: value for name, (value, unit) in metrics.items() if unit == "count"}
        summary = {"untraced_wall_s": sum(plain), "traced_wall_s": sum(traced)}
    else:
        samples = [setup_s] + [_setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        times, failures = _run_pass(workload, tracer, inputs, args.seconds, workdir)
        metrics = _end_to_end(times, _campaign_size(workload), statistics.median(samples))
        attempted = len(times)
        counters = {}
        summary = {"setup_samples_s": samples, "task_times_s": times}
    for path in workdir.iterdir():
        path.unlink()
    workdir.rmdir()

    fail_ratio = len(failures) / attempted
    report = {
        "provenance": _provenance(args),
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": fail_ratio,
        "failures": failures,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "counters": counters,
        **summary,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "results" / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        (OUT_DIR / "spans").mkdir(parents=True, exist_ok=True)
        (OUT_DIR / "spans" / f"{stem}.json").write_text(json.dumps(tracer.spans) + "\n")

    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} tasks")
    for name, (value, unit) in metrics.items():
        shown = f"{value:14d}" if unit == "count" else f"{value:14.6g}"
        print(f"  {name:34s} {shown} {unit}")
    print(f"  {'fail_ratio':34s} {fail_ratio:14.6g} ratio")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
