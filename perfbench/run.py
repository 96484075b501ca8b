"""Benchmark of the ``longtail`` toolkit; run from the root of a checkout.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 35 --trace 0

Workloads are defined in ``workloads.py``. A run generates the workload's
inputs from ``--seed``, then runs passes, each in a fresh child process
(``child.py``), until ``--seconds`` have been spent, and checks every
pass's output. Fresh interpreters importing ``longtail.cli`` are timed four
times at the start and twice before every pass. The last line of standard
output is one JSON object:

* ``--trace 0``: the end-to-end metrics, ``setup_s`` (the fastest import)
  and ``peak_rss_mb`` (median over passes of the child's peak RSS). On a
  shared 2-vCPU VM, CPU speed drops by 1.3-1.7x for seconds to a minute at
  a time: the median import time moved by 25% between two sets of ten runs,
  while a 0.2 s launch still meets a quiet moment in nearly every run. The
  pass wall time is printed on standard error but is not a metric, because
  no per-run estimate of it repeated within a tenth (see README.md).
* ``--trace 1``: per-layer metrics. Untraced and traced passes alternate;
  spans and counters come from the fastest traced pass, and the counters of
  every traced pass must repeat exactly. ``untraced_wall_s`` is the
  fastest untraced pass.

Exit status is 2, with no result printed, when the checkout holds no
``src/longtail`` package.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import SITES
from workloads import ANALYZE_KINDS, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_LAUNCHES = 4  # at the start; two more before every pass
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150


def time_import(src: Path) -> float:
    """Wall time for a fresh interpreter to finish ``import longtail.cli``."""
    t0 = time.perf_counter()
    # no timeout: with one, subprocess polls for the exit in steps of up to
    # 50 ms, which rounds this time up to the next step
    subprocess.run(
        [sys.executable, "-c", "import longtail.cli"],
        env=dict(os.environ, PYTHONPATH=str(src)), check=True,
    )
    return time.perf_counter() - t0


def run_pass(src: Path, work: Path, calls: list[list[str]], trace: bool) -> dict:
    """Run one pass in a fresh child process and return its result record."""
    plan, result = work / "plan.json", work / "result.json"
    plan.write_text(json.dumps({"src": str(src), "calls": calls, "trace": trace}))
    result.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(plan), str(result)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child failed with exit {proc.returncode}:\n{proc.stderr}")
    return json.loads(result.read_text())


def layer_metrics(result: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, plus its exact counts."""
    trace = result["trace"]
    names = np.asarray(trace["span_name"], dtype=np.int64)
    parent = np.asarray(trace["parent"], dtype=np.int64)
    duration = np.asarray(trace["end"]) - np.asarray(trace["start"])
    has_parent = parent >= 0
    self_s = duration - np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    calls = np.bincount(names, minlength=len(trace["names"]))
    self_by = np.bincount(names, weights=self_s, minlength=len(trace["names"]))
    by_name = {n: (int(calls[i]), float(self_by[i])) for i, n in enumerate(trace["names"])}

    metrics = {}
    for layer in SITES:
        n, s = by_name[layer]
        metrics[f"{layer}.calls"] = (n, "count")
        metrics[f"{layer}.self_s"] = (s, "s")
    for layer in ("model.step", "model.rank_top"):
        n, s = by_name[layer]
        metrics[f"{layer}.us_per_call"] = (s / n * 1e6 if n else 0.0, "us")

    counts = trace["counts"]
    (step_calls, step_s), step = by_name["model.step"], counts["model.step"]
    draws = step["agent_draws"]
    metrics["model.step.agent_draws"] = (draws, "count")
    metrics["model.step.products_created"] = (step["products_created"], "count")
    metrics["model.step.ns_per_draw"] = (step_s / draws * 1e9 if draws else 0.0, "ns")
    metrics["model.step.live_products_mean"] = (step["live_products"] / step_calls if step_calls else 0.0, "count")
    metrics["analysis.turnover.periods"] = (counts["analysis.turnover"]["periods"], "count")
    metrics["analysis.fit_alpha.samples"] = (counts["analysis.fit_alpha"]["samples"], "count")
    metrics["chartdata.load_chart.rows"] = (counts["chartdata.load_chart"]["rows"], "count")

    bytes_read, bytes_written = cli_bytes(result)
    metrics["cli.bytes_read"] = (bytes_read, "count")
    metrics["cli.bytes_written"] = (bytes_written, "count")
    metrics["traced_wall_s"] = (result["wall_s"], "s")
    metrics["unattributed_s"] = (result["wall_s"] - float(self_s.sum()), "s")
    metrics["tracing.counter_errors"] = (trace["counter_errors"], "count")

    exact = {name: value for name, (value, unit) in metrics.items() if unit == "count"}
    return metrics, exact


def cli_bytes(result: dict) -> tuple[int, int]:
    """Bytes the pass's cli calls read (--input files) and wrote (stdout and data files)."""
    read = written = 0
    out_dirs = set()
    for argv, call in zip(result["argv"], result["calls"]):
        written += len(call["stdout"].encode())
        for flag, value in zip(argv, argv[1:]):
            if flag == "--input":
                read += Path(value).stat().st_size
            elif flag == "--out-dir":
                out_dirs.add(Path(value))
    for out_dir in out_dirs:
        # manifest.json holds a wall-clock duration, so its size varies
        written += sum(p.stat().st_size for p in out_dir.iterdir() if p.name != "manifest.json")
    return read, written


def call_latencies(passes: list[dict]) -> dict:
    """p50/p90 per-call latency of the fit, turnover and optimize calls, in ms.

    A kind with fewer than 100 calls in the run (all of them, outside
    ``analyze``) reports 0.
    """
    metrics = {}
    for kind in ANALYZE_KINDS:
        ms = [c["seconds"] * 1e3 for p in passes for argv, c in zip(p["argv"], p["calls"]) if argv[0] == kind]
        p50, p90 = (statistics.median(ms), statistics.quantiles(ms, n=10)[-1]) if len(ms) >= 100 else (0.0, 0.0)
        metrics[f"{kind}_p50_ms"] = (p50, "ms")
        metrics[f"{kind}_p90_ms"] = (p90, "ms")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "longtail" / "cli.py").is_file():
        print(f"error: {src / 'longtail'} not found; run from the root of a longtail checkout", file=sys.stderr)
        return 2

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup_times = [time_import(src) for _ in range(SETUP_LAUNCHES)]
        workload = WORKLOADS[args.workload](args.seed, work)
        calls = workload.calls()

        started = time.perf_counter()
        untraced, traced, costs = [], [], []
        attempted = failed = 0
        while True:
            elapsed = time.perf_counter() - started
            enough = len(untraced) >= (1 if args.trace else MIN_PASSES) and len(traced) >= (2 if args.trace else 0)
            if enough and elapsed + statistics.median(costs) > args.seconds:
                break
            trace = bool(args.trace) and len(traced) < len(untraced)
            t0 = time.perf_counter()
            setup_times += [time_import(src), time_import(src)]
            shutil.rmtree(workload.out_dir, ignore_errors=True)
            result = run_pass(src, work, calls, trace)
            result["argv"] = calls
            errors = workload.check(result["calls"])
            attempted += len(calls)
            failed += len(errors)
            for message in errors[:5]:
                print(f"check failed: {message}", file=sys.stderr)
            if trace:
                result["metrics"], result["exact"] = layer_metrics(result)
                result["trace"] = None
            (traced if trace else untraced).append(result)
            costs.append(time.perf_counter() - t0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wall_s = min(r["wall_s"] for r in untraced)
    if args.trace:
        representative = min(traced, key=lambda r: r["wall_s"])
        metrics = dict(representative["metrics"])
        metrics["untraced_wall_s"] = (wall_s, "s")
        metrics["tracing_overhead_s"] = (representative["wall_s"] - wall_s, "s")
        metrics["agent_steps_per_s"] = (workload.agent_steps / wall_s, "1/s")
        metrics.update(call_latencies(untraced))
        for other in traced:
            if other["exact"] != representative["exact"]:
                failed += 1
                print("check failed: traced counts differ between two passes at the same seed", file=sys.stderr)
    else:
        metrics = {
            "setup_s": (min(setup_times), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_kb"] / 1024 for r in untraced), "MB"),
        }

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>14}  {name:<40} {value:>16.6g} {unit}")
    print(f"{args.workload:>14}  {'failed_frac':<40} {failed / attempted:>16.6g}")
    print(
        f"{args.workload}: {len(untraced) + len(traced)} passes, fastest untraced {wall_s:.4f} s; "
        "pass walls " + " ".join(f"{r['wall_s']:.3f}" for r in untraced + traced),
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
