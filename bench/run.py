"""Benchmark for structrec: four workloads, end-to-end and per-layer figures.

    python3 bench/run.py                                   # all four workloads
    python3 bench/run.py --workload replay --seed 3 --seconds 10
    python3 bench/run.py --trace 1                         # per-layer figures

Each workload runs in a fresh interpreter (bench/worker.py), single-threaded,
on inputs made from --seed.  The last line printed is one JSON object with
the keys correct, attempted, failed and metrics.  Untraced, the metrics are
the end-to-end ones; traced (--trace 1), they are the per-layer ones of every
workload, since each per-layer metric is defined on the workload that drives
its layer.  Exits non-zero without a result when structrec's sources are not
next to this directory or a workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("gen", "score", "replay", "shortcut")
IMPORT_PROBES = 15
CHILD_TIMEOUT_S = 170

# one import of structrec in a fresh interpreter, scaled to the usual speed
# by the reference samples taken while it runs; the sources must be ours
PROBE = """\
import sys
sys.path.insert(0, sys.argv[2])
import speed
for _ in range(3):
    speed.sample()
sys.path.insert(0, sys.argv[1])
with speed.Sampler() as sampler:
    module, seconds, t0, t1 = sampler.timed(lambda: __import__("structrec"))
if not module.__file__.startswith(sys.argv[1]):
    sys.exit("structrec imported from " + module.__file__)
print(seconds * sampler.scale(t0, t1))
"""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    return env


def import_seconds() -> float:
    """Median import time of structrec over fresh interpreters; the first
    launch, which may write bytecode caches, is not counted."""
    times = []
    for i in range(IMPORT_PROBES + 1):
        proc = subprocess.run([sys.executable, "-s", "-c", PROBE, str(SRC), str(HERE)],
                              capture_output=True, text=True, env=child_env(),
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
        if i:
            times.append(float(proc.stdout))
    return statistics.median(times)


def run_worker(workload: str, seed: int, seconds: int, trace: int) -> dict:
    work = WORK / f"{workload}-{os.getpid()}"
    try:
        proc = subprocess.run(
            [sys.executable, "-s", str(HERE / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--work", str(work)],
            capture_output=True, text=True, env=child_env(), timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    return json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: int):
    imported = import_seconds()
    res = run_worker(workload, seed, seconds, 0)
    metrics = {
        "items_per_s": metric(res["items_per_s"], "1/s"),
        "setup_s": metric(imported + res["load_s"], "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        "call_p50_ms": metric(res["call_p50_ms"], "ms"),
        "call_p99_ms": metric(res["call_p99_ms"], "ms"),
    }
    print(f"== {workload}: seed {seed}, {res['rounds']} rounds, "
          f"attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
    for name, m in metrics.items():
        print(f"  {name:<12} {m['value']:12.4f} {m['unit']}")
    print(f"  setup_s = import {imported:.4f} s (median of {IMPORT_PROBES} launches) "
          f"+ load {res['load_s']:.4f} s; {res['calls']} timed calls; "
          f"raw items_per_s {res['raw_items_per_s']:.1f} before scaling to the usual speed")
    for name, digest in sorted(res.get("digests", {}).items()):
        print(f"  sha256 {digest}  {name}")
    for note in res["notes"]:
        print(f"  FAILED: {note}")
    return res, metrics


def traced(workload: str, seed: int, seconds: int):
    res = run_worker(workload, seed, seconds, 1)
    overhead = 1 - res["traced_items_per_s"] / res["items_per_s"]
    print(f"== {workload} traced: seed {seed}, {res['rounds']} rounds, {res['spans']} spans "
          f"in {res['span_file']}")
    print(f"  items_per_s untraced {res['items_per_s']:.1f}, traced "
          f"{res['traced_items_per_s']:.1f}: overhead {overhead:.1%}")
    for name, fig in res["layers"].items():
        print(f"  {name:<40} {fig['value']:12.3f} {fig['unit']:<3} "
              f"over {fig['calls']} calls ({'per item' if fig['per'] == 'unit' else 'per call'})")
    for note in res["notes"]:
        print(f"  FAILED: {note}")
    metrics = {name: metric(fig["value"], fig["unit"]) for name, fig in res["layers"].items()}
    return res, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10,
                        help="sets the number of rounds (the work is fixed, never clock-driven)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "structrec" / "__init__.py").is_file():
        print(f"error: no structrec sources under {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        chosen = WORKLOADS
    else:
        chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in chosen:
            run = traced if args.trace else end_to_end
            results[workload] = run(workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(chosen) == 1:
        metrics = results[chosen[0]][1]
    elif args.trace:
        metrics = {name: m for _, ms in results.values() for name, m in ms.items()}
    else:
        metrics = {f"{w}.{name}": m for w, (_, ms) in results.items() for name, m in ms.items()}
    print(json.dumps({
        "correct": all(res["correct"] for res, _ in results.values()),
        "attempted": sum(res["attempted"] for res, _ in results.values()),
        "failed": sum(res["failed"] for res, _ in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
