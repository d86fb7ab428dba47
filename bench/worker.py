"""Run one workload in this interpreter and print its figures as one JSON line.

Started by run.py in a fresh interpreter per workload:

    python3 bench/worker.py --workload replay --seed 1 --seconds 10 --trace 0 --work DIR

Every timed call is scaled to the machine's usual speed by the reference
samples taken while it runs (see speed.py).  Untraced, every round runs
plain.  Traced, odd rounds run with spans around the calls into each layer
and even rounds run plain, so the two rates give the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import speed  # noqa: E402
import structrec  # noqa: E402
import workloads  # noqa: E402
from spans import Spans  # noqa: E402


def rounds_for(workload, seconds: int, traced: bool) -> int:
    """A fixed number of rounds, from --seconds and the workload's rate on
    the reference machine, so that the work never depends on the clock.  A
    traced run makes about half as many, alternately plain and traced."""
    rounds = max(1, round(seconds * workload.rounds_per_s))
    return 2 * max(2, rounds // 4) if traced else rounds


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between samples (never beyond the
    largest one, however few there are)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def guarded(call):
    """call() or, when it raises, its traceback as an output."""
    try:
        return call()
    except Exception:
        return workloads.Raised(traceback.format_exc())


def timed_round(calls, spans=None):
    """Run the calls in order; returns their outputs, their times at the
    usual speed and their raw total time."""
    outputs, windows = [], []
    with speed.Sampler() as sampler:
        if spans is not None:
            spans.clock = sampler.clock
        for i, call in enumerate(calls):
            if spans is not None:
                spans.item_id = i
            out, seconds, t0, t1 = sampler.timed(lambda: guarded(call))
            outputs.append(out)
            windows.append((seconds, t0, t1))
    durations = [seconds * sampler.scale(t0, t1) for seconds, t0, t1 in windows]
    return outputs, durations, sum(w[0] for w in windows)


def layer_figures(workload, spans, factor: float = 1.0) -> dict:
    """Per-layer metric values and the call counts they average over; factor
    scales span seconds to the usual speed."""
    classes = getattr(workload, "item_class", None)
    summaries = {}
    figures = {}
    for metric, unit, names, per, self_time, cls in workload.layer_metrics:
        if cls not in summaries:
            keep = None if cls is None else (lambda item, c=cls: item >= 0 and classes[item] == c)
            summaries[cls] = spans.summary(keep)
        rows = [summaries[cls][n] for n in names if n in summaries[cls]]
        calls = sum(r["calls"] for r in rows)
        seconds = sum(r["self" if self_time else "total"] for r in rows)
        divisor = sum(r["units" if per == "unit" else "calls"] for r in rows)
        scale = factor * (1e6 if unit == "us" else 1e3)
        figures[f"{workload.name}.{metric}"] = {
            "value": seconds / divisor * scale if divisor else 0.0,
            "unit": unit, "calls": calls, "per": per}
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True, help="directory for inputs and outputs")
    args = parser.parse_args(argv)
    if not Path(structrec.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"structrec was imported from {structrec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    workload.prepare()
    traced = bool(args.trace)
    spans = Spans() if traced else None

    # set-up: the program's own readers, median of repeated loads
    loads = []
    for _ in range(1 if traced else workload.load_repeats):
        if traced:
            spans.install(workload.targets(spans))
        gc.collect()
        with speed.Sampler() as sampler:
            if traced:
                spans.clock = sampler.clock
            _, seconds, t0, t1 = sampler.timed(workload.load)
        loads.append(seconds * sampler.scale(t0, t1))
        if traced:
            spans.uninstall()
    setup_check = workload.check_records() if hasattr(workload, "check_records") else None

    rounds = rounds_for(workload, args.seconds, traced)
    failed, wrong, notes = 0, False, []
    rates = {False: [], True: []}
    raw_rates = []
    call_times = []
    traced_scale = []  # (raw, at usual speed) seconds of the traced rounds
    for r in range(rounds):
        traced_round = traced and r % 2 == 1
        if traced_round:
            spans.install(workload.targets(spans))
        gc.collect()
        outputs, times, raw = timed_round(workload.calls(), spans)
        if traced_round:
            spans.uninstall()
            traced_scale.append((raw, sum(times)))
        rates[traced_round].append(workload.items_per_round / sum(times))
        if not traced_round:
            raw_rates.append(workload.items_per_round / raw)
            call_times.extend(times)
        try:
            result = workload.check(outputs)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            result = workloads.RoundResult()
            result.fail(workload.items_per_round, f"malformed output: {exc!r}")
        if setup_check is not None and setup_check.failed:
            result.fail(setup_check.failed, "; ".join(setup_check.notes))
        failed += min(result.failed, workload.items_per_round)
        wrong = wrong or result.wrong
        notes.extend(result.notes[: 10 - len(notes)])

    out = {
        "workload": workload.name,
        "rounds": rounds,
        "attempted": rounds * workload.items_per_round,
        "failed": failed,
        "correct": not wrong,
        "notes": notes,
        "load_s": statistics.median(loads),
        "items_per_s": statistics.median(rates[False]),
        "raw_items_per_s": statistics.median(raw_rates),
        "call_p50_ms": quantile(call_times, 50) * 1e3,
        "call_p99_ms": quantile(call_times, 99) * 1e3,
        "calls": len(call_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if hasattr(workload, "digests"):
        out["digests"] = workload.digests
    if traced:
        out["traced_items_per_s"] = statistics.median(rates[True])
        factor = sum(t[1] for t in traced_scale) / sum(t[0] for t in traced_scale)
        out["layers"] = layer_figures(workload, spans, factor)
        span_dir = work.parent / "spans"
        span_dir.mkdir(parents=True, exist_ok=True)
        span_file = span_dir / f"{workload.name}-seed{args.seed}.tsv"
        spans.write(span_file)
        out["span_file"] = str(span_file)
        out["spans"] = len(spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
