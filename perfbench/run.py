#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload euler --seed 1 --seconds 40 --trace 0

The process is fresh for every run, so klwb's caches start cold.  One
closed-loop caller issues one operation at a time, in whole rounds, until
the next round would overrun --seconds (at least one round).  Every round
sets up afresh and draws the same inputs from --seed, so each round does
the same work whatever the machine's speed.  Each round's operations are
timed one by one; their checks run after the round, outside the timed phase.
Between operations the set-up is timed again, in about SETUP_SHARE of the
operations' time, so that set-up samples spread over the whole run.

With --trace 0 the metrics are the end-to-end ones: setup_s (median over
set-ups), run_s and cpu_s (medians over rounds) and peak_rss_mb.  With
--trace 1 the harness wraps klwb's public callables (tracing.py) and reports
every per-layer metric over the first round's set-up and operations, so
counts repeat exactly for a seed.  Details of each run go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# between operations the set-up is timed again until its samples add up to
# about this share of the operations' time: a shared machine's speed changes
# from one second to the next, and a burst of set-ups would catch a single
# fast or slow spell
SETUP_SHARE = 0.1


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(workload, seed: int, seconds: float, tracer=None) -> dict:
    """Run whole rounds for `seconds`, check every result; return a record."""
    setups, rounds, errors, layers = [], [], [], None
    attempted = failed = 0
    correct = True
    longest = 0.0
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        traced = tracer is not None and not rounds
        if traced:
            tracer.on = True
        state, took = workload.setup()
        if traced:
            tracer.on = False
        setups.append(took)
        ops = workload.ops(state, random.Random(seed))
        walls, cpus = [], []
        done = []
        owed = 0.0
        for op in ops:
            attempted += 1
            c0 = _cpu_seconds()
            t0 = time.perf_counter()
            if traced:
                tracer.on = True
            try:
                done.append((op, op.call()))
            except Exception:
                failed += 1
                errors.append("%s: %s" % (op.name, traceback.format_exc(limit=3)))
            finally:
                if traced:
                    tracer.on = False
                walls.append(time.perf_counter() - t0)
                cpus.append(_cpu_seconds() - c0)
            if tracer is None:
                owed += SETUP_SHARE * walls[-1]
                while owed > 0:
                    took = workload.setup()[1]
                    setups.append(took)
                    owed -= took
        if traced:
            layers = tracer.snapshot()
        for op, result in done:
            try:
                op.check(result)
            except Exception:
                correct = False
                errors.append("check %s: %s" % (op.name, traceback.format_exc(limit=3)))
        rounds.append(
            {"wall_s": sum(walls), "cpu_s": sum(cpus), "ops": [op.name for op in ops], "op_wall_s": walls}
        )
        longest = max(longest, time.perf_counter() - r0)
        if time.perf_counter() + longest > start + seconds:
            break
    return {
        "setups_s": setups,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "errors": errors,
        "layers": layers,
        "peak_rss_mb": _peak_rss_mb(),
    }


def result_line(record: dict, traced: bool) -> dict:
    from tracing import PER_LAYER

    if traced:
        metrics = {
            name: {"value": record["layers"][name], "unit": unit} for name, unit in PER_LAYER
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(record["setups_s"]), "unit": "s"},
            "run_s": {"value": statistics.median(r["wall_s"] for r in record["rounds"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in record["rounds"]), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "klwb" / "__init__.py").is_file():
        print("error: no klwb sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    record = measure(workloads.make(args.workload, bool(tracer)), args.seed, args.seconds, tracer)
    if tracer:
        tracer.uninstall()
    line = result_line(record, bool(args.trace))
    record.update(vars(args), result=line)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(record, indent=1) + "\n")
    for err in record["errors"]:
        print(err, file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
