#!/usr/bin/env python3
"""Run one workload once per seed and summarise each metric across the runs.

    python3 perfbench/spread.py --workload split --seeds 1-10

For every metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, plus the
failed share; run length comes from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {}
    failed = set()
    for seed in seeds_of(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        line = json.loads(out.stdout.splitlines()[-1])
        if not line["correct"]:
            print("seed %d: incorrect output\n%s" % (seed, out.stderr), file=sys.stderr)
            return 1
        failed.add((line["failed"], line["attempted"]))
        for name, m in line["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, json.dumps(line)), flush=True)
    print("failed/attempted per run: %s" % sorted(failed))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        rel = (q3 - q1) / med if med else 0.0
        print("%-34s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f" % (name, med, q1, q3, rel))
    return 0


if __name__ == "__main__":
    sys.exit(main())
