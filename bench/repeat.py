"""Repeat the benchmark over several seeds and summarise each metric.

    python3 bench/repeat.py --workload gen_hull --seeds 1-10 --seconds 12 \
        [--trace 0] [--out .bench_out/gen_hull.json]

Runs `bench/run.py` once per seed, one run at a time, and prints for every
metric its median, first and third quartiles (statistics.quantiles, n=4)
and the spread (Q3 - Q1) / median. With --out the summary, every run's
result and printed report, and the machine facts are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    if len(parse_seeds(args.seeds)) < 2:
        p.error("quartiles need at least two seeds")

    runs = []
    for seed in parse_seeds(args.seeds):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(RUN), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if proc.returncode != 0 or result is None or not result["correct"]:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"seed {seed}: run failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        result["seed"] = seed
        result["elapsed_s"] = time.perf_counter() - start
        result["log"] = lines[:-1]
        runs.append(result)
        print(f"seed {seed} ({result['elapsed_s']:.1f} s): " + ", ".join(f"{k} {v['value']:.4g}"
                                           for k, v in result["metrics"].items()), flush=True)

    summary = summarise(runs)
    print(f"{'metric':<44}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}")
    for name, s in summary.items():
        spread = f"{s['spread']:.4f}" if s["spread"] is not None else "-"
        print(f"{name:<44}{s['median']:>12.5g}{s['q1']:>12.5g}{s['q3']:>12.5g}{spread:>9}")
    if args.out:
        import numpy

        doc = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
               "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                           "numpy": numpy.__version__},
               "summary": summary, "runs": runs}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
