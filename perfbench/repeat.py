"""Repeat the benchmark and summarise the spread of every metric.

    python3 perfbench/repeat.py --workload tall-sparse --runs 10 --seconds 30
    python3 perfbench/repeat.py --runs 10 --trace 1     # every workload, traced

Runs ``perfbench/run.py`` once per seed, seeds 1..runs, one run at a
time, and prints for each workload and metric the median, first and
third quartiles across runs (``statistics.quantiles``, n=4) and the
quartile distance as a share of the median -- the spread a bound in
BENCHMARK.json has to cover.  Each run's result line, with its wall time
and information line, is appended to perfbench/out/repeat.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LOG = os.path.join(HERE, "out", "repeat.jsonl")
WORKLOADS = ("tall-sparse", "small-sweep", "cli-files")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    info = json.loads(lines[-2][2:]) if len(lines) > 1 and lines[-2].startswith("# ") else {}
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
            "info": info, "result": json.loads(lines[-1]), "stderr": proc.stderr[-2000:]}


def summarise(runs: list[dict]) -> list[str]:
    out = []
    names = list(runs[0]["result"]["metrics"])
    walls = [r["wall_s"] for r in runs]
    fails = sorted({(r["result"]["failed"], r["result"]["attempted"]) for r in runs})
    out.append(f"  runs={len(runs)} correct={all(r['result']['correct'] for r in runs)} "
               f"failed/attempted={fails} wall_s max={max(walls):.1f} "
               f"median={statistics.median(walls):.1f}")
    if "ops_per_s" in runs[0]["info"]:
        ops = [r["info"]["ops_per_s"] for r in runs]
        out.append(f"  ops_per_s (info line) median={statistics.median(ops):.6g}")
    out.append(f"  {'metric':46s} {'unit':9s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
    for name in names:
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        unit = runs[0]["result"]["metrics"][name]["unit"]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        out.append(f"  {name:46s} {unit:9s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]
    seeds = list(range(1, args.runs + 1))
    os.makedirs(os.path.dirname(LOG), exist_ok=True)
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in seeds:
            rec = run_once(workload, seed, seconds, args.trace)
            with open(LOG, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec) + "\n")
            runs.append(rec)
            print(f"{workload} seed={seed} wall={rec['wall_s']:.1f}s "
                  f"attempted={rec['result']['attempted']} failed={rec['result']['failed']} "
                  f"correct={rec['result']['correct']}", file=sys.stderr, flush=True)
        print(f"{workload} (trace={args.trace}, {seconds} s runs, seeds {seeds})")
        print("\n".join(summarise(runs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
