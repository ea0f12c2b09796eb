"""Benchmark of rowsketch: one workload, one seed, one closed-loop run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tall-sparse --seed 1 --seconds 30 --trace 0

The run builds the workload's inputs from the seed (three times, to time
set-up), runs one warm-up round, then repeats identical rounds of
operations one at a time until ``--seconds`` have passed, always ending
on a whole round.  Set-up and the warm-up round run without transparent
huge pages and give ``peak_rss_mb``; the timed rounds run with them.
Each operation's output is checked apart from the program after its
timed span.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-module metrics from
spans around the program's functions with ``--trace 1``.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy loads: the host has two shared cores
# and threaded BLAS adds its own run-to-run spread.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import resource
import shutil
import statistics
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_BUILDS = 3

PR_SET_THP_DISABLE = 41
_libc = ctypes.CDLL(None, use_errno=True)


def set_huge_pages(enabled: bool) -> bool:
    """Allow or forbid transparent huge pages in this process (prctl).

    numpy asks for huge pages on every array of 4 MB or more.  Whether the
    kernel hands them out depends on how fragmented the host's memory is at
    the moment, and each one it does is resident whole, so with them the
    peak resident memory of the same seed moved by tens of MB between runs.
    Set-up and the warm-up round run without them and set ``peak_rss_mb``;
    the timed rounds run with them, as a user's process would, since 4 KB
    pages made sketches up to 70% slower on the reference host.

    Returns whether the setting took; where prctl is refused the run goes
    on with the host's setting, and the information line says so.
    """
    if _libc.prctl(PR_SET_THP_DISABLE, int(not enabled), 0, 0, 0) != 0:
        print(f"perfbench: prctl(PR_SET_THP_DISABLE) failed: "
              f"{os.strerror(ctypes.get_errno())}", file=sys.stderr, flush=True)
        return False
    return True


def load_program():
    """Import rowsketch from this checkout's src/, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "rowsketch", "__init__.py")):
        raise SystemExit(f"perfbench: no rowsketch sources under {SRC}")
    sys.path.insert(0, SRC)
    import rowsketch
    if os.path.dirname(os.path.dirname(os.path.abspath(rowsketch.__file__))) != SRC:
        raise SystemExit(f"perfbench: rowsketch imported from {rowsketch.__file__}, not {SRC}")
    return rowsketch


def run_op(op, tracer, log):
    """Time one operation, then check it; returns (seconds, failed, wrong, output).

    An operation that raises -- an error inside the program, or
    ``OperationFailed`` when it reports no success -- has failed.  One whose
    output its check rejects is wrong.
    """
    if tracer is not None:
        tracer.begin_op(op.kind)
    start = time.perf_counter()
    try:
        out = op.run()
    except (Exception, SystemExit):
        seconds = time.perf_counter() - start
        log(f"{op.kind} {op.key} failed:\n{traceback.format_exc()}")
        return seconds, True, False, None
    seconds = time.perf_counter() - start
    try:
        problem = op.check(out)
    except Exception as exc:  # an unreadable output is a wrong one
        problem = f"check raised {exc!r}"
    if problem:
        log(f"{op.kind} {op.key} WRONG: {problem}")
    return seconds, False, bool(problem), out


def typical_time(samples: dict[str, list[float]]) -> float:
    """Geometric mean over distinct operations of each one's median time.

    Each distinct operation (same inputs and seed in every round) gets the
    median of its timings across rounds; the geometric mean weighs a 10%
    change in a 5 ms operation as much as one in a 2 s operation, and
    averages out how much each seed's input costs.
    """
    return statistics.geometric_mean(statistics.median(v) for v in samples.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    peak_without_huge_pages = set_huge_pages(False)
    rs = load_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")

    def log(msg):
        print(f"perfbench: {msg}", file=sys.stderr, flush=True)

    workdir = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = None
    try:
        builds = []
        for _ in range(SETUP_BUILDS):
            wl = None   # drop the last build first: set-up never holds two
            start = time.perf_counter()
            wl = workloads.build(rs, args.workload, args.seed, workdir)
            builds.append(time.perf_counter() - start)
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        # The warm-up round counts in attempted, failed and correct like
        # the timed rounds; only its times are kept apart, in setup_s.
        attempted = failed_n = wrong_n = 0
        warm_s = 0.0
        for op in wl.rounds():
            seconds, failed, wrong, _ = run_op(op, tracer, log)
            attempted += 1
            failed_n += failed
            wrong_n += wrong
            warm_s += seconds
        setup_s = statistics.median(builds) + warm_s
        # Every round holds the same operations, so set-up and the warm-up
        # round reach the run's memory peak; the timed rounds get huge pages.
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        set_huge_pages(True)
        if tracer is not None:
            tracer.reset()

        times: dict[str, dict[str, list[float]]] = {k: {} for k in workloads.KINDS}
        rounds = timed_ok = 0
        rows: list[int] = []
        busy = 0.0
        loop_start = time.perf_counter()
        while True:
            for op in wl.rounds():
                seconds, failed, wrong, out = run_op(op, tracer, log)
                attempted += 1
                failed_n += failed
                wrong_n += wrong
                if failed:
                    continue
                timed_ok += 1
                busy += seconds
                times[op.kind].setdefault(op.key, []).append(seconds)
                if op.rows_kept is not None:
                    rows.append(op.rows_kept(out))
            rounds += 1
            if time.perf_counter() - loop_start >= args.seconds:
                break

        info = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                "ops_per_round": attempted // (rounds + 1),
                "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
                "peak_without_huge_pages": peak_without_huge_pages,
                "ops_per_s": timed_ok / busy if busy else 0.0}
        if tracer is not None:
            tracer.uninstall()
            trace_path = os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.jsonl")
            tracer.write(trace_path)
            info["trace"] = os.path.relpath(trace_path, ROOT)
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in tracer.metrics().items()}
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "ops_per_s": {"value": info["ops_per_s"], "unit": "1/s"},
            }
            for kind in workloads.KINDS:
                value = typical_time(times[kind]) if times[kind] else 0.0
                metrics[f"{kind}_s"] = {"value": value, "unit": "s"}
            metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
            metrics["rows_kept"] = {"value": statistics.fmean(rows) if rows else 0.0,
                                    "unit": "rows"}
        print("# " + json.dumps(info, sort_keys=True))
        print(json.dumps({"correct": wrong_n == 0, "attempted": attempted,
                          "failed": failed_n, "metrics": metrics}), flush=True)
        return 0
    finally:
        if tracer is not None:
            tracer.uninstall()   # a no-op once restored
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
