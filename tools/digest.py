"""Byte-identity digest of rowsketch's outputs: one sha256 per group.

Usage, from the root of a checkout:

    python tools/digest.py > digest.json
    OPENBLAS_NUM_THREADS=2 python tools/digest.py --against digest.json

The first line prints one JSON object, group name to digest.  The second
compares against a saved object, names each group whose digest differs on
standard error, and exits 1 if any does.  A refactor meant to keep every
output shows the same digest before and after; the same checkout at one
and at two BLAS threads shows whether outputs depend on the thread count.

Groups, each hashing every array's dtype, shape and bytes and every
number's exact value:

- ``criterion``: halving, refinement and input-sparsity on the three
  criterion matrices (Gaussian 8192 x 16, power-law 4096 x 16, isolated
  2048 x 8), seeds 0-99;
- ``final-refinement``: ``final_refinement`` of each halving sketch on the
  same matrices, seeds 0-9;
- ``small-sweep`` and ``tall-sparse``: every library operation of one round
  of each benchmark workload (``perfbench/workloads.py``), seeds 1-2;
- ``cli-files``: each operation's exit status and check, and every file
  one round of the ``cli-files`` workload writes, seeds 1-2, with the
  ``wall_time_s`` report field dropped;
- ``tall-factors``: ``factor_gram`` and exact scores of matrices past 16384
  rows, which take the sample-whitened pass, and the R of the TSQR fold
  that is its fallback;
- ``reweighting``: the golden reweighting cases of the test suite.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import struct
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _sub in ("src", "tests", "perfbench"):
    sys.path.insert(0, os.path.join(ROOT, _sub))

import numpy as np  # noqa: E402

import rowsketch as rs  # noqa: E402
from rowsketch import leverage  # noqa: E402

CRITERION_RUNS = ("halving", "refinement", "input-sparsity")
WORKLOAD_SEEDS = (1, 2)


def feed(h, obj) -> None:
    """Add ``obj`` to the hash ``h``: arrays by dtype, shape and bytes,
    floats by their IEEE bits, dataclasses field by field."""
    if isinstance(obj, (np.ndarray, np.generic)):
        arr = np.ascontiguousarray(obj)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            feed(h, item)
    elif isinstance(obj, dict):
        h.update(b"{%d" % len(obj))
        for key in sorted(obj):
            feed(h, key)
            feed(h, obj[key])
    elif isinstance(obj, float):
        h.update(struct.pack("<d", obj))
    elif isinstance(obj, bytes):
        h.update(b"b%d:" % len(obj))
        h.update(obj)
    elif obj is None or isinstance(obj, (bool, int, str)):
        h.update(repr(obj).encode())
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def golden_runs(runs, seeds):
    from test_pipelines import GOLDEN_MATRICES, golden_run
    for name in sorted(GOLDEN_MATRICES):
        A = GOLDEN_MATRICES[name]()
        for run in runs:
            for seed in seeds:
                yield (name, run, seed), golden_run(A, run, seed)


def workload_ops(name):
    import workloads
    for seed in WORKLOAD_SEEDS:
        with tempfile.TemporaryDirectory() as workdir:
            for op in workloads.build(rs, name, seed, workdir).rounds():
                yield (seed, op.kind, op.key), op.run()


def cli_files():
    import workloads
    for seed in WORKLOAD_SEEDS:
        with tempfile.TemporaryDirectory() as workdir:
            for op in workloads.build(rs, "cli-files", seed, workdir).rounds():
                out = op.run()  # a verify reads the grade its sketch's check records
                yield (seed, op.kind, op.key), (out, op.check(out))
            for name in sorted(os.listdir(workdir)):
                with open(os.path.join(workdir, name), "rb") as fh:
                    data = fh.read()
                if name.endswith(".json"):
                    report = json.loads(data)
                    report.pop("wall_time_s", None)
                    data = json.dumps(report, sort_keys=True).encode()
                yield (seed, name), data


def tall_factors():
    from conftest import conditioned_matrix
    import workloads
    rng = np.random.default_rng
    for label, make in (
        ("gaussian-16387x16", lambda: rng(1).standard_normal((16387, 16))),
        ("gaussian-20000x64", lambda: rng(2).standard_normal((20000, 64))),
        ("gaussian-20000x80", lambda: rng(3).standard_normal((20000, 80))),
        ("cond-1e8-16387x16", lambda: conditioned_matrix(1e8, n=16387).to_dense()),
        ("tall-sparse-40000x32", lambda: workloads.tall_sparse_csr(rng(4), 40000, 32, 2, 2, 4)),
    ):
        M = make()
        A = (rs.SparseRowMatrix.from_scipy(M) if hasattr(M, "tocsr")
             else rs.SparseRowMatrix.from_dense(M))
        yield (label, "factor"), rs.factor_gram(A)
        yield (label, "scores"), rs.exact_leverage_scores(A)
        yield (label, "fallback-r"), leverage._r_fold(A)


def reweightings():
    from test_reweight import GOLDEN_REWEIGHTINGS
    for case in sorted(GOLDEN_REWEIGHTINGS):
        A, cap = GOLDEN_REWEIGHTINGS[case]()
        yield case, rs.compute_reweighting(A, np.full(A.n_rows, cap))


GROUPS = {
    "criterion": lambda: golden_runs(CRITERION_RUNS, range(100)),
    "final-refinement": lambda: golden_runs(("final-refinement",), range(10)),
    "small-sweep": lambda: workload_ops("small-sweep"),
    "tall-sparse": lambda: workload_ops("tall-sparse"),
    "cli-files": cli_files,
    "tall-factors": tall_factors,
    "reweighting": reweightings,
}


def digest(groups) -> dict[str, str]:
    """sha256 of each group's records, in the order the group yields them."""
    out = {}
    for name, records in groups.items():
        h = hashlib.sha256()
        for record in records():
            feed(h, record)
        out[name] = h.hexdigest()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="FILE",
                        help="a saved digest; name the groups that differ from it")
    args = parser.parse_args(argv)
    got = digest(GROUPS)
    print(json.dumps(got, indent=1, sort_keys=True))
    if args.against is None:
        return 0
    with open(args.against, encoding="ascii") as fh:
        want = json.load(fh)
    differ = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
    for name in differ:
        print(f"digest: group {name} differs from {args.against}", file=sys.stderr)
    return int(bool(differ))


if __name__ == "__main__":
    sys.exit(main())
