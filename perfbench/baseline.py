"""One-off re-measurement of the ROADMAP baseline table, with spans.

    python3 perfbench/baseline.py

Builds the seeded 400 000 x 64 matrix of the ROADMAP table with 5% of
its entries nonzero (3 or 4 per row, 1.28M nonzeros), then times under
the tracer: ``refinement_sampling``, ``repeated_halving``,
``factor_gram`` of all of A (as ``spectral_check`` runs it),
``write_matrix_market`` and ``read_matrix_market``, next to
``scipy.io.mmwrite``/``mmread`` on the same matrix.  The sketchers' and
``factor_gram``'s ``tracemalloc`` peaks are reported beside their wall
times; the pure-Python readers and writers run without ``tracemalloc``,
which would slow them tenfold.  Needs about 2 GB of memory; not part of
a benchmark run.
"""

from __future__ import annotations

import os
import sys

from run import OUT, load_program  # importing run pins BLAS to one thread before numpy loads

import json
import time

import numpy as np
import scipy.io
import scipy.sparse as sp

import tracing

ROWS, COLS, DENSITY, SEED = 400_000, 64, 0.05, 1
PEAK = ("pipelines.refinement_sampling", "pipelines.repeated_halving", "leverage.factor_gram")
TOP = PEAK + ("matrix.write_matrix_market", "matrix.read_matrix_market")


def main() -> int:
    rs = load_program()
    n, d = ROWS, COLS
    rng = np.random.default_rng(SEED)
    whole, frac = divmod(DENSITY * d, 1.0)
    counts = int(whole) + (rng.random(n) < frac)        # mean DENSITY * d per row
    order = np.argsort(rng.random((n, d)), axis=1)
    keep = np.arange(d)[None, :] < counts[:, None]
    cols = np.where(keep, order, d)                       # d sorts after every column
    cols.sort(axis=1)
    cols = cols[cols < d]
    indptr = np.concatenate(([0], np.cumsum(counts)))
    csr = sp.csr_matrix((rng.standard_normal(cols.size), cols, indptr), shape=(n, d))
    A = rs.SparseRowMatrix.from_scipy(csr)
    del order, keep, cols
    os.makedirs(OUT, exist_ok=True)
    ours, theirs = os.path.join(OUT, "baseline-rowsketch.mtx"), os.path.join(OUT, "baseline-scipy.mtx")
    rows = []
    try:
        start = time.perf_counter()
        scipy.io.mmwrite(theirs, csr, precision=17)
        rows.append(("scipy.io.mmwrite", time.perf_counter() - start, None))
        start = time.perf_counter()
        scipy.io.mmread(theirs)
        rows.append(("scipy.io.mmread", time.perf_counter() - start, None))

        tracer = tracing.Tracer(peak_names=PEAK)
        tracer.install()
        cfg = rs.SketchConfig(seed=SEED)
        rs.refinement_sampling(A, cfg)
        rs.repeated_halving(A, cfg)
        rs.factor_gram(A)
        rs.write_matrix_market(ours, A)
        rs.read_matrix_market(theirs)
        tracer.uninstall()
    finally:
        for path in (ours, theirs):
            if os.path.exists(path):
                os.remove(path)
    for s in tracer.spans:
        if s.name in TOP and s.parent < 0:
            rows.append((s.name, s.end - s.start, s.counts.get("peak_mb")))
    self_s: dict[str, float] = {}
    for s, sec in zip(tracer.spans, tracer.self_seconds()):
        self_s[s.name] = self_s.get(s.name, 0.0) + sec
    print(f"# {n} x {d}, {A.nnz} nonzeros ({A.nnz / (n * d):.1%}), seed {SEED}")
    print(f"{'call':36s} {'wall_s':>8s} {'peak_mb':>8s}")
    for name, sec, mb in rows:
        print(f"{name:36s} {sec:8.2f} {'' if mb is None else f'{mb:8.0f}'}")
    print("# self time by function over the traced calls")
    for name, sec in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"{name:36s} {sec:8.2f}")
    print(json.dumps({"rows": [list(r) for r in rows], "self_s": self_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
