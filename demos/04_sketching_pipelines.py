"""End-to-end sketchers: halve uniformly, estimate, resample, repeat.

Each pipeline shrinks a 8192-row matrix to a few thousand reweighted rows
of the ORIGINAL matrix while preserving every singular value within its
grade, certified by the dense spectral checker.

Run:  python3 demos/04_sketching_pipelines.py
"""

import time

import numpy as np

from rowsketch import (SketchConfig, SparseRowMatrix, input_sparsity_sketch,
                       materialize, refinement_sampling, repeated_halving,
                       spectral_check)

rng = np.random.default_rng(3)
n, d = 8192, 16
A = SparseRowMatrix.from_dense(rng.standard_normal((n, d)))
cfg = SketchConfig(seed=11, epsilon=0.5)

print(f"input: {n} x {d} ({A.nnz} nonzeros)\n")
print(f"{'pipeline':<22}{'rows':>6}{'grade':>8}{'low':>9}{'high':>9}{'solves':>8}{'secs':>7}")

for name, run in (
    ("repeated halving", lambda: repeated_halving(A, cfg)),
    ("refinement sampling", lambda: refinement_sampling(A, cfg)),
    ("input-sparsity", lambda: input_sparsity_sketch(A, 0.5, 0.5, cfg)),
):
    t0 = time.perf_counter()
    r = run()
    secs = time.perf_counter() - t0
    rep = spectral_check(A, materialize(A, r.sample), r.check_lambda)
    mark = "ok" if rep.passes else "FAIL"
    print(f"{name:<22}{r.rows_kept:>6}{r.check_lambda:>8.3f}{rep.lambda_low:>9.3f}"
          f"{rep.lambda_high:>9.3f}{r.solve_count:>8}{secs:>7.2f}  {mark}")

print("\nrefinement's estimate mass per round (starts at n, halts near 20*d):")
r = refinement_sampling(A, cfg)
print("  " + " -> ".join(f"{h:.0f}" for h in r.sum_estimates_history))
