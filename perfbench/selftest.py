"""Self-test of the benchmark's output checks: intact outputs pass, broken ones fail.

    python3 perfbench/selftest.py

Runs each operation once on small seeded inputs, confirms its check
accepts the real output, then breaks the output in the ways a faulty
program could and confirms the check rejects each one.  Exits 0 only if
every line reads as expected.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np

import checks
import tracing
import workloads
from run import OUT, ROOT, load_program


def main() -> int:
    rs = load_program()
    rng = np.random.default_rng(20261018)
    tall = workloads.tall_sparse_csr(rng, 20_000, 16, per_row=2, rare_cols=2, planted_per_col=4)
    iso = workloads.isolated_direction_csr(rng, 2048, 8)
    results = []

    def expect(label, problem, should_fail):
        ok = bool(problem) == should_fail
        results.append(ok)
        verdict = "flagged" if problem else "passed"
        print(f"{'ok ' if ok else 'BAD'} {label}: {verdict}" + (f" ({problem})" if problem else ""))

    for name, csr, planted in (("tall-sparse", tall, np.flatnonzero(tall.getcol(14).toarray())),
                               ("isolated", iso, np.array([iso.shape[0] - 1]))):
        case = workloads.make_case(rs, name, csr, 7, 0.5)
        o = case.facts()
        for p, seed in zip(workloads.PIPELINES, case.seeds):
            res = workloads.run_pipeline(rs, p, case.A, rs.SketchConfig(seed=seed))
            idx, w, lam = res.sample.row_indices, res.sample.weights, res.check_lambda
            eps = workloads.EPSILON
            expect(f"{name} {p} sketch", checks.check_sketch(o, idx, w, lam, eps), False)
            keep = ~np.isin(idx, planted)
            expect(f"{name} {p} sketch, planted rows removed",
                   checks.check_sketch(o, idx[keep], w[keep], lam, eps), True)
            expect(f"{name} {p} sketch, weights doubled",
                   checks.check_sketch(o, idx, 2 * w, lam, eps), True)
            expect(f"{name} {p} sample, an index repeated",
                   checks.check_sample(np.append(idx, idx[0]), np.append(w, w[0]), o.n, o.d, eps), True)
            passes = rs.spectral_check(case.A, rs.materialize(case.A, res.sample), lam).passes
            expect(f"{name} {p} verify", checks.check_verify(o, idx, w, lam, passes), False)
            expect(f"{name} {p} verify, verdict flipped",
                   checks.check_verify(o, idx, w, lam, not passes), True)
        tau = rs.exact_leverage_scores(case.A).values.copy()
        expect(f"{name} scores", checks.check_scores(o, tau), False)
        bumped = tau.copy()
        bumped[int(np.argmax(tau))] -= 1e-6
        expect(f"{name} scores, one perturbed by 1e-6", checks.check_scores(o, bumped), True)
        sol = rs.precondition_solve(case.A, case.b, rs.repeated_halving(case.A, rs.SketchConfig(seed=3)))
        expect(f"{name} solve", checks.check_solve(o, case.b, sol.x, workloads.SOLVE_TOL), False)
        expect(f"{name} solve, x off by 1e-6",
               checks.check_solve(o, case.b, sol.x * (1 + 1e-6), workloads.SOLVE_TOL), True)
        u = np.full(o.n, 0.5)
        W, _ = rs.compute_reweighting(case.A, u, tol=workloads.REWEIGHT_TOL)
        w = W.weights
        expect(f"{name} reweight", checks.check_reweight(o, w, u, workloads.REWEIGHT_TOL), False)
        expect(f"{name} reweight, weights doubled",
               checks.check_reweight(o, 2 * w, u, workloads.REWEIGHT_TOL), True)
        expect(f"{name} reweight, weights reset to 1",
               checks.check_reweight(o, np.ones_like(w), u, workloads.REWEIGHT_TOL), True)
    # A CLI verify must not certify the last round's sample when the
    # sketch before it failed: a sketch that raises never reaches its check.
    workdir = os.path.join(OUT, f"selftest-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        case = workloads.make_case(None, "cli", tall, 7, 0.5)
        workloads.write_inputs(case, workdir)
        sketch, verify = workloads.cli_ops(rs, case, workdir)[:2]
        expect("cli sketch", sketch.check(sketch.run()), False)
        expect("cli verify", verify.check(verify.run()), False)
        try:
            problem = verify.check(verify.run())
        except KeyError:
            problem = "no sketch to verify"
        expect("cli verify after a failed sketch", problem, True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    reported = {name: unit for name, (_, unit) in tracing.Tracer().metrics().items()}
    expect("traced metrics match BENCHMARK.json per_layer",
           None if declared == reported else f"differ: {set(declared.items()) ^ set(reported.items())}",
           False)
    print(f"{sum(results)}/{len(results)} as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
