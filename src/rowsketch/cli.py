"""Command-line surface: scores, sketch, verify, reweight, solve, bench.

All randomness flows from --seed (default 42); reruns with identical flags
produce byte-identical outputs apart from the wall_time_s report field.
Reports are sorted-key JSON; tabular outputs are TSV.  Exit status is 0
exactly when every requested check passed, 1 when one failed, and 2 on bad
input, a matrix the pipelines cannot sketch included, with the file named.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .fastlev import approx_generalized_leverage
from .leverage import (SCORE_HEADER, exact_leverage_scores, generalized_leverage_scores,
                       write_scores)
from .matrix import (MatrixFormatError, SparseRowMatrix, _IndexedTsv, materialize,
                     read_indexed_column, read_matrix_market, read_sample,
                     write_indexed_column, write_sample)
from .pipelines import (NonConvergenceError, PipelineError, SketchResult, input_sparsity_sketch,
                        precondition_solve, refinement_sampling, repeated_halving)
from .reweight import compute_reweighting, write_weights
from .sampling import SketchConfig
from .verify import spectral_check

_EXIT_OK = 0
_EXIT_CHECK_FAILED = 1
_EXIT_USAGE = 2


def _emit(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config(args) -> SketchConfig:
    fields = dict(seed=args.seed)
    for name in ("epsilon", "c", "theta"):
        if getattr(args, name, None) is not None:
            fields[name] = getattr(args, name)
    return SketchConfig(**fields)


def cmd_scores(args) -> int:
    if args.fast and not args.wrt:
        raise MatrixFormatError("--fast requires --wrt")
    if args.theta is not None and not args.fast:
        raise MatrixFormatError("--theta requires --fast")
    A = read_matrix_market(args.matrix)
    cfg = _config(args)
    if args.wrt:
        B = read_matrix_market(args.wrt)
        if B.n_cols != A.n_cols:
            raise MatrixFormatError(f"{B.n_cols} columns, matrix has {A.n_cols}", args.wrt)
        if args.fast:
            theta = args.theta if args.theta is not None else cfg.resolve_theta(A.n_cols)
            scores = approx_generalized_leverage(A, B, theta, cfg)
        else:
            scores = generalized_leverage_scores(A, B)
    else:
        scores = exact_leverage_scores(A)
    write_scores(args.output or sys.stdout, scores)
    return _EXIT_OK


_METHODS = ("halving", "refinement", "input-sparsity")


def _sketch(method: str, A: SparseRowMatrix, cfg: SketchConfig,
            theta: float | None = None) -> SketchResult:
    """Run one of :data:`_METHODS`; input-sparsity defaults to theta 0.5."""
    if method == "halving":
        return repeated_halving(A, cfg)
    if method == "refinement":
        return refinement_sampling(A, cfg)
    return input_sparsity_sketch(A, theta if theta is not None else 0.5, cfg.epsilon, cfg)


def cmd_sketch(args) -> int:
    A = read_matrix_market(args.matrix)
    cfg = _config(args)
    start = time.perf_counter()
    try:
        result = _sketch(args.method, A, cfg, args.theta)
    except NonConvergenceError as exc:
        _emit({"error": str(exc), "history": exc.history, "seed": args.seed},
              args.report)
        return _EXIT_CHECK_FAILED
    elapsed = time.perf_counter() - start
    write_sample(args.output, result.sample)
    _emit({
        "method": args.method,
        "rows_kept": result.rows_kept,
        "history": list(result.sum_estimates_history),
        "levels_or_iterations": result.levels_or_iterations,
        "solve_count": result.solve_count,
        "seed": result.seed,
        "check_lambda": result.check_lambda,
        "wall_time_s": elapsed,
    }, args.report)
    return _EXIT_OK


def cmd_verify(args) -> int:
    A = read_matrix_market(args.matrix)
    S = read_sample(args.sample)
    if S.parent_rows != A.n_rows:
        raise MatrixFormatError(f"sample built for {S.parent_rows} rows, matrix has {A.n_rows}",
                                args.sample, 1)
    Atilde = materialize(A, S)
    report = spectral_check(A, Atilde, args.lam, tol=args.tol)
    _emit({
        "passes": report.passes,
        "lambda": report.lam,
        "lambda_low": report.lambda_low,
        "lambda_high": report.lambda_high,
        "rank_match": report.rank_match,
        "rank_a": report.rank_a,
        "rank_atilde": report.rank_atilde,
        "tol": report.tol,
    }, args.report)
    return _EXIT_OK if report.passes else _EXIT_CHECK_FAILED


def cmd_reweight(args) -> int:
    A = read_matrix_market(args.matrix)
    if (args.alpha is None) == (args.targets is None):
        raise MatrixFormatError("provide exactly one of --alpha or --targets")
    if args.alpha is not None:
        if args.alpha <= 0:
            raise MatrixFormatError("--alpha must be positive")
        u = np.full(A.n_rows, args.alpha)
    else:
        tsv = _IndexedTsv(args.targets, SCORE_HEADER)
        u = tsv.values
        tsv.check([(~((u > 0.0) & (u < np.inf)),
                    "target must be positive and finite, not {token!r}")])
        if u.size != A.n_rows:
            raise MatrixFormatError(f"{u.size} targets for a matrix of {A.n_rows} rows",
                                    args.targets)
    W, cert = compute_reweighting(A, u, tol=args.tol, max_sweeps=args.max_sweeps)
    write_weights(args.output, W)
    _emit({
        "converged": cert.converged,
        "sweeps_used": cert.sweeps_used,
        "reweighted_count": cert.reweighted_count,
        "reweighted_mass": cert.reweighted_mass,
        "max_violation": cert.max_violation,
        "mass_bound_d": A.n_cols,
        "tol": cert.tol,
        "updates": cert.updates,
        "factorizations": cert.factorizations,
    }, args.report)
    return _EXIT_OK if cert.converged else _EXIT_CHECK_FAILED


def cmd_solve(args) -> int:
    A = read_matrix_market(args.matrix)
    b = read_indexed_column(args.rhs, "value")
    if b.size != A.n_rows:
        raise MatrixFormatError(f"{b.size} values for a matrix of {A.n_rows} rows", args.rhs)
    cfg = _config(args)
    sketch = repeated_halving(A, cfg)
    result = precondition_solve(A, b, sketch, tol=args.tol, max_iters=args.max_iters)
    write_indexed_column(args.output, "row_index\tvalue", result.x)
    _emit({
        "converged": result.converged,
        "iterations": result.iterations,
        "relative_residual": result.relative_residual,
        "sketch_rows": sketch.rows_kept,
        "seed": args.seed,
    }, args.report)
    return _EXIT_OK if result.converged else _EXIT_CHECK_FAILED


def _bench_case(name: str, A, cfg) -> dict:
    start = time.perf_counter()
    result = _sketch(name, A, cfg)
    elapsed = time.perf_counter() - start
    report = spectral_check(A, materialize(A, result.sample), result.check_lambda)
    return {
        "method": name, "n_rows": A.n_rows, "n_cols": A.n_cols,
        "rows_kept": result.rows_kept, "solve_count": result.solve_count,
        "passes": report.passes, "wall_time_s": elapsed,
    }


def cmd_bench(args) -> int:
    if args.suite != "desk":
        raise MatrixFormatError(f"unknown suite {args.suite!r}")
    rng = np.random.default_rng(args.seed)
    cases = []
    for n, d in ((1024, 8), (2048, 16)):
        dense = rng.standard_normal((n, d))
        A = SparseRowMatrix.from_dense(dense)
        cfg = SketchConfig(seed=args.seed)
        for method in ("halving", "refinement", "input-sparsity"):
            cases.append(_bench_case(method, A, cfg))
    cols = ["method", "n_rows", "n_cols", "rows_kept", "solve_count", "passes", "wall_time_s"]
    lines = ["\t".join(cols)]
    for case in cases:
        lines.append("\t".join(str(case[c]) for c in cols))
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rowsketch",
        description="Row sampling, leverage-score estimation, and spectral sketch verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=42,
                       help="master seed for all randomness (default 42)")

    p = sub.add_parser("scores", help="exact, generalized, or sketched leverage scores")
    p.add_argument("matrix", help="Matrix Market file")
    p.add_argument("--wrt", help="reference matrix for generalized scores")
    p.add_argument("--fast", action="store_true",
                   help="d^theta-scaled overestimates (requires --wrt): exact when "
                        "rank(B) <= ceil(64/theta), Gaussian-sketched otherwise")
    p.add_argument("--theta", type=float, help="distortion exponent for --fast")
    p.add_argument("-o", "--output", help="scores TSV path (default stdout)")
    add_seed(p)
    p.set_defaults(func=cmd_scores)

    p = sub.add_parser("sketch", help="run a sketching pipeline")
    p.add_argument("matrix")
    p.add_argument("--method", choices=_METHODS, default="halving")
    p.add_argument("--epsilon", type=float, default=None, help="target distortion")
    p.add_argument("--c", type=float, default=None, help="oversampling constant")
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("-o", "--output", required=True, help="sample TSV path")
    p.add_argument("--report", help="JSON report path (default stdout)")
    add_seed(p)
    p.set_defaults(func=cmd_sketch)

    p = sub.add_parser("verify", help="spectral check a sample against its matrix")
    p.add_argument("matrix")
    p.add_argument("sample")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--report", help="JSON report path (default stdout)")
    add_seed(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reweight", help="coherence-reducing reweighting with certificate")
    p.add_argument("matrix")
    p.add_argument("--alpha", type=float, help="uniform leverage target")
    p.add_argument("--targets", help="per-row targets TSV")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-sweeps", type=int, default=None)
    p.add_argument("-o", "--output", required=True, help="weights TSV path")
    p.add_argument("--report", help="JSON certificate path (default stdout)")
    add_seed(p)
    p.set_defaults(func=cmd_reweight)

    p = sub.add_parser("solve", help="preconditioned least squares via a sketch")
    p.add_argument("matrix")
    p.add_argument("rhs", help="right-hand side TSV (row_index\\tvalue)")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("-o", "--output", required=True, help="solution TSV path")
    p.add_argument("--report", help="JSON report path (default stdout)")
    add_seed(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="timing/row-count table over the desk corpus")
    p.add_argument("--suite", default="desk")
    p.add_argument("-o", "--output", help="table path (default stdout)")
    add_seed(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, IndexError, PipelineError) as exc:
        if isinstance(exc, PipelineError):  # a matrix the pipelines cannot sketch
            exc = MatrixFormatError(str(exc), getattr(args, "matrix", None))
        print(f"rowsketch: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
