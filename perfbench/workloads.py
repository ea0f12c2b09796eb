"""Seeded inputs and the round of operations for each workload.

Inputs are built here with numpy/scipy from the workload seed alone,
sparse from the start; ``.mtx`` files are written with ``scipy.io.mmwrite``
and ``.tsv`` inputs with numpy, never with the program's writers.  A round
is a fixed list of operations, identical in every round of a run, in
which the five operation kinds and their seeds take turns.  Each
operation is timed alone; its check (``perfbench.checks``) runs after it,
outside the timed span.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.io
import scipy.sparse as sp

import checks

KINDS = ("sketch", "verify", "scores", "solve", "reweight")
PIPELINES = ("halving", "refinement", "input-sparsity")
EPSILON = 0.5          # SketchConfig default, as `rowsketch sketch` runs it
ISPARSE_THETA = 0.5    # `rowsketch sketch --method input-sparsity` default
SOLVE_TOL = 1e-8       # `rowsketch solve` default
REWEIGHT_TOL = 1e-6    # `rowsketch reweight` default


class OperationFailed(RuntimeError):
    """The program reported that an operation did not succeed: an error
    exit status or an unconverged solve or reweighting.  It counts in
    ``failed``; an output that fails its check counts as wrong instead."""


@dataclass
class Op:
    kind: str
    key: str                         # names one distinct operation of the round
    run: Callable[[], object]        # the timed call
    check: Callable[[object], str | None]
    rows_kept: Callable[[object], int] | None = None


@dataclass
class Workload:
    name: str
    rounds: Callable[[], list[Op]]   # a fresh round of operations


# ---------------------------------------------------------------------------
# Input generators
# ---------------------------------------------------------------------------

def tall_sparse_csr(rng: np.random.Generator, n: int, d: int, per_row: int,
                    rare_cols: int, planted_per_col: int) -> sp.csr_matrix:
    """n x d CSR with a fixed ``per_row`` nonzeros in each bulk row.

    Bulk rows draw distinct columns among the first d - rare_cols and
    carry Pareto(3) row scales.  Each of the last ``rare_cols`` columns is
    nonzero in exactly ``planted_per_col`` planted rows and nowhere else,
    so those rows hold whole directions: a uniform sample of a few
    thousand rows misses them.  nnz and shape do not depend on the seed.
    """
    bulk_cols = d - rare_cols
    planted = rare_cols * planted_per_col
    n_bulk = n - planted
    cols = np.empty((n_bulk, per_row), dtype=np.int64)
    for lo in range(0, n_bulk, checks.BLOCK_ROWS):
        hi = min(n_bulk, lo + checks.BLOCK_ROWS)
        cols[lo:hi] = np.argsort(rng.random((hi - lo, bulk_cols)), axis=1)[:, :per_row]
    cols.sort(axis=1)
    scale = rng.pareto(3.0, n_bulk) + 1.0
    vals = rng.standard_normal((n_bulk, per_row)) * scale[:, None]
    planted_at = np.sort(rng.choice(n, planted, replace=False))
    is_planted = np.zeros(n, dtype=bool)
    is_planted[planted_at] = True
    counts = np.where(is_planted, 1, per_row)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1])
    bulk_pos = (indptr[:-1][~is_planted][:, None] + np.arange(per_row)).ravel()
    indices[bulk_pos] = cols.ravel()
    data[bulk_pos] = vals.ravel()
    indices[indptr[:-1][is_planted]] = bulk_cols + np.repeat(np.arange(rare_cols), planted_per_col)
    data[indptr[:-1][is_planted]] = 3.0 * rng.standard_normal(planted)
    return sp.csr_matrix((data, indices, indptr), shape=(n, d))


def gaussian_csr(rng, n, d):
    return sp.csr_matrix(rng.standard_normal((n, d)))


def power_law_csr(rng, n, d, decay=0.8):
    """Rows scaled by (i+1)^-decay, as in the test suite's corpus."""
    return sp.csr_matrix(rng.standard_normal((n, d)) * ((np.arange(n) + 1.0) ** -decay)[:, None])


def isolated_direction_csr(rng, n, d):
    """n-1 rows in a (d-1)-subspace plus one row alone in the last
    direction (leverage exactly 1), rotated, as in the test suite."""
    body = rng.standard_normal((n - 1, d))
    body[:, -1] = 0.0
    iso = np.zeros((1, d))
    iso[0, -1] = 1.0
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return sp.csr_matrix(np.vstack([body, iso]) @ q)


def child_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


# ---------------------------------------------------------------------------
# In-memory operations (library calls)
# ---------------------------------------------------------------------------

@dataclass
class Case:
    """One input matrix with everything its operations need."""

    label: str
    csr: sp.csr_matrix
    A: object                      # rowsketch.SparseRowMatrix (None for CLI runs)
    seeds: list[int]               # one per pipeline, then one for solve
    b: np.ndarray
    cap: float
    oracle: checks.Oracle | None = None

    def facts(self) -> checks.Oracle:
        if self.oracle is None:
            self.oracle = checks.Oracle(self.csr)
        return self.oracle


def make_case(rs, label: str, csr: sp.csr_matrix, seed: int, cap: float) -> Case:
    seeds = child_seeds(seed, len(PIPELINES) + 2)
    b = np.random.default_rng(seeds[-1]).standard_normal(csr.shape[0])
    A = rs.SparseRowMatrix.from_scipy(csr) if rs is not None else None
    return Case(label, csr, A, seeds[:-1], b, cap)


def run_pipeline(rs, name: str, A, cfg):
    if name == "halving":
        return rs.repeated_halving(A, cfg)
    if name == "refinement":
        return rs.refinement_sampling(A, cfg)
    return rs.input_sparsity_sketch(A, ISPARSE_THETA, cfg.epsilon, cfg)


def library_ops(rs, case: Case) -> list[Op]:
    """sketch+verify per pipeline, then scores, solve and reweight of one case.

    ``rs`` is the rowsketch package; functions are looked up on it at call
    time so that a traced run sees its wrappers.
    """
    ops: list[Op] = []
    sketches: dict[str, object] = {}
    for p, seed in zip(PIPELINES, case.seeds):
        cfg = rs.SketchConfig(seed=seed, epsilon=EPSILON)

        def sketch(p=p, cfg=cfg):
            sketches[p] = run_pipeline(rs, p, case.A, cfg)
            return sketches[p]

        def check_sketch(res):
            return checks.check_sketch(case.facts(), res.sample.row_indices,
                                       res.sample.weights, res.check_lambda, EPSILON)

        def verify(p=p):
            res = sketches.pop(p)
            rep = rs.spectral_check(case.A, rs.materialize(case.A, res.sample), res.check_lambda)
            return res, rep.passes

        def check_verify(out):
            res, passes = out
            return checks.check_verify(case.facts(), res.sample.row_indices,
                                       res.sample.weights, res.check_lambda, passes)

        ops.append(Op("sketch", f"{case.label}:{p}", sketch, check_sketch,
                      lambda res: res.rows_kept))
        ops.append(Op("verify", f"{case.label}:{p}", verify, check_verify))

    u = np.full(case.A.n_rows, case.cap)
    solve_cfg = rs.SketchConfig(seed=case.seeds[-1], epsilon=EPSILON)

    def solve():
        sk = rs.repeated_halving(case.A, solve_cfg)
        sol = rs.precondition_solve(case.A, case.b, sk, tol=SOLVE_TOL)
        if not sol.converged:
            raise OperationFailed("solver did not converge")
        return sol

    def reweight():
        W, cert = rs.compute_reweighting(case.A, u, tol=REWEIGHT_TOL)
        if not cert.converged:
            raise OperationFailed("reweighting did not converge")
        return W

    ops.append(Op("scores", case.label, lambda: rs.exact_leverage_scores(case.A),
                  lambda s: checks.check_scores(case.facts(), s.values)))
    ops.append(Op("solve", case.label, solve,
                  lambda sol: checks.check_solve(case.facts(), case.b, sol.x, SOLVE_TOL)))
    ops.append(Op("reweight", case.label, reweight,
                  lambda W: checks.check_reweight(case.facts(), W.weights, u, REWEIGHT_TOL)))
    return ops



# ---------------------------------------------------------------------------
# CLI operations (rowsketch.cli.main on files)
# ---------------------------------------------------------------------------

def _load_tsv(path: str, skip: int) -> np.ndarray:
    return np.loadtxt(path, delimiter="\t", skiprows=skip, ndmin=2, comments=None)


def read_sample_tsv(path: str) -> tuple[int, np.ndarray, np.ndarray]:
    with open(path, encoding="ascii") as fh:
        first = fh.readline()
    if not first.startswith("# parent_rows="):
        raise ValueError(f"{path}: missing parent_rows line")
    table = _load_tsv(path, 2)
    return int(first.split("=", 1)[1]), table[:, 0], table[:, 1]


def read_column_tsv(path: str) -> np.ndarray:
    table = _load_tsv(path, 1)
    if not np.array_equal(table[:, 0], np.arange(table.shape[0])):
        raise ValueError(f"{path}: row indices are not 0..n-1")
    return table[:, 1]


def cli_ops(rs, case: Case, workdir: str) -> list[Op]:
    """The same round as ``library_ops``, each step a ``rowsketch`` subcommand."""
    from rowsketch import cli

    def path(name):
        return os.path.join(workdir, name)

    matrix, rhs = path("A.mtx"), path("b.tsv")
    ops: list[Op] = []
    lams: dict[str, float] = {}

    def run(*argv, ok=(0,)):
        code = cli.main(list(argv))
        if code not in ok:
            raise OperationFailed(f"rowsketch {argv[0]} exit status {code}")
        return code

    for p, seed in zip(PIPELINES, case.seeds):
        sample, report = path(f"sample-{p}.tsv"), path(f"sketch-{p}.json")

        def sketch(p=p, seed=seed, sample=sample, report=report):
            return run("sketch", matrix, "--method", p, "--seed", str(seed),
                       "-o", sample, "--report", report)

        def check_sketch(code, p=p, sample=sample, report=report):
            with open(report, encoding="ascii") as fh:
                lams[p] = float(json.load(fh)["check_lambda"])
            parent, idx, w = read_sample_tsv(sample)
            if parent != case.csr.shape[0]:
                return f"parent_rows={parent}, matrix has {case.csr.shape[0]}"
            return checks.check_sketch(case.facts(), idx, w, lams[p], EPSILON)

        def rows_kept(code, sample=sample):
            return read_sample_tsv(sample)[1].size

        def verify(p=p, sample=sample):
            # The check of a sketch that ran sets lams[p]; popping it makes a
            # verify after a failed sketch fail too, not reuse the last sample.
            lam = lams.pop(p)
            return run("verify", matrix, sample, "--lambda", repr(lam),
                       "--report", path(f"verify-{p}.json"), ok=(0, 1)), lam

        def check_verify(out, sample=sample):
            code, lam = out
            _, idx, w = read_sample_tsv(sample)
            return checks.check_verify(case.facts(), idx, w, lam, code == 0)

        ops.append(Op("sketch", f"{case.label}:{p}", sketch, check_sketch, rows_kept))
        ops.append(Op("verify", f"{case.label}:{p}", verify, check_verify))

    scores, x, weights = path("scores.tsv"), path("x.tsv"), path("weights.tsv")
    u = np.full(case.csr.shape[0], case.cap)

    ops.append(Op("scores", case.label, lambda: run("scores", matrix, "-o", scores),
                  lambda _: checks.check_scores(case.facts(), read_column_tsv(scores))))
    ops.append(Op("solve", case.label,
                  lambda: run("solve", matrix, rhs, "--seed", str(case.seeds[-1]),
                              "-o", x, "--report", path("solve.json")),
                  lambda _: checks.check_solve(case.facts(), case.b, read_column_tsv(x), SOLVE_TOL)))
    ops.append(Op("reweight", case.label,
                  lambda: run("reweight", matrix, "--alpha", repr(case.cap),
                              "-o", weights, "--report", path("reweight.json")),
                  lambda _: checks.check_reweight(case.facts(), read_column_tsv(weights),
                                                  u, REWEIGHT_TOL)))
    return ops


def write_inputs(case: Case, workdir: str) -> None:
    scipy.io.mmwrite(os.path.join(workdir, "A.mtx"), case.csr, precision=17)
    with open(os.path.join(workdir, "b.tsv"), "w", encoding="ascii") as fh:
        fh.write("row_index\tvalue\n")
        np.savetxt(fh, np.column_stack([np.arange(case.b.size), case.b]),
                   fmt=("%d", "%.17g"), delimiter="\t")


# ---------------------------------------------------------------------------
# The three workloads
# ---------------------------------------------------------------------------

TALL = dict(n=120_000, d=32, per_row=2, rare_cols=2, planted_per_col=4)
TALL_CAP = 0.5
SMALL_SHAPES = ((1024, 8), (2048, 16), (4096, 8), (8192, 16))
SMALL_FAMILIES = (("gaussian", gaussian_csr), ("power-law", power_law_csr),
                  ("isolated", isolated_direction_csr))
SMALL_CAP_PER_ROW = 8.0    # uniform cap 8 d / n
CLI = dict(n=16_000, d=24, per_row=4, rare_cols=2, planted_per_col=4)
CLI_CAP = 0.5


def build(rs, name: str, seed: int, workdir: str) -> Workload:
    """Generate the workload's inputs (and files) from its seed."""
    if name == "tall-sparse":
        s_mat, s_case = child_seeds(seed, 2)
        csr = tall_sparse_csr(np.random.default_rng(s_mat), **TALL)
        case = make_case(rs, "tall", csr, s_case, TALL_CAP)
        return Workload(name, lambda: library_ops(rs, case))
    if name == "small-sweep":
        cases = []
        seeds = iter(child_seeds(seed, 2 * len(SMALL_SHAPES) * len(SMALL_FAMILIES)))
        for n, d in SMALL_SHAPES:
            for fam, maker in SMALL_FAMILIES:
                csr = maker(np.random.default_rng(next(seeds)), n, d)
                cases.append(make_case(rs, f"{fam}-{n}x{d}", csr, next(seeds),
                                       SMALL_CAP_PER_ROW * d / n))
        return Workload(name, lambda: [op for c in cases for op in library_ops(rs, c)])
    if name == "cli-files":
        s_mat, s_case = child_seeds(seed, 2)
        csr = tall_sparse_csr(np.random.default_rng(s_mat), **CLI)
        case = make_case(None, "cli", csr, s_case, CLI_CAP)
        write_inputs(case, workdir)
        return Workload(name, lambda: cli_ops(rs, case, workdir))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("tall-sparse", "small-sweep", "cli-files")
