"""End-to-end sketchers built from uniform sampling and score estimation.

Each pipeline returns a ``SketchResult`` whose sample always indexes the
ORIGINAL matrix; intermediate levels only ever inform score estimates.
Output weights carry a single 1/sqrt(1 + eps) normalization from the final
sampling stage, so a successful run satisfies the canonical one-sided
spectral sandwich at its configured lambda.  Intermediate sketches are left
unnormalized: they are unbiased for their parents, and normalizing them
would compound a deterministic (1 + eps) inflation into every downstream
score estimate.  Each run keeps one ``_Run`` record: the estimate masses,
solves and levels (or iterations) it reports, which the recursions add to
as they go rather than return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fastlev import approx_generalized_leverage, estimate_cost
from .leverage import PseudoinverseFactor, ScoreVector, factor_gram
from .matrix import (SparseRowMatrix, WeightedRowSample, _binade_shift, _binade_shifted,
                     materialize)
from .sampling import SketchConfig, _undersample, log_dim, rng_from, sample


class PipelineError(RuntimeError):
    pass


class NonConvergenceError(PipelineError):
    """Iteration budget exhausted; carries the recorded estimate-sum history."""

    def __init__(self, message: str, history: list[float]):
        super().__init__(message)
        self.history = list(history)


@dataclass(frozen=True)
class SketchResult:
    """A row sketch of the original matrix plus run accounting.

    ``sum_estimates_history`` records the L1 mass of the score estimates at
    each sampling round; ``solve_count`` is the factorizations and solves
    this run's score estimates spent, one factorization per estimate even
    where two estimates against one reference share it; ``check_lambda``
    is the spectral grade the output targets.
    """

    sample: WeightedRowSample
    rows_kept: int
    sum_estimates_history: tuple[float, ...]
    levels_or_iterations: int
    solve_count: int
    seed: int
    check_lambda: float


def _compose(parent: WeightedRowSample, local: WeightedRowSample) -> WeightedRowSample:
    """Sample-of-a-sample: push local indices/weights through the parent."""
    if local.parent_rows != len(parent):
        raise ValueError("local sample does not match parent length")
    idx = parent.row_indices[local.row_indices]
    w = parent.weights[local.row_indices] * local.weights
    order = np.argsort(idx)
    return WeightedRowSample(parent.parent_rows, idx[order], w[order])


@dataclass
class _Run:
    """The record of one sketch run: the estimate masses it records, the
    solves its score estimates spend and the levels or iterations it
    completes.  Every sketcher keeps one and hands it to :func:`_finish`."""

    history: list[float] = field(default_factory=list)
    solves: int = 0
    levels: int = 0

    def estimate(self, A: SparseRowMatrix, B: SparseRowMatrix, theta: float,
                 cfg: SketchConfig, salt: tuple,
                 factor: PseudoinverseFactor | None = None) -> ScoreVector:
        u = approx_generalized_leverage(A, B, theta, cfg, salt=salt, factor=factor)
        self.solves += estimate_cost(theta, cfg)
        return u


def _resample(A: SparseRowMatrix, target: WeightedRowSample | None,
              B: SparseRowMatrix, theta: float, rate, cfg: SketchConfig,
              salts: tuple[tuple, tuple], run: _Run, record: bool = True,
              factor: PseudoinverseFactor | None = None) -> WeightedRowSample:
    """Score the rows of ``target`` (None: all of A, in place) against B,
    whose ``factor_gram`` is ``factor`` if given, record the estimate mass
    in ``run`` (if ``record``), sample at ``rate`` (a number or a function
    of the mass) with ``salts`` = (estimate salt, draw salt), and return the
    kept rows as a sample of A."""
    T = A if target is None else materialize(A, target)
    u = run.estimate(T, B, theta, cfg, salts[0], factor).with_infinite_as(1.0)
    mass = float(u.sum())
    if record:
        run.history.append(mass)
    alpha = rate(mass) if callable(rate) else rate
    local = sample(u, alpha, cfg, A.n_cols, salt=salts[1])
    return local if target is None else _compose(target, local)


def _coarse_fine(A: SparseRowMatrix, target: WeightedRowSample | None,
                 B: SparseRowMatrix, theta_coarse: float, theta_fine: float,
                 alpha: float, cfg: SketchConfig, salts: tuple[tuple, ...],
                 run: _Run, record_coarse: bool) -> WeightedRowSample:
    """Factor B once; keep rows of ``target`` by cheap d^theta_coarse
    estimates, then re-estimate the kept rows at theta_fine and cut again,
    both at rate ``alpha``.  ``salts`` holds the coarse pass's pair, then
    the fine pass's; the coarse mass is recorded if ``record_coarse``."""
    f = factor_gram(B)
    big = _resample(A, target, B, theta_coarse, alpha, cfg, salts[:2], run,
                    record=record_coarse, factor=f)
    return _resample(A, big, B, theta_fine, alpha, cfg, salts[2:], run, factor=f)


# Recursions pass operands of at most 20 d ln d rows through at weight 1;
# refinement stops once its estimate mass is at most 20 d.
_BASE_ROWS_FACTOR = 20.0
_STOP_MASS_FACTOR = 20.0


def _base_rows(d: int) -> int:
    return int(math.ceil(_BASE_ROWS_FACTOR * max(d, 1) * log_dim(d)))


def _depth_cap(n: int, d: int) -> int:
    return int(math.ceil(math.log2(max(n / max(d, 1), 2.0)))) + 8


def _finish(sample_: WeightedRowSample, run: _Run, cfg: SketchConfig,
            check_lambda: float, normalize_eps: float | None) -> SketchResult:
    if normalize_eps is not None:
        sample_ = sample_.scaled(1.0 / math.sqrt(1.0 + normalize_eps))
    return SketchResult(
        sample=sample_,
        rows_kept=len(sample_),
        sum_estimates_history=tuple(run.history),
        levels_or_iterations=run.levels,
        solve_count=run.solves,
        seed=cfg.seed,
        check_lambda=check_lambda,
    )


# ---------------------------------------------------------------------------
# Repeated halving (each level one pass, or the coarse/fine pair)
# ---------------------------------------------------------------------------

def _halve(A: SparseRowMatrix, idx: np.ndarray, level: int, cfg: SketchConfig,
           theta_fine: float, theta_coarse: float | None, alpha: float,
           run: _Run, salt: tuple) -> WeightedRowSample:
    """Recursive halving on A[idx] (idx sorted) at recursion depth
    ``level``; returns a sample of A and counts each level it resamples
    in ``run``."""
    m = idx.size
    if m <= _base_rows(A.n_cols):
        return WeightedRowSample(A.n_rows, idx, np.ones(m))
    cap = _depth_cap(A.n_rows, A.n_cols)
    if level >= cap:
        raise PipelineError(f"halving recursion exceeded depth cap {cap}")
    draws = rng_from(cfg.seed, *salt, level, "uniform").random(m)
    sub = _halve(A, idx[draws < 0.5], level + 1, cfg, theta_fine, theta_coarse, alpha,
                 run, salt)
    B = materialize(A, sub)
    target = None if m == A.n_rows else WeightedRowSample(A.n_rows, idx, np.ones(m))
    run.levels += 1
    if theta_coarse is None:
        return _resample(A, target, B, theta_fine, alpha, cfg,
                         ((*salt, level, "jl"), (*salt, level, "sample")), run)
    return _coarse_fine(A, target, B, theta_coarse, theta_fine, alpha, cfg,
                        ((*salt, level, "coarse"), (*salt, level, "big"),
                         (*salt, level, "fine"), (*salt, level, "small")), run,
                        record_coarse=False)


def repeated_halving(A: SparseRowMatrix, cfg: SketchConfig) -> SketchResult:
    """Recursive sketcher: halve uniformly, estimate scores against the
    recursively sketched half, resample the current level by the estimates.

    Matrices of at most 20 d ln d rows pass through untouched at weight 1.
    The output targets a (1+eps)/(1-eps) spectral grade with
    O(d log d / eps^2) rows.
    """
    run = _Run()
    out = _halve(A, np.arange(A.n_rows, dtype=np.int64), 0, cfg, cfg.resolve_theta(A.n_cols),
                 None, cfg.epsilon ** -2, run, ("halving",))
    lam = (1.0 + cfg.epsilon) / (1.0 - cfg.epsilon)
    return _finish(out, run, cfg, lam, cfg.epsilon if run.levels else None)


# ---------------------------------------------------------------------------
# Refinement sampling
# ---------------------------------------------------------------------------

def refinement_sampling(A: SparseRowMatrix, cfg: SketchConfig) -> SketchResult:
    """Iteratively tighten all-ones overestimates by undersampled sketches.

    Each round undersamples at rate 6d over the current estimate mass,
    re-estimates against the sketch, and takes coordinatewise minima; the
    mass falls by a constant factor per round until it reaches
    20 d, after which one final sample of A is drawn.

    The sketched estimates default to theta = 1/(2 log d) here: the d^theta
    one-sided safety factor multiplies the estimate mass, and at 1/log d it
    would eat the entire headroom of the per-round contraction.
    """
    n, d = A.n_rows, A.n_cols
    theta = cfg.theta if cfg.theta is not None else 1.0 / (2.0 * log_dim(d))
    stop = _STOP_MASS_FACTOR * d
    cap = 4 * int(math.ceil(math.log2(max(n / max(d, 1), 2.0)))) + 16
    tau = np.ones(n)
    run = _Run([float(n)])
    while tau.sum() > stop:
        if run.levels >= cap:
            raise NonConvergenceError(
                f"refinement failed to reach {stop:g} within {cap} iterations", run.history)
        alpha = 6.0 * d / float(tau.sum())
        S = _undersample(tau, alpha, cfg, d, ("refine", run.levels, "draw"))
        u = run.estimate(A, materialize(A, S), theta, cfg, ("refine", run.levels, "jl"))
        tau = np.where(u.infinite, tau, np.minimum(tau, u.values))
        run.history.append(float(tau.sum()))
        run.levels += 1
    final = sample(tau, cfg.epsilon ** -2, cfg, d, salt=("refine", "final"))
    lam = (1.0 + cfg.epsilon) / (1.0 - cfg.epsilon)
    return _finish(final, run, cfg, lam, cfg.epsilon)


# ---------------------------------------------------------------------------
# Generic row sampling scheme (uniform -> recurse -> estimate+sample -> recurse)
# ---------------------------------------------------------------------------

PRESETS = ("head", "tail", "refinement", "sqrt")

# Count-driven presets sample at rates too weak for the per-level matrix
# Chernoff bound to bite, so their output fluctuation budget is pinned
# empirically at desk scale and absorbed into the output normalization.
_COUNT_DRIVEN_OUTPUT_EPS = 0.6


def _preset_sizes(preset: str, n: int, d: int) -> tuple[int, int]:
    """``(n1, n3)`` of the tail or sqrt preset for an n-row operand: n1
    sizes the uniform cut, n3 is the expected row count of the
    estimate-driven cut."""
    if preset == "tail":
        return max(int(math.ceil(d * log_dim(d))), 1), max(n // 2, 1)
    n13 = max(int(math.ceil(math.sqrt(n * d * log_dim(d)))), 1)
    return n13, n13


def _generic(A: SparseRowMatrix, current: WeightedRowSample, depth: int,
             preset: str, cfg: SketchConfig, run: _Run) -> WeightedRowSample:
    """One level of the generic scheme on ``current`` at recursion depth
    ``depth``; returns a sample of A and counts each level in ``run``."""
    d = A.n_cols
    cap = _depth_cap(A.n_rows, d)
    if depth >= cap:
        raise PipelineError(f"generic scheme exceeded depth cap {cap}")
    run.levels += 1
    nhat = len(current)
    base_rows = _base_rows(d)
    n1, n3 = _preset_sizes(preset, nhat, d)

    # line 1: uniform cut of the current rows
    rate = min(n1 / max(nhat, 1), 1.0)
    draws = rng_from(cfg.seed, "generic", depth, "uniform").random(nhat)
    a1 = WeightedRowSample(A.n_rows, current.row_indices[draws < rate],
                           current.weights[draws < rate])
    # line 2: approximate the cut recursively when it is still large
    a2 = a1 if len(a1) <= base_rows else _generic(A, a1, depth + 1, preset, cfg, run)

    # line 3: estimate scores against the approximation, sample n3 rows.
    # tail draws from the current operand, sqrt from all of A.  A current
    # operand as long as A is A at weight 1: only a uniform cut that keeps
    # every row reaches that length, and cuts keep the weights
    whole = preset == "sqrt" or nhat == A.n_rows
    a3 = _resample(A, None if whole else current, materialize(A, a2),
                   cfg.resolve_theta(d),
                   lambda mass: n3 / max(cfg.c * log_dim(d) * mass, 1e-300), cfg,
                   (("generic", depth, "jl"), ("generic", depth, "sample")), run)
    # line 4: recurse when the result is still large and actually shrank
    if len(a3) <= base_rows or len(a3) >= nhat:
        return a3
    return _generic(A, a3, depth + 1, preset, cfg, run)


def generic_scheme(A: SparseRowMatrix, preset: str, cfg: SketchConfig) -> SketchResult:
    """The generic scheme's named instance ``preset``, one of :data:`PRESETS`.

    ``head`` and ``refinement`` are exactly :func:`repeated_halving` and
    :func:`refinement_sampling` and return their results unchanged.
    ``tail`` and ``sqrt`` run the four-line scheme (uniform cut, recursive
    approximation, estimate-driven resampling, recursion), re-deriving
    their sample sizes from the operand at each level: tail cuts to
    d log d rows and then to half the operand, sqrt to sqrt(n d log d)
    rows twice.  Their counts are too small for a per-level Chernoff bound,
    so the output is scaled by 1/sqrt(1.6) and graded at
    (1 + 0.6)/(1 - 0.6) = 4 whatever ``cfg.epsilon`` is.
    """
    if preset == "head":
        return repeated_halving(A, cfg)
    if preset == "refinement":
        return refinement_sampling(A, cfg)
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r} ({', '.join(PRESETS)})")
    run = _Run()
    out = _generic(A, WeightedRowSample.identity(A.n_rows), 0, preset, cfg, run)
    eps = _COUNT_DRIVEN_OUTPUT_EPS
    return _finish(out, run, cfg, (1.0 + eps) / (1.0 - eps), eps)


# ---------------------------------------------------------------------------
# Input-sparsity two-stage composition
# ---------------------------------------------------------------------------

def input_sparsity_sketch(A: SparseRowMatrix, theta: float, epsilon: float,
                          cfg: SketchConfig) -> SketchResult:
    """Coarse-theta halving to a constant-factor sketch, then two (1+eps/2)
    sampling stages composing to a (1+eps) grade.

    Stage 1 runs halving with cheap d^theta-distortion estimates and a
    per-level constant-factor re-estimation; stage 2 draws an
    O(d^(1+theta) log d / eps^2) sample of A by coarse estimates against the
    stage-1 sketch, then re-refines that sample down to
    O(d log d / eps^2) rows with constant-factor estimates.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    d = A.n_cols
    theta_fine = 1.0 / log_dim(d)
    run = _Run()
    s1 = _halve(A, np.arange(A.n_rows, dtype=np.int64), 0, cfg, theta_fine, theta,
                cfg.epsilon ** -2, run, ("isparse",))
    lam = (1.0 + epsilon) / (1.0 - epsilon / 20.0)
    if run.levels == 0:
        # nothing to do at this size: the matrix is its own sketch
        return _finish(s1, run, cfg, lam, None)
    final = _coarse_fine(A, None, materialize(A, s1), theta, theta_fine,
                         (epsilon / 2.0) ** -2, cfg,
                         (("isparse", "s2a"), ("isparse", "s2a-draw"),
                          ("isparse", "s2b"), ("isparse", "s2b-draw")), run,
                         record_coarse=True)
    run.levels += 2
    return _finish(final, run, cfg, lam, epsilon / 2.0)


def final_refinement(A: SparseRowMatrix, sketch: SketchResult, epsilon: float,
                     cfg: SketchConfig) -> SketchResult:
    """Sample A once by constant-factor estimates against a certified sketch.

    When d log d / eps^2 already reaches n the whole matrix is returned at
    weight 1.  Output rows scale as 1/eps^2.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    d = A.n_cols
    run = _Run()
    if d * log_dim(d) * epsilon ** -2 >= A.n_rows:
        return _finish(WeightedRowSample.identity(A.n_rows), run, cfg, 1.0, None)
    S = _resample(A, None, materialize(A, sketch.sample), 1.0 / log_dim(d),
                  epsilon ** -2, cfg, (("final-refine",), ("final-refine", "draw")), run)
    run.levels += 1
    lam = (1.0 + epsilon) / (1.0 - epsilon) if epsilon < 1.0 else math.inf
    return _finish(S, run, cfg, lam, epsilon)


# ---------------------------------------------------------------------------
# Preconditioned least squares
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveResult:
    x: np.ndarray
    iterations: int
    relative_residual: float
    converged: bool


def normal_equations_cg(A: SparseRowMatrix, b: np.ndarray,
                        preconditioner: PseudoinverseFactor | None = None,
                        tol: float = 1e-8, max_iters: int = 1000) -> SolveResult:
    """Least squares min ||Ax - b|| by CGLS (conjugate gradients on the
    normal equations in least-squares form) on A W, returning x = W y.

    W = V diag(1/sigma) from ``preconditioner``, the Gram factor of a sketch
    of A, or the identity without one.  The loop updates the residual
    r = b - Ax and stops once ||A'r|| <= tol ||A'b||; see :func:`_prologue`
    and :func:`_epilogue` for the scaling and the reported residual.
    """
    csr, b, rhs, ea, eb = _prologue(A, b, tol, max_iters)
    W = (np.eye(A.n_cols) if preconditioner is None else
         preconditioner.right_singular_vectors / np.ldexp(preconditioner.singular_values, ea))
    bound = tol * float(np.linalg.norm(rhs))
    y = np.zeros(W.shape[1])
    r = b
    s = W.T @ rhs
    p, gamma = s, float(s @ s)
    iterations = 0
    for k in range(1, max_iters + 1):
        q = csr @ (W @ p)
        delta = float(q @ q)
        if delta <= 0.0:
            break
        step = gamma / delta
        y = y + step * p
        r = r - step * q
        iterations = k
        g = csr.T @ r
        if float(np.linalg.norm(g)) <= bound:
            break
        s = W.T @ g
        gamma_new = float(s @ s)
        p = s + (gamma_new / gamma) * p
        gamma = gamma_new
    return _epilogue(csr, b, rhs, W @ y, iterations, tol, ea - eb)


def normal_equations_gradient_descent(A: SparseRowMatrix, b: np.ndarray,
                                      tol: float = 1e-8,
                                      max_iters: int = 1000) -> SolveResult:
    """Unpreconditioned fixed-point baseline: x += step * A'(b - Ax).

    The step is 1/lambda_max(A'A) (ten power iterations), giving the
    textbook contraction of 1 - 1/cond(A'A) per sweep; on ill-conditioned
    instances this stalls, which is exactly what sketch preconditioning
    repairs.  Stops, checks, scales and reports as :func:`normal_equations_cg`.
    """
    csr, b, rhs, ea, eb = _prologue(A, b, tol, max_iters)
    bound = tol * float(np.linalg.norm(rhs))
    x = np.zeros(A.n_cols)
    iterations = 0
    if rhs.any():  # else x = 0 solves it, and A may be all zero
        v = rng_from(0, "power-iteration").standard_normal(A.n_cols)
        for _ in range(10):
            v = csr.T @ (csr @ v)
            v /= np.linalg.norm(v)
        step = 1.0 / float(v @ (csr.T @ (csr @ v)))
        while iterations < max_iters:
            g = csr.T @ (b - csr @ x)
            if float(np.linalg.norm(g)) <= bound:
                break
            x = x + step * g
            iterations += 1
    return _epilogue(csr, b, rhs, x, iterations, tol, ea - eb)


def _prologue(A: SparseRowMatrix, b: np.ndarray, tol: float, max_iters: int):
    """Check a solver's arguments; return ``(2^ea A as scipy CSR, 2^eb b,
    their A'b, ea, eb)`` with the shifts of :func:`_binade_shift`.  That is
    exact, and the solution is 2^(ea - eb) times that of the shifted system."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.n_rows,):
        raise ValueError("right-hand side length must equal n_rows")
    if not tol >= 0.0:
        raise ValueError("tol must be nonnegative")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    A, ea = _binade_shifted(A)
    eb = _binade_shift(b)
    csr = A.to_scipy()
    b = np.ldexp(b, eb)
    return csr, b, csr.T @ b, ea, eb


def _epilogue(csr, b, rhs, x, iterations: int, tol: float, shift: int) -> SolveResult:
    """x of the shifted system scaled back by 2^shift, with ||A'(b - Ax)|| /
    ||A'b|| recomputed on it (0 when A'b = 0) deciding ``converged``."""
    rhs_norm = float(np.linalg.norm(rhs))
    rel = float(np.linalg.norm(csr.T @ (b - csr @ x))) / rhs_norm if rhs_norm else 0.0
    return SolveResult(np.ldexp(x, shift), iterations, rel, rel <= tol)


def precondition_solve(A: SparseRowMatrix, b: np.ndarray, sketch: SketchResult,
                       tol: float = 1e-8, max_iters: int = 200) -> SolveResult:
    """Least squares min ||Ax - b|| by :func:`normal_equations_cg` on A W,
    with W = V diag(1/sigma) from the Gram factor of the sketch's rows.

    For a sketch of spectral grade lambda, A W has condition at most
    sqrt(lambda), so iteration counts stay small whatever A's conditioning.
    """
    B = materialize(A, sketch.sample)
    f = factor_gram(B)
    if f.rank == 0:
        raise PipelineError("sketch has rank zero; cannot precondition")
    return normal_equations_cg(A, b, preconditioner=f, tol=tol, max_iters=max_iters)
