"""Generalized leverage overestimates: exact below the JL size, sketched above it.

For a small reference matrix B = U diag(sigma) V' of rank r,
tau^B_i(A) = ||B (B'B)^+ a_i||^2 = ||diag(1/sigma) V' a_i||^2.  The JL
leverage estimator of Drineas et al. (arXiv:1109.3843) replaces the r x d
block diag(1/sigma) V' by a seeded Gaussian sketch of k = ceil(64 / theta)
rows (``SketchConfig.jl_rows_constant``), which pays only when k < r.  So
:func:`approx_generalized_leverage` has two branches, picked by k and
rank(B) alone:

* k >= rank(B), every pipeline's case for d up to about 380 at
  theta = 1/ln d: rows are scored exactly, through V diag(1/sigma) in the
  pass of :func:`~rowsketch.leverage.generalized_leverage_scores`.  Nothing
  is drawn, and the estimate is d^theta tau^B bit for bit.
* k < rank(B): with G a k x n_B Gaussian, G B (B'B)^+ = (G U) diag(1/sigma)
  V', and G U is itself a k x r standard Gaussian Z.  So the k x d matrix
  M = (1/sqrt(k)) Z diag(1/sigma) V' is drawn in d-space, at the cost of
  k x r draws and no pass over B, with the distribution of the sketch drawn
  over B's rows.  ||M a_i||^2 estimates each score within a d^theta
  distortion, and rows are scored through M' itself: O(k nnz(a_i)) per row.

Both branches multiply by the same safety factor d^theta.  On the sketch
it turns a two-sided distortion into a one-sided overestimate at the
configured confidence; on exact scores it keeps the estimate mass, and so
the rows the pipelines keep, at the scale the sketch gives.

Rows leaning into ker(B) are flagged in the same pass by the rule of the
exact generalized scores: the row-space block is joined by the orthonormal
basis N of ker(B) from ``leverage._kernel_basis``, d - rank(B) columns and
none at full column rank, and a row is flagged when
||N'a_i|| > KERNEL_TOL * ||a_i||, for entries from about 1e-300 to 1e300.
So the flags are deterministic and equal those of
:func:`~rowsketch.leverage.generalized_leverage_scores` on both branches;
the Gaussian sketch is the only draw.  :func:`kernel_probe` draws random
vectors in ker(B) for checks outside the estimator.
"""

from __future__ import annotations

import numpy as np

from .leverage import PseudoinverseFactor, ScoreVector, _kernel_basis, _score_rows, factor_gram
from .matrix import SparseRowMatrix
from .sampling import SketchConfig, rng_from


def sketch_rows(theta: float, cfg: SketchConfig) -> int:
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    return int(np.ceil(cfg.jl_rows_constant / theta))


def estimate_cost(theta: float, cfg: SketchConfig) -> int:
    """The fixed budget of solves one :func:`approx_generalized_leverage`
    call is charged: 1 + k + ``cfg.kernel_probes``, k = :func:`sketch_rows`.

    It is a budget, not a count of the work done, and it is the same on
    both branches, so every run's ``solve_count`` stays as it was: it stands
    for one Gram factorization (counted once per call, also where B's kept
    factor serves it), the k sketch rows, and the kernel flags, which take the
    exact basis of ker(B) and draw no probe.  An exact-branch call, k >=
    rank(B), solves against r <= k directions and draws nothing."""
    return 1 + sketch_rows(theta, cfg) + cfg.kernel_probes


def gaussian_sketch(k: int, n: int, cfg: SketchConfig, salt=()) -> np.ndarray:
    """k x n independent standard normal draws, keyed by (seed, salt)."""
    return rng_from(cfg.seed, "gaussian-sketch", *salt).standard_normal((k, n))


def build_projector_sketch(f: PseudoinverseFactor, theta: float, cfg: SketchConfig,
                           salt=()) -> np.ndarray:
    """M = (1/sqrt(k)) Z diag(1/sigma) V' as a dense k x d block.

    ``f = factor_gram(B)`` for the reference B = U diag(sigma) V', and Z is
    a k x rank(B) Gaussian, so M has the distribution of (1/sqrt(k)) G B
    (B'B)^+ for a k x n_B Gaussian G, and E ||M a_i||^2 equals tau^B_i
    exactly.  At rank 0, M is a k x d zero block.
    :func:`approx_generalized_leverage` scores rows through M' when
    k < rank(B); otherwise it scores exactly, and no M is drawn.
    """
    k = sketch_rows(theta, cfg)
    Z = gaussian_sketch(k, f.rank, cfg, salt=salt)
    return (Z / f.singular_values) @ f.right_singular_vectors.T / np.sqrt(k)


def kernel_probe(f: PseudoinverseFactor, t_probes: int, cfg: SketchConfig,
                 salt=()) -> tuple[np.ndarray, np.ndarray]:
    """Random vectors in ker(B) for ``f = factor_gram(B)``: ``(probes, source_norms)``.

    Row t of the t_probes x d array ``probes`` is the kernel projection
    z_t = (I - (B'B)^+ (B'B)) g_t of an independent Gaussian g_t, and
    ``source_norms[t]`` is ||g_t||.  Detection thresholds are relative to
    ||g_t||, not ||z_t||: with a trivial kernel z_t is pure roundoff, and a
    ||z_t||-relative test would flag every row.  A row with a genuine
    kernel component misses all t probes with probability zero in exact
    arithmetic; multiple probes cover roundoff.
    """
    if t_probes < 1:
        raise ValueError("need at least one probe")
    g = rng_from(cfg.seed, "kernel-probe", *salt).standard_normal((f.n_cols, t_probes))
    z = g - f.rowspace_project(g)
    return np.ascontiguousarray(z.T), np.linalg.norm(g, axis=0)


def approx_generalized_leverage(A: SparseRowMatrix, B: SparseRowMatrix, theta: float,
                                cfg: SketchConfig, salt=()) -> ScoreVector:
    """Overestimates d^theta * tau^B(A), exact or sketched: see the module notes.

    With k = :func:`sketch_rows` (theta, cfg), which validates theta:
    k >= rank(B) scores A exactly, in the pass of
    :func:`generalized_leverage_scores`, and returns d^theta * tau^B bit for
    bit, drawing nothing; k < rank(B) returns d^theta * ||M a_i||^2 for
    M = :func:`build_projector_sketch` (f, theta, cfg, salt), within a
    d^(2 theta) envelope of tau^B at the configured confidence.  The
    d^theta safety factor is the same on both branches.  A row is flagged
    infinite when ||N'a_i|| exceeds KERNEL_TOL * ||a_i||, N the orthonormal
    basis of ker(B): the rule, and the flags, of
    :func:`generalized_leverage_scores`, for entries from about 1e-300 to
    1e300.  A B of full column rank flags no row.  Estimates against one B
    share its one factorization, which :func:`factor_gram` keeps on B.  The
    solves charged are :func:`estimate_cost` on every branch.
    """
    if A.n_cols != B.n_cols:
        raise ValueError(f"column mismatch: {A.n_cols} vs {B.n_cols}")
    f = factor_gram(B)
    if sketch_rows(theta, cfg) >= f.rank:  # the sketch would not be smaller: score exactly
        row_space = f.half_pinv()
    else:
        row_space = build_projector_sketch(f, theta, cfg, salt=salt).T
    s = _score_rows(A, np.hstack([row_space, _kernel_basis(f)]), row_space.shape[1])
    return ScoreVector(max(A.n_cols, 2) ** theta * s.values, s.infinite)
