"""Sketched generalized leverage scores, with kernel flags from an exact basis.

For a small reference matrix B, tau^B_i(A) = ||B (B'B)^+ a_i||^2.  Instead
of applying the full projector per row, we apply a seeded Gaussian sketch
with k = ceil(64 / theta) rows (``SketchConfig.jl_rows_constant``).  With
B = U diag(sigma) V' of rank r, G B (B'B)^+ = (G U) diag(1/sigma) V' for a k x n_B Gaussian G, and
G U is itself a k x r standard Gaussian Z.  So the k x d matrix
M = (1/sqrt(k)) Z diag(1/sigma) V' is drawn in d-space, at the cost of
k x r draws and no pass over B, with the same distribution as the sketch
drawn over B's rows (the JL leverage estimator of Drineas et al.,
arXiv:1109.3843).  ||M a_i||^2 estimates each score within a d^theta
distortion.  Rows are scored through the min(k, d) x d triangular factor R
of M, since ||R a_i|| = ||M a_i||: O(min(k, d) nnz(a_i)) per row.  Raw
sketched norms are multiplied by d^theta so the two-sided distortion turns
into a one-sided overestimate at the configured confidence.

Rows leaning into ker(B) are flagged in the same pass by the rule of the
exact generalized scores: R' is joined by the orthonormal basis N of ker(B)
from ``leverage._kernel_basis``, d - rank(B) columns and none at full
column rank, and a row is flagged when ||N'a_i|| > KERNEL_TOL * ||a_i||,
for entries from about 1e-300 to 1e300.  So the flags are deterministic and
equal those of :func:`~rowsketch.leverage.generalized_leverage_scores`;
the Gaussian sketch is the only draw.  :func:`kernel_probe`, random
vectors in ker(B), is kept for callers and checks outside the estimator,
which no longer draws them.
"""

from __future__ import annotations

import numpy as np

from .leverage import (PseudoinverseFactor, ScoreVector, _kernel_basis, _r_factor, _score_rows,
                       factor_gram)
from .matrix import SparseRowMatrix
from .sampling import SketchConfig, rng_from


def sketch_rows(theta: float, cfg: SketchConfig) -> int:
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    return int(np.ceil(cfg.jl_rows_constant / theta))


def estimate_cost(theta: float, cfg: SketchConfig) -> int:
    """Solves one :func:`approx_generalized_leverage` call is charged: one
    Gram factorization, k sketch rows and a fixed budget of
    ``cfg.kernel_probes``.  The factorization counts once per call, also
    where calls share one.  The budget stands for the kernel flags, which
    take the exact basis of ker(B) and draw no probe; it is kept at the
    probe count so that every run's ``solve_count`` stays as it was."""
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
    exactly.  Its k rows are k solves against the Gram factor (see
    :func:`estimate_cost`).  At rank 0, M is a k x d zero block.
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
                                cfg: SketchConfig, salt=(),
                                factor: PseudoinverseFactor | None = None) -> ScoreVector:
    """Sketched overestimates of tau^B(A) within a d^(2 theta) envelope.

    Returns d^theta * ||M a_i||^2 per row (the safety factor making the
    estimate one-sided).  A row is flagged infinite when ||N'a_i|| exceeds
    KERNEL_TOL * ||a_i||, N the orthonormal basis of ker(B): the rule, and
    the flags, of :func:`generalized_leverage_scores`, for entries from
    about 1e-300 to 1e300.  A B of full column rank flags no row.
    ``factor``, when given, is the caller's ``factor_gram(B)``, so estimates
    against one B share one factorization; without it the call factors B.
    The solves it spends are :func:`estimate_cost` either way.
    """
    if A.n_cols != B.n_cols:
        raise ValueError(f"column mismatch: {A.n_cols} vs {B.n_cols}")
    if factor is not None and factor.n_cols != A.n_cols:
        raise ValueError(f"factor column mismatch: {factor.n_cols} vs {A.n_cols}")
    f = factor if factor is not None else factor_gram(B)
    R = _r_factor(build_projector_sketch(f, theta, cfg, salt=salt))  # ||R a|| = ||M a||
    s = _score_rows(A, np.hstack([R.T, _kernel_basis(f)]), R.shape[0])
    return ScoreVector(max(A.n_cols, 2) ** theta * s.values, s.infinite)
