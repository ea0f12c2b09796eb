"""Certifiers: a blocked spectral approximation check and a seeded Monte
Carlo harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .leverage import _whitened_gram, factor_gram
from .matrix import SparseRowMatrix


@dataclass(frozen=True)
class SpectralReport:
    """Extreme generalized Rayleigh quotients of (Atilde'Atilde, A'A) over
    A's row space, and the verdict at the requested lambda."""

    lambda_low: float
    lambda_high: float
    passes: bool
    rank_match: bool
    lam: float
    tol: float
    rank_a: int
    rank_atilde: int


def spectral_check(A: SparseRowMatrix, Atilde: SparseRowMatrix, lam: float,
                   tol: float = 1e-6) -> SpectralReport:
    """Does Atilde satisfy (1/lam) ||Ax||^2 <= ||Atilde x||^2 <= ||Ax||^2 ?

    Whitening Atilde's rows with A's pseudo-square-root from its SVD
    factor, with no Gram matrix formed, reduces the pencil to an ordinary
    symmetric eigenproblem on A's row space; rank_match additionally
    requires numerical ranks to agree, so rank-dropping sketches fail at
    every lambda.
    """
    if A.n_cols != Atilde.n_cols:
        raise ValueError(f"column mismatch: {A.n_cols} vs {Atilde.n_cols}")
    if not lam >= 1.0:
        raise ValueError("lambda must be at least 1")
    if not tol >= 0.0:
        raise ValueError("tol must be nonnegative")
    fa = factor_gram(A)
    rank_atilde = factor_gram(Atilde).rank
    rank_match = rank_atilde == fa.rank
    if fa.rank == 0:
        return SpectralReport(1.0, 1.0, rank_match, rank_match, lam, tol, 0, rank_atilde)
    # T = Atilde W, W = fa.half_pinv(), has cond(T) <= sqrt(lambda) for a
    # sketch within lambda, so T'T loses nothing
    eigs = np.linalg.eigvalsh(_whitened_gram(Atilde, fa.half_pinv()))
    low, high = float(eigs[0]), float(eigs[-1])
    passes = bool(high <= 1.0 + tol and low >= 1.0 / lam - tol and rank_match)
    return SpectralReport(low, high, passes, rank_match, lam, tol, fa.rank, rank_atilde)


@dataclass(frozen=True)
class MonteCarloResult:
    mean: float
    stderr: float
    pass_fraction: float
    trials: int


def monte_carlo(statistic: Callable[[int], tuple[float, bool]], trials: int,
                master_seed: int) -> MonteCarloResult:
    """Run a seeded experiment; report mean, standard error, pass fraction.

    ``statistic`` maps a derived 64-bit seed to (value, passed).  Trial
    seeds derive deterministically from the master seed, so results are
    reproducible regardless of execution order.
    """
    if trials < 30:
        raise ValueError("need at least 30 trials for a meaningful mean/stderr")
    seeds = np.random.SeedSequence(int(master_seed)).generate_state(trials, dtype=np.uint64)
    values = np.empty(trials)
    passed = np.empty(trials, dtype=bool)
    for t, s in enumerate(seeds):
        v, ok = statistic(int(s))
        values[t] = v
        passed[t] = ok
    stderr = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MonteCarloResult(float(values.mean()), stderr, float(passed.mean()), trials)
