"""Randomized row samplers and uniform-sampling leverage estimators.

The core primitive keeps row i independently with probability
``p_i = min(1, alpha * u_i * c * log d)`` at weight ``1/sqrt(p_i)``, given
per-row overestimates u.  On top of it sit the uniform-sampling estimators
(fixed-size subset, Bernoulli without reweighting) and the undersampling
refinement step.

All randomness is counter-based Philox keyed by ``(seed, salt...)``, so a
row's inclusion decision is a pure function of the seed and row index,
independent of evaluation order or thread count.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .leverage import ScoreVector, generalized_leverage_scores
from .matrix import SparseRowMatrix, WeightedRowSample, materialize


def log_dim(d: int) -> float:
    """log d as used in sampling rates: natural log of max(d, 2)."""
    return math.log(max(int(d), 2))


def _salt_ints(salt) -> tuple[int, ...]:
    out = []
    for item in salt:
        if isinstance(item, (int, np.integer)):
            out.append(int(item) & 0xFFFFFFFF)
        else:
            digest = hashlib.sha256(repr(item).encode()).digest()
            out.append(int.from_bytes(digest[:4], "little"))
    return tuple(out)


def rng_from(seed: int, *salt) -> np.random.Generator:
    """Philox generator keyed by (seed, salt...); reproducible across runs."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=_salt_ints(salt))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class SketchConfig:
    """Tunable constants for every randomized routine.

    ``seed`` fully determines all random draws downstream.  ``theta`` is the
    sketch-distortion exponent; None defers to each routine's per-matrix
    default (1/log d for the pipelines).  ``c`` is the oversampling constant
    in the row-keeping probabilities.  Two constants are not settable:
    ``jl_rows_constant`` fixes the sketch height ceil(64 / theta), and
    ``kernel_probes`` the fixed budget ``fastlev.estimate_cost`` charges
    each estimate for its kernel flags, which draw no probes.
    """

    epsilon: float = 0.5
    c: float = 2.0
    theta: float | None = None
    seed: int = 42
    jl_rows_constant: ClassVar[float] = 64.0
    kernel_probes: ClassVar[int] = 3

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")
        if self.theta is not None and not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")

    def resolve_theta(self, n_cols: int) -> float:
        return self.theta if self.theta is not None else 1.0 / log_dim(n_cols)


def _finite_scores(u) -> np.ndarray:
    if isinstance(u, ScoreVector):
        if u.has_infinite:
            raise ValueError("scores carry infinite entries; cap them (e.g. at 1) before sampling")
        u = u.values
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1 or not np.all(np.isfinite(u)) or np.any(u < 0):
        raise ValueError("scores must be a 1-d array of finite nonnegative reals")
    return u


def sampling_probabilities(u, alpha: float, c: float, n_cols: int) -> np.ndarray:
    """p_i = min(1, alpha * u_i * c * log d), for a rate alpha that is
    nonnegative and finite and a c that is positive and finite."""
    if not 0.0 <= alpha < math.inf:
        raise ValueError(f"sampling rate must be nonnegative and finite, not {alpha!r}")
    if not 0.0 < c < math.inf:
        raise ValueError("c must be positive and finite")
    return _probabilities(_finite_scores(u), alpha, c, n_cols)


def _probabilities(u: np.ndarray, alpha: float, c: float, n_cols: int) -> np.ndarray:
    """:func:`sampling_probabilities` of scores already checked."""
    return np.minimum(1.0, alpha * c * log_dim(n_cols) * u)


def sample(u, alpha: float, cfg: SketchConfig, n_cols: int, salt=()) -> WeightedRowSample:
    """Independent row sample by overestimates u at rate parameter alpha.

    Row i is kept with probability p_i = min(1, alpha * u_i * c * log d) and
    carries weight 1/sqrt(p_i).  Expected size is at most
    alpha * c * log d * sum(u).
    """
    return _draw(sampling_probabilities(u, alpha, cfg.c, n_cols), cfg, salt)


def _draw(p: np.ndarray, cfg: SketchConfig, salt) -> WeightedRowSample:
    """Keep row i with probability p_i, at weight 1/sqrt(p_i)."""
    draws = rng_from(cfg.seed, *salt).random(p.shape[0])
    keep = draws < p
    idx = np.flatnonzero(keep).astype(np.int64)
    weights = 1.0 / np.sqrt(p[keep])
    return WeightedRowSample(p.shape[0], idx, weights)


def scaled_sample(u, alpha: float, scale: float, cfg: SketchConfig, n_cols: int,
                  salt=()) -> WeightedRowSample:
    """``sample`` with every weight multiplied by ``scale``."""
    if not 0.0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    return sample(u, alpha, cfg, n_cols, salt=salt).scaled(scale)


def _undersample(u: np.ndarray, alpha: float, cfg: SketchConfig, n_cols: int,
                 salt) -> WeightedRowSample:
    """sqrt(alpha) * sqrt(3/4) * sample(u, 9 alpha) for scores u already
    checked: the undersampling operator whose Gram stays below A'A with high
    probability."""
    p = _probabilities(u, 9.0 * alpha, cfg.c, n_cols)
    return _draw(p, cfg, salt).scaled(math.sqrt(alpha) * math.sqrt(3.0 / 4.0))


def _combine_uniform_estimates(A: SparseRowMatrix, S: WeightedRowSample) -> ScoreVector:
    """Generalized scores of A w.r.t. the indicator sample S, with the
    closed-form out-of-sample adjustment t -> t/(1+t)."""
    B = materialize(A, S)
    g = generalized_leverage_scores(A, B)
    in_sample = np.zeros(A.n_rows, dtype=bool)
    in_sample[S.row_indices] = True
    vals = g.with_infinite_as(np.inf)
    out = np.empty(A.n_rows)
    ins = in_sample
    out[ins] = np.minimum(vals[ins], 1.0)
    t = vals[~ins]
    with np.errstate(invalid="ignore"):
        adjusted = np.where(np.isinf(t), 1.0, t / (1.0 + t))
    out[~ins] = adjusted
    return ScoreVector.from_finite(np.clip(out, 0.0, 1.0))


def uniform_leverage_estimates(A: SparseRowMatrix, m: int, cfg: SketchConfig,
                               salt=()) -> ScoreVector:
    """Overestimates from a uniform m-subset (without replacement, weight 1).

    For sampled rows the estimate is the generalized score w.r.t. the
    subset; for the rest it is 1/(1 + 1/t) with t the generalized score,
    reading 1 when the row leans into the subset's kernel.  Every estimate
    lies in [0, 1] and dominates the true score; the sum is nd/m in
    expectation.
    """
    if not 1 <= m <= A.n_rows:
        raise ValueError(f"m must lie in [1, {A.n_rows}]")
    rng = rng_from(cfg.seed, "uniform-subset", *salt)
    idx = np.sort(rng.choice(A.n_rows, size=m, replace=False)).astype(np.int64)
    S = WeightedRowSample(A.n_rows, idx, np.ones(m))
    return _combine_uniform_estimates(A, S)


def sherman_morrison_check(A: SparseRowMatrix, S: WeightedRowSample, i: int) -> tuple[float, float]:
    """The closed-form estimate against a direct recomputation on S + {i}.

    Returns ``(1/(1 + 1/t), tau w.r.t. the union)``; the two agree whenever
    a_i is orthogonal to ker of the sampled matrix, and both read 1
    otherwise.
    """
    if not 0 <= i < A.n_rows:
        raise IndexError(f"row {i} out of range")
    if np.any(S.weights != 1.0):
        raise ValueError("check requires an indicator sample (all weights 1)")
    if i in set(S.row_indices.tolist()):
        raise ValueError(f"row {i} already sampled")
    B = materialize(A, S)
    t_vec = generalized_leverage_scores(A, B)
    if t_vec.infinite[i]:
        closed = 1.0
    else:
        t = t_vec.values[i]
        closed = t / (1.0 + t)
    union_idx = np.sort(np.append(S.row_indices, i)).astype(np.int64)
    S_union = WeightedRowSample(A.n_rows, union_idx, np.ones(union_idx.size))
    g_union = generalized_leverage_scores(A, materialize(A, S_union))
    direct = 1.0 if g_union.infinite[i] else float(g_union.values[i])
    return float(closed), float(direct)


def undersample_refine(A: SparseRowMatrix, u, alpha: float, cfg: SketchConfig,
                       salt=()) -> ScoreVector:
    """One refinement round: re-estimate scores through an undersampled sketch.

    Draws S' = sqrt(alpha) * sqrt(3/4) * sample(u, 9 alpha) and returns
    min(tau^{S'A}_i(A), u_i) per row, with the min absorbing any flagged
    entries.  Never increases a coordinate; the new sum lands near 3d/alpha.
    """
    u = _finite_scores(u)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if u.shape[0] != A.n_rows:
        raise ValueError("score length must match row count")
    S = _undersample(u, alpha, cfg, A.n_cols, ("undersample", *salt))
    g = generalized_leverage_scores(A, materialize(A, S))
    vals = np.where(g.infinite, u, np.minimum(g.values, u))
    return ScoreVector.from_finite(vals)


def uniform_no_reweight_estimates(A: SparseRowMatrix, m: int, cfg: SketchConfig,
                                  salt=()) -> ScoreVector:
    """Overestimates from Bernoulli(m/n) row selection at weight 1.

    Estimates are min(1, tau w.r.t. the kept rows), reading 1 for rows with
    kernel components; the empty draw therefore yields all ones (for
    matrices without zero rows).
    """
    if not 1 <= m <= A.n_rows:
        raise ValueError(f"m must lie in [1, {A.n_rows}]")
    rate = m / A.n_rows
    draws = rng_from(cfg.seed, "uniform-bernoulli", *salt).random(A.n_rows)
    idx = np.flatnonzero(draws < rate).astype(np.int64)
    S = WeightedRowSample(A.n_rows, idx, np.ones(idx.size))
    B = materialize(A, S)
    g = generalized_leverage_scores(A, B)
    vals = np.minimum(g.with_infinite_as(1.0), 1.0)
    return ScoreVector.from_finite(vals)
