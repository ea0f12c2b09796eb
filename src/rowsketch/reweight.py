"""Coherence-reducing row reweighting.

Given per-row targets u > 0, repeatedly visit rows whose leverage under the
current weighting exceeds its target: down-weight the row so its score
lands exactly on the target (closed form below), or zero it outright when
the score sits at 1.  Weights only ever decrease; the reweighted rows end
up carrying total target mass at most d.

Scores are maintained across updates with the rank-1 formulas

    tau_i' = (1 - g) tau_i / (1 - g tau_i)
    tau_j' = tau_j + g tau_ij^2 / (1 - g tau_i)      (j != i)

for a single weight change w_i -> sqrt(1 - g) w_i, each in place on one
n-length cross vector tau_ij.  A full factorization of A'W^2A resets
them: at the start, after a row is zeroed, every n rank-one updates to
stop floating-point drift, and in the exact check at the end of a sweep
that changed nothing, but there only if a rank-one update came after the
last factorization.  Refactoring weights that have not moved would
return the same bytes, so it is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .leverage import ScoreVector, exact_leverage_scores, factor_gram
from .matrix import (SparseRowMatrix, _csr_product, _IndexedTsv, _binade_shifted, scale_rows,
                     write_indexed_column)
from .verify import _pencil_eigenvalues


@dataclass(frozen=True)
class Reweighting:
    """Dense diagonal weights, each in [0, 1]."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return int(self.weights.shape[0])

    def validate(self) -> None:
        w = self.weights
        if w.ndim != 1 or not np.all(np.isfinite(w)) or np.any(w < 0) or np.any(w > 1):
            raise ValueError("weights must be finite reals in [0, 1]")


@dataclass(frozen=True)
class ReweightCertificate:
    """Evidence that a reweighting meets its targets.

    ``achieved`` is recomputed from scratch on the final weights;
    ``reweighted_mass`` sums targets over rows whose weight moved off 1.
    A non-converged run reports ``converged=False`` with the violation
    left, never a silent success.  ``updates`` counts the rank-one updates
    and ``factorizations`` the factorizations of A'W^2A behind them.
    """

    target: np.ndarray
    achieved: np.ndarray
    reweighted_mass: float
    reweighted_count: int
    sweeps_used: int
    max_violation: float
    converged: bool
    tol: float
    updates: int
    factorizations: int


def rank_one_update(tau: np.ndarray, cross_i: np.ndarray, i: int, gamma: float) -> np.ndarray:
    """Leverage scores after scaling row i by sqrt(1 - gamma).

    ``cross_i`` holds the cross scores tau_ij of the current matrix for the
    fixed i (so cross_i[i] == tau[i]).  The updated row score never rises;
    every other score never falls.
    """
    tau = np.array(tau, dtype=np.float64)
    cross = np.array(cross_i, dtype=np.float64)
    if tau.shape != cross.shape:
        raise ValueError("tau and cross vectors must align")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    denom = 1.0 - gamma * tau[i]
    if denom <= 0.0:
        raise ValueError(f"1 - gamma*tau_i must stay positive (got {denom:g})")
    _rank_one_step(tau, cross, i, gamma)
    return tau


def _rank_one_step(tau: np.ndarray, cross: np.ndarray, i: int, gamma: float) -> None:
    """:func:`rank_one_update` in place on valid arguments: ``tau`` takes the
    new scores and ``cross`` is overwritten."""
    denom = 1.0 - gamma * tau[i]
    tau_i = (1.0 - gamma) * tau[i] / denom
    np.square(cross, out=cross)
    cross *= gamma
    cross /= denom
    tau += cross
    tau[i] = tau_i


def gamma_for_target(tau_i: float, u_i: float) -> float:
    """The gamma for which the rank-1 update lands row i exactly on u_i.

    Inverting tau' = (1-g) tau / (1 - g tau) at tau' = u gives
    g = (tau - u) / (tau (1 - u)), valid for 0 < u <= tau < 1 (zero at the
    boundary u = tau).  At tau >= 1 no finite down-weighting reaches a
    smaller target; zero the row instead.
    """
    if tau_i >= 1.0:
        raise ValueError("row at leverage 1 cannot be partially down-weighted; set its weight to 0")
    if not 0.0 < u_i <= tau_i:
        raise ValueError("need 0 < u_i <= tau_i < 1")
    return (tau_i - u_i) / (tau_i * (1.0 - u_i))


_ZERO_BRANCH = 1e-6  # rows with score above 1 - this are zeroed, not solved


class _ScoreState:
    """Running (weights, scores, Gram pseudoinverse) for the sweep.

    ``stale`` is set by a rank-one update and cleared by a factorization:
    while it is clear the scores are exactly what :meth:`refresh` would
    give, since refactoring the same weights returns the same bytes.
    """

    def __init__(self, A: SparseRowMatrix):
        self.A = A
        self.w = np.ones(A.n_rows)
        self.cross = np.empty(A.n_rows)
        self.updates = 0
        self.factorizations = 0
        self.refresh()

    def refresh(self) -> None:
        B = scale_rows(self.A, self.w)
        f = factor_gram(B)
        M = f.half_pinv()
        self.P = M @ M.T
        self.tau = exact_leverage_scores(B, factor=f).values.copy()
        self.factorizations += 1
        self.stale = False

    def downweight(self, i: int, gamma: float) -> None:
        b = self.A.row_dense(i) * self.w[i]
        Pb = self.P @ b
        denom = 1.0 - gamma * float(b @ Pb)
        cross = _csr_product(self.A.row_offsets, self.A.col_indices, self.A.values, Pb, self.cross)
        cross *= self.w
        _rank_one_step(self.tau, cross, i, gamma)
        self.P = self.P + gamma * np.outer(Pb, Pb) / denom
        self.w[i] *= math.sqrt(1.0 - gamma)
        self.updates += 1
        self.stale = True

    def zero_row(self, i: int) -> None:
        self.w[i] = 0.0
        self.refresh()


def compute_reweighting(A: SparseRowMatrix, u, tol: float = 1e-6,
                        max_sweeps: int | None = None) -> tuple[Reweighting, ReweightCertificate]:
    """Find weights in [0, 1] with tau_i(WA) <= u_i + tol everywhere.

    Sweeps rows in ascending index order; a sweep that changes nothing (and
    survives an exact recomputation) ends the run.  Weights never increase.
    Rows are zeroed when their current score sits within 1e-6 of 1, since a
    full-leverage row cannot be pushed below any smaller target by finite
    down-weighting.  A^T W^2 A is factored at the start, after each zeroed
    row, every n rank-one updates, and at the end of a sweep that changed
    nothing only if a rank-one update came after the last factorization.
    """
    if isinstance(u, ScoreVector):
        if u.has_infinite:
            raise ValueError("targets must be finite")
        u = u.values
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (A.n_rows,) or not np.all(np.isfinite(u)) or np.any(u <= 0):
        raise ValueError("targets must be positive finite reals, one per row")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_sweeps is None:
        max_sweeps = 100 * max(A.n_rows, 1)
    elif max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")

    # scores and weights do not depend on A's scale, but P = (A'W^2A)^+ does;
    # the exact power-of-two shift keeps it clear of overflow and underflow
    state = _ScoreState(_binade_shifted(A)[0])
    bound = u + tol
    touched = np.zeros(A.n_rows, dtype=bool)
    refresh_every = max(A.n_rows, 1)
    changes = 0
    sweeps_used = 0
    converged = False

    while sweeps_used < max_sweeps:
        sweeps_used += 1
        changed = False
        i = -1
        while True:
            # jump to the next row above its target; every update moves
            # scores, so the search restarts from the current state
            if i + 1 == A.n_rows:
                break
            over = state.tau[i + 1:] > bound[i + 1:]
            k = int(over.argmax())  # the first True, or 0 when none is
            if not over[k]:
                break
            i += 1 + k
            if state.tau[i] < 1.0 - _ZERO_BRANCH and u[i] < state.tau[i]:
                gamma = gamma_for_target(float(state.tau[i]), float(u[i]))
                state.downweight(i, gamma)
            else:
                state.zero_row(i)
            touched[i] = True
            changed = True
            changes += 1
            if changes % refresh_every == 0:
                state.refresh()
        if not changed:
            if state.stale:
                state.refresh()  # drift check: confirm against exact scores
            if float(np.max(state.tau - u, initial=-np.inf)) <= tol:  # no row, no violation
                converged = True
                break

    if state.stale:  # an unconverged run ended on updated scores
        state.refresh()
    achieved = state.tau.copy()
    cert = ReweightCertificate(
        target=u.copy(),
        achieved=achieved,
        reweighted_mass=float(u[touched].sum()),
        reweighted_count=int(touched.sum()),
        sweeps_used=sweeps_used,
        max_violation=float(np.max(achieved - u)) if A.n_rows else 0.0,
        converged=converged,
        tol=tol,
        updates=state.updates,
        factorizations=state.factorizations,
    )
    return Reweighting(state.w.copy()), cert


def compare_leverage_bound(A: SparseRowMatrix, W: Reweighting, Wbar: Reweighting,
                           i: int) -> tuple[float, float]:
    """Both sides of the weight-perturbation bound on leverage scores.

    lhs = tau_i under Wbar; rhs scales tau_i under W by
    (wbar_i/w_i)^2 (1 + sqrt(lmax(A (A'Wbar^2 A)^+ A')) * ||W - Wbar||_inf)^2.
    The inequality lhs <= rhs holds whenever both weights at i are nonzero.
    lmax is ``spectral_check(Bbar, A, 1.0).lambda_high``, through the same
    helper, and 0 when Bbar is all zero.
    """
    if not 0 <= i < A.n_rows:
        raise IndexError(f"row {i} out of range")
    wi, wbi = float(W.weights[i]), float(Wbar.weights[i])
    if wi <= 0.0 or wbi <= 0.0:
        raise ValueError("both weightings must keep row i nonzero")
    Bbar = scale_rows(A, Wbar.weights)
    fbar = factor_gram(Bbar)
    lhs = float(exact_leverage_scores(Bbar, factor=fbar).values[i])
    B = scale_rows(A, W.weights)
    tau_w = float(exact_leverage_scores(B).values[i])
    lam_max = float(_pencil_eigenvalues(fbar, A)[-1]) if fbar.rank else 0.0
    inf_norm = float(np.max(np.abs(W.weights - Wbar.weights)))
    rhs = (wbi / wi) ** 2 * (1.0 + math.sqrt(max(lam_max, 0.0)) * inf_norm) ** 2 * tau_w
    return lhs, rhs


# ---------------------------------------------------------------------------
# Weight TSV I/O: "row_index<TAB>weight" over all rows (zeros included)
# ---------------------------------------------------------------------------

WEIGHT_HEADER = "row_index\tweight"


def write_weights(path, W: Reweighting) -> None:
    """Write W as TSV to a path or text stream."""
    write_indexed_column(path, WEIGHT_HEADER, W.weights)


def read_weights(path) -> Reweighting:
    """The reweighting in a TSV written by :func:`write_weights`; a weight
    outside [0, 1] is an error at its line."""
    tsv = _IndexedTsv(path, WEIGHT_HEADER)
    w = tsv.values
    tsv.check([(~np.isfinite(w), "non-finite weight {token!r}"),
               (~((w >= 0.0) & (w <= 1.0)), "weight must lie in [0, 1], not {token!r}")])
    return Reweighting(w)
