"""Coherence-reducing row reweighting.

Given per-row targets u > 0, repeatedly visit rows whose leverage under the
current weighting exceeds its target: down-weight the row so its score
lands exactly on the target (closed form below), or zero it outright when
the score sits at 1.  Weights only ever decrease; the reweighted rows end
up carrying total target mass at most d.

Scores are maintained across updates with the rank-1 formulas

    tau_i' = (1 - g) tau_i / (1 - g tau_i)
    tau_j' = tau_j + g tau_ij^2 / (1 - g tau_i)      (j != i)

for a single weight change w_i -> sqrt(1 - g) w_i, with P = (A'W^2A)^+
taking g/(1 - g tau_i) p p' for p = P b_i.  A sweep visits the rows S
above their targets at its start.  Each update applies the second formula
to S alone, on the cross scores tau_ij of S's gathered rows; the rows
outside S take the sweep's net change dP of P in one pass over A at its
end, tau_j += w_j^2 a_j' dP a_j, so an update costs |S| rows and a sweep
n.  A full factorization of A'W^2A resets the scores: at the start, after
a row is zeroed, every n rank-one updates to stop floating-point drift, at
the end of a sweep whose dP cannot be applied (an update's denominator not
positive, or P not finite), and in the exact check at the end of a sweep
that changed nothing, but there only if a rank-one update came after the
last factorization.  Refactoring weights that have not moved would
return the same bytes, so it is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .leverage import (ScoreVector, _block_products, _whitened_gram, exact_leverage_scores,
                       factor_gram)
from .matrix import (SparseRowMatrix, _csr_gather, _csr_product, _IndexedTsv, _binade_shifted,
                     scale_rows, write_indexed_column)


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
    """Running (weights, scores, Gram pseudoinverse) for the sweeps.

    ``w`` holds 2^k times the weights and ``P`` 4^-k times (A'W^2A)^+,
    with k chosen at each refresh and sweep start so that max w lies in
    [1/2, 1]: scaling by a power of two is exact, so scores, gammas and
    denominators keep their bits, and P stays finite while the weights
    decay together.  ``stale`` is set by a rank-one update and cleared by a
    factorization: while it is clear the scores are exactly what
    :meth:`refresh` would give, since refactoring the same weights returns
    the same bytes.

    Within a sweep over the rows S (:meth:`start_sweep`), an update moves
    the scores of S alone, on their gathered rows; :meth:`end_sweep` moves
    every other score by the sweep's net change of P in one pass over A.
    """

    def __init__(self, A: SparseRowMatrix):
        self.A = A
        self.w = np.ones(A.n_rows)
        self.k = 0
        self.updates = 0
        self.factorizations = 0
        self.touched = np.zeros(A.n_rows, dtype=bool)
        self.S = np.zeros(0, dtype=np.int64)
        self.refresh()

    @property
    def weights(self) -> np.ndarray:
        if not self.k:
            return self.w.copy()
        return np.ldexp(self.w, -self.k, out=self.w.copy(), where=self.touched)

    def rescale(self) -> None:
        """Bring max w into [1/2, 1] by a power of two.  Until every row
        with entries has moved, one of them holds weight 1; after that the
        rows left are empty, and keep w = 1 unscaled."""
        moved = np.count_nonzero(self.touched)
        # a row holds at most d entries, so at least nnz/d rows hold some
        if moved * self.A.n_cols < self.A.nnz or moved < np.count_nonzero(np.diff(self.A.row_offsets)):
            return
        top = float(self.w.max(where=self.touched, initial=0.0))
        if 0.0 < top < 0.5:
            e = -int(np.frexp(top)[1])  # top * 2^e lies in [1/2, 1)
            np.ldexp(self.w, e, out=self.w, where=self.touched)
            np.ldexp(self.P, -2 * e, out=self.P)
            self.k += e

    def refresh(self) -> None:
        self.rescale()
        B = scale_rows(self.A, self.w)
        M = factor_gram(B).half_pinv()
        self.P = M @ M.T
        self.tau = exact_leverage_scores(B).values.copy()
        self.factorizations += 1
        self.stale = False
        self._track()

    def _track(self) -> None:
        """Read S's scores and weights afresh, with no update pending."""
        self.tau_S, self.w_S = self.tau[self.S], self.w[self.S]
        self.p, self.c = [], []
        self.refresh_at_end = False

    def start_sweep(self, S: np.ndarray) -> None:
        """Track the rows S, ascending, for the sweep's updates."""
        self.S = S
        self.S_csr = None  # gathered at the first update
        self.rescale()
        self._track()

    def downweight(self, s: int, gamma: float) -> bool:
        """Scale row S[s] by sqrt(1 - gamma); False when P cannot take the
        update, which leaves the sweep to end on a refresh."""
        i = int(self.S[s])
        self.touched[i] = True
        b = self.A.row_dense(i) * self.w[i]
        Pb = self.P @ b
        denom = 1.0 - gamma * float(b @ Pb)
        self.w[i] *= math.sqrt(1.0 - gamma)
        self.updates += 1
        self.stale = True
        if not denom > 0.0:
            self.refresh_at_end = True
            return False
        if self.S_csr is None:
            self.S_csr = _csr_gather(self.A.row_offsets, self.A.col_indices, self.A.values, self.S)
            self.cross = np.empty(self.S.size)
        cross = _csr_product(*self.S_csr, Pb, self.cross)
        cross *= self.w_S
        _rank_one_step(self.tau_S, cross, s, gamma)
        self.w_S[s] = self.w[i]
        self.P += gamma * np.outer(Pb, Pb) / denom
        self.p.append(Pb)
        self.c.append(gamma / denom)
        return True

    def zero_row(self, s: int) -> None:
        i = int(self.S[s])
        self.touched[i] = True
        self.w[i] = 0.0
        self.refresh()

    def end_sweep(self) -> None:
        """Add w_j^2 a_j' dP a_j to every score outside S, for the net
        change dP = sum_k c_k p_k p_k' of P since S was last read, or
        refresh when an update could not be taken or P overflowed."""
        if self.refresh_at_end or (self.p and not np.isfinite(self.P).all()):
            self.refresh()
            return
        if not self.p:
            return
        V, c = np.array(self.p).T, np.array(self.c)
        if c.size >= self.A.n_cols:  # then dP = V diag(c) V' through its eigenpairs
            c, V = np.linalg.eigh((V * c) @ V.T)
        w2 = np.square(self.w)
        for rows, Q in _block_products(self.A, V):
            np.square(Q, out=Q)
            t = Q @ c
            t *= w2[rows]
            self.tau[rows] += t
        self.tau[self.S] = self.tau_S
        self._track()


def compute_reweighting(A: SparseRowMatrix, u, tol: float = 1e-6,
                        max_sweeps: int | None = None) -> tuple[Reweighting, ReweightCertificate]:
    """Find weights in [0, 1] with tau_i(WA) <= u_i + tol everywhere.

    Each sweep takes the rows S above their targets at its start and visits
    them in ascending index order; a row that crosses its target during the
    sweep waits for the next one.  A sweep that changes nothing (and
    survives an exact recomputation) ends the run.  Weights never increase.
    Rows are zeroed when their current score sits within 1e-6 of 1, since a
    full-leverage row cannot be pushed below any smaller target by finite
    down-weighting.  An update costs a product with the |S| rows of S, and
    a sweep one pass over A.  A^T W^2 A is factored at the start, after
    each zeroed row, every n rank-one updates, at the end of a sweep whose
    net change could not be applied, and at the end of a sweep that
    changed nothing only if a rank-one update came after the last
    factorization.
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
    refresh_every = max(A.n_rows, 1)
    changes = 0
    sweeps_used = 0
    converged = False

    while sweeps_used < max_sweeps:
        sweeps_used += 1
        S = np.flatnonzero(state.tau > bound)
        state.start_sweep(S)
        changed = False
        for s, i in enumerate(S.tolist()):
            tau_i = float(state.tau_S[s])
            if not tau_i > bound[i]:  # exact scores from a refresh put it back
                continue
            taken = True
            if tau_i < 1.0 - _ZERO_BRANCH:  # u_i < tau_i, since tau_i > u_i + tol
                taken = state.downweight(s, gamma_for_target(tau_i, float(u[i])))
            else:
                state.zero_row(s)
            changed = True
            changes += 1
            if not taken:
                break
            if changes % refresh_every == 0:
                state.refresh()
        state.end_sweep()
        if not changed:
            if state.stale:
                state.refresh()  # drift check: confirm against exact scores
            if float(np.max(state.tau - u, initial=-np.inf)) <= tol:  # no row, no violation
                converged = True
                break

    if state.stale:  # an unconverged run ended on updated scores
        state.refresh()
    achieved, touched = state.tau.copy(), state.touched
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
    return Reweighting(state.weights), cert


def compare_leverage_bound(A: SparseRowMatrix, W: Reweighting, Wbar: Reweighting,
                           i: int) -> tuple[float, float]:
    """Both sides of the weight-perturbation bound on leverage scores.

    lhs = tau_i under Wbar; rhs scales tau_i under W by
    (wbar_i/w_i)^2 (1 + sqrt(lmax(A (A'Wbar^2 A)^+ A')) * ||W - Wbar||_inf)^2.
    The inequality lhs <= rhs holds whenever both weights at i are nonzero.
    lmax is ``spectral_check(Bbar, A, 1.0).lambda_high``, by the same
    whitened Gram, and 0 when Bbar is all zero.
    """
    if not 0 <= i < A.n_rows:
        raise IndexError(f"row {i} out of range")
    wi, wbi = float(W.weights[i]), float(Wbar.weights[i])
    if wi <= 0.0 or wbi <= 0.0:
        raise ValueError("both weightings must keep row i nonzero")
    Bbar = scale_rows(A, Wbar.weights)
    fbar = factor_gram(Bbar)
    lhs = float(exact_leverage_scores(Bbar).values[i])
    B = scale_rows(A, W.weights)
    tau_w = float(exact_leverage_scores(B).values[i])
    lam_max = float(np.linalg.eigvalsh(_whitened_gram(A, fbar.half_pinv()))[-1]) if fbar.rank else 0.0
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
