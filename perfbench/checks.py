"""Output checks computed apart from the program.

Every check here works from the benchmark's own scipy CSR copy of the
input and uses only numpy/scipy: Grams from sparse products, ranks and
whitening from ``numpy.linalg.eigh``, leverage scores from a Cholesky
factor of the Gram applied in row blocks.  Nothing here calls rowsketch,
so a fault in the program's factorization or materialization cannot
hide in its own check.  A check returns None when the output is correct
and a one-line reason otherwise.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp

BLOCK_ROWS = 8192  # row block for n-length work, so checks never set the memory peak
EIG_RTOL = 1e-10   # relative eigenvalue cut of a Gram, as in the test suite's oracle
SANDWICH_TOL = 1e-6
SCORE_TOL = 1e-8


def row_bound(d: int, epsilon: float) -> float:
    """Criterion 08's row budget 40 d log d / eps^2 (natural log of max(d, 2))."""
    return 40.0 * d * math.log(max(d, 2)) * epsilon ** -2


def gram(csr: sp.csr_matrix) -> np.ndarray:
    G = (csr.T @ csr).toarray()
    return (G + G.T) / 2.0


def _eig_rank(G: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    w, v = np.linalg.eigh(G)
    if w.size == 0 or w[-1] <= 0.0:
        return w, v, 0
    return w, v, int(np.sum(w > EIG_RTOL * w[-1]))


def row_blocks(csr: sp.csr_matrix):
    for lo in range(0, csr.shape[0], BLOCK_ROWS):
        yield lo, csr[lo:lo + BLOCK_ROWS].toarray()


class Oracle:
    """Independent facts about one input matrix, computed once."""

    def __init__(self, csr: sp.csr_matrix):
        self.csr = csr
        self.n, self.d = csr.shape
        self.G = gram(csr)
        w, v, r = _eig_rank(self.G)
        self.rank = r
        keep = w > EIG_RTOL * w[-1] if r else np.zeros(w.shape, dtype=bool)
        self.white = v[:, keep] / np.sqrt(w[keep])   # d x r, W' G W = I
        self._tau = None

    def scores(self) -> np.ndarray:
        """tau_i = ||L^-1 a_i||^2 with G = L L' (Cholesky), in row blocks."""
        if self._tau is None:
            if self.rank != self.d:
                raise ValueError("Cholesky score oracle needs a full-rank input")
            L = np.linalg.cholesky(self.G)
            tau = np.empty(self.n)
            for lo, X in row_blocks(self.csr):
                Y = scipy.linalg.solve_triangular(L, X.T, lower=True)
                tau[lo:lo + X.shape[0]] = np.einsum("ij,ij->j", Y, Y)
            self._tau = tau
        return self._tau

    def sandwich(self, idx: np.ndarray, w: np.ndarray, lam: float) -> tuple[bool, str]:
        """Is 1/lam <= x'Gt x / x'G x <= 1 on A's row space, ranks equal?"""
        sub = sp.diags(w) @ self.csr[idx]
        Gt = gram(sp.csr_matrix(sub))
        _, _, rank_t = _eig_rank(Gt)
        N = self.white.T @ Gt @ self.white
        eigs = np.linalg.eigvalsh((N + N.T) / 2.0)
        low, high = float(eigs[0]), float(eigs[-1])
        ok = (high <= 1.0 + SANDWICH_TOL and low >= 1.0 / lam - SANDWICH_TOL
              and rank_t == self.rank)
        return ok, f"low={low:.6g} high={high:.6g} 1/lam={1.0 / lam:.6g} rank={rank_t}/{self.rank}"


def check_sample(idx, w, n: int, d: int, epsilon: float) -> str | None:
    idx = np.asarray(idx)
    w = np.asarray(w, dtype=np.float64)
    if idx.ndim != 1 or idx.shape != w.shape:
        return "sample indices and weights are not aligned 1-d arrays"
    if idx.size == 0:
        return "empty sample"
    if not np.issubdtype(idx.dtype, np.integer):
        if not np.all(idx == np.round(idx)):
            return "sample indices are not integers"
        idx = idx.astype(np.int64)
    if idx.min() < 0 or idx.max() >= n:
        return "sample index out of range"
    if np.unique(idx).size != idx.size:
        return "sample indices repeat"
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        return "sample weights not finite and positive"
    if idx.size > row_bound(d, epsilon):
        return f"{idx.size} rows exceed the bound {row_bound(d, epsilon):.0f}"
    return None


def check_sketch(oracle: Oracle, idx, w, lam: float, epsilon: float) -> str | None:
    bad = check_sample(idx, w, oracle.n, oracle.d, epsilon)
    if bad:
        return bad
    ok, detail = oracle.sandwich(np.asarray(idx, dtype=np.int64), w, lam)
    return None if ok else f"sandwich fails at lambda={lam:g}: {detail}"


def check_verify(oracle: Oracle, idx, w, lam: float, passes: bool) -> str | None:
    ok, detail = oracle.sandwich(np.asarray(idx, dtype=np.int64), w, lam)
    if bool(passes) != ok:
        return f"verify says {'PASS' if passes else 'FAIL'}, independent check {detail}"
    return None


def check_scores(oracle: Oracle, tau) -> str | None:
    tau = np.asarray(tau, dtype=np.float64)
    if tau.shape != (oracle.n,):
        return f"{tau.shape} scores for {oracle.n} rows"
    if not np.all(np.isfinite(tau)) or tau.min() < 0.0 or tau.max() > 1.0:
        return "scores outside [0, 1]"
    total = float(tau.sum())
    if abs(total - oracle.rank) > 1e-6 * max(oracle.rank, 1):
        return f"scores sum to {total:.12g}, rank is {oracle.rank}"
    err = float(np.max(np.abs(tau - oracle.scores())))
    if err > SCORE_TOL:
        return f"scores differ from the Cholesky oracle by {err:.3g}"
    return None


def check_solve(oracle: Oracle, b: np.ndarray, x, tol: float) -> str | None:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (oracle.d,) or not np.all(np.isfinite(x)):
        return "solution is not a finite d-vector"
    rhs = oracle.csr.T @ b
    resid = oracle.csr.T @ (oracle.csr @ x - b)
    rel = float(np.linalg.norm(resid) / np.linalg.norm(rhs))
    if not rel <= tol:
        return f"normal-equation residual {rel:.3g} above {tol:g}"
    return None


def weighted_scores(csr: sp.csr_matrix, w: np.ndarray) -> np.ndarray:
    """tau_i(WA) from an eigendecomposition of A'W^2A (pseudo-inverse on its range)."""
    WA = sp.csr_matrix(sp.diags(w) @ csr)
    vals, vecs, r = _eig_rank(gram(WA))
    keep = vals > EIG_RTOL * vals[-1] if r else np.zeros(vals.shape, dtype=bool)
    half = vecs[:, keep] / np.sqrt(vals[keep])
    tau = np.empty(csr.shape[0])
    for lo, X in row_blocks(WA):
        P = X @ half
        tau[lo:lo + X.shape[0]] = np.einsum("ij,ij->i", P, P)
    return tau


def check_reweight(oracle: Oracle, weights, u: np.ndarray, tol: float) -> str | None:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (oracle.n,) or not np.all(np.isfinite(w)):
        return "weights are not a finite n-vector"
    if w.min() < 0.0 or w.max() > 1.0:
        return "weights outside [0, 1]"
    over = float(np.max(weighted_scores(oracle.csr, w) - u))
    if over > tol:
        return f"reweighted score exceeds its target by {over:.3g} (tol {tol:g})"
    mass = float(u[w < 1.0].sum())
    if mass > oracle.d:
        return f"reweighted mass {mass:.6g} exceeds d={oracle.d}"
    return None
