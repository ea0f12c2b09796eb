"""Ground-truth leverage machinery via dense factorizations.

Exact scores tau_i = a_i' (A'A)^+ a_i, cross scores tau_ij, generalized
scores tau^B_i(A) with explicit kernel handling, and the minimum-norm
witness characterization.  All of it runs through ``PseudoinverseFactor``,
a rank-truncated factorization of the Gram matrix from the singular values
of A.  No Gram matrix is formed, and a tall A is never densified whole:
:func:`factor_gram` folds it into a d x d triangular factor a block of rows
at a time (TSQR), and the kernel residuals of
:func:`generalized_leverage_scores` are taken block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrix import (MatrixFormatError, SparseRowMatrix, read_ascii_lines,
                     write_indexed_column)


@dataclass(frozen=True)
class ScoreVector:
    """Per-row scores with a tagged per-entry "infinite" flag.

    Infinite marks a row whose component in the reference matrix's kernel is
    non-negligible (generalized scores only).  The flag is never a floating
    Inf, so score arithmetic cannot silently propagate it; ``values`` holds
    0.0 at flagged positions.
    """

    values: np.ndarray
    infinite: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        inf = np.ascontiguousarray(self.infinite, dtype=bool)
        vals.flags.writeable = False
        inf.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "infinite", inf)

    @classmethod
    def from_finite(cls, vals) -> "ScoreVector":
        vals = np.asarray(vals, dtype=np.float64)
        return cls(vals, np.zeros(vals.shape[0], dtype=bool))

    def __len__(self) -> int:
        return int(self.values.shape[0])

    @property
    def has_infinite(self) -> bool:
        return bool(self.infinite.any())

    def validate(self) -> None:
        if self.values.shape != self.infinite.shape or self.values.ndim != 1:
            raise ValueError("values and infinite flags must be aligned 1-d arrays")
        finite_vals = self.values[~self.infinite]
        if finite_vals.size and (not np.all(np.isfinite(finite_vals)) or np.any(finite_vals < 0)):
            raise ValueError("finite scores must be nonnegative reals")
        if np.any(self.values[self.infinite] != 0.0):
            raise ValueError("flagged entries must carry value 0.0")

    def with_infinite_as(self, fill: float = 1.0) -> np.ndarray:
        """Finite array with flagged entries replaced by ``fill``."""
        return np.where(self.infinite, float(fill), self.values)


@dataclass(frozen=True)
class PseudoinverseFactor:
    """Rank-truncated factorization of A'A = V diag(sigma^2) V'.

    ``right_singular_vectors`` is d x r with orthonormal columns,
    ``singular_values`` the singular values of A above the rank cut (see
    :func:`factor_gram`).
    (A'A)^+ acts as V diag(sigma^-2) V'.
    """

    right_singular_vectors: np.ndarray
    singular_values: np.ndarray
    rank: int

    @property
    def n_cols(self) -> int:
        return int(self.right_singular_vectors.shape[0])

    def pinv_apply(self, x: np.ndarray) -> np.ndarray:
        """(A'A)^+ @ x for a d-vector or d x k block."""
        if self.rank == 0:
            return np.zeros_like(np.asarray(x, dtype=np.float64))
        V, s = self.right_singular_vectors, self.singular_values
        coeff = (V.T @ x)
        return V @ (coeff / (s ** 2)[..., :, None] if coeff.ndim == 2 else coeff / s ** 2)

    def pinv_matrix(self) -> np.ndarray:
        """Dense d x d (A'A)^+."""
        if self.rank == 0:
            return np.zeros((self.n_cols, self.n_cols))
        V, s = self.right_singular_vectors, self.singular_values
        return (V / s ** 2) @ V.T

    def half_pinv(self) -> np.ndarray:
        """d x r block M = V diag(1/sigma); then tau_i = ||M' a_i||^2."""
        return self.right_singular_vectors / self.singular_values

    def rowspace_project(self, X: np.ndarray) -> np.ndarray:
        """Orthogonal projection V V' @ X onto the row space of A."""
        if self.rank == 0:
            return np.zeros_like(np.asarray(X, dtype=np.float64))
        V = self.right_singular_vectors
        return V @ (V.T @ X)


# sigma <= RANK_RTOL * sigma_max counts as zero; a row leans into a reference
# kernel when its component there exceeds KERNEL_TOL * ||a_i||.
RANK_RTOL = 1e-10
KERNEL_TOL = 1e-8

# Up to _DENSE_MAX_ROWS rows, the SVD of the dense rows: every sketch the
# pipelines factor is this small, so their outputs do not depend on the TSQR
# path.  Taller matrices are densified _BLOCK_ROWS rows at a time; a block
# this size kept the R-folding QRs twice as fast as one of 16384 rows.
_DENSE_MAX_ROWS = 16384
_BLOCK_ROWS = 4096


def factor_gram(A: SparseRowMatrix) -> PseudoinverseFactor:
    """Factor A'A with numerical rank cut at sigma > RANK_RTOL * sigma_max.

    The singular values come from an SVD of the rows rather than an
    eigendecomposition of the Gram matrix: squaring would push the noise
    floor for sigma to ~1e-8 relative and defeat the 1e-10 cut.  A of at
    most 16384 rows is densified and factored whole.  Taller A goes through
    a row-blocked TSQR (Demmel, Grigori, Hoemmen and Langou,
    arXiv:0808.2664): each block of 4096 dense rows is folded into a running
    triangular R with A'A = R'R, so sigma and V come from the SVD of the
    d x d factor R, the condition number is never squared, and no more than
    one block of A is dense at a time.
    """
    if A.n_rows <= _DENSE_MAX_ROWS:
        rows = A.to_dense() if A.n_rows else np.zeros((0, A.n_cols))
    else:  # R with R'R = A'A, one block of rows folded in at a time
        rows = np.zeros((0, A.n_cols))
        for _, block in A.dense_row_blocks(_BLOCK_ROWS):
            rows = np.linalg.qr(np.vstack([rows, block]), mode="r")
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return PseudoinverseFactor(np.zeros((A.n_cols, 0)), np.zeros(0), 0)
    keep = s > RANK_RTOL * s[0]
    r = int(keep.sum())
    return PseudoinverseFactor(np.ascontiguousarray(vh[:r].T), s[:r].copy(), r)


def exact_leverage_scores(A: SparseRowMatrix,
                          factor: PseudoinverseFactor | None = None) -> ScoreVector:
    """tau_i = a_i' (A'A)^+ a_i; finite, in [0, 1], summing to rank(A).
    ``factor``, when given, is the caller's ``factor_gram(A)``."""
    f = factor if factor is not None else factor_gram(A)
    if f.rank == 0:
        return ScoreVector.from_finite(np.zeros(A.n_rows))
    P = A.dot_dense(f.half_pinv())
    tau = np.einsum("ij,ij->i", P, P)
    return ScoreVector.from_finite(np.clip(tau, 0.0, 1.0))


def cross_leverage(A: SparseRowMatrix, i: int, j: int) -> float:
    """tau_ij = a_i' (A'A)^+ a_j; symmetric, with tau_ii = tau_i."""
    for k in (i, j):
        if not 0 <= k < A.n_rows:
            raise IndexError(f"row {k} out of range for {A.n_rows} rows")
    f = factor_gram(A)
    if f.rank == 0:
        return 0.0
    M = f.half_pinv()
    ci, vi = A.row(i)
    cj, vj = A.row(j)
    return float((vi @ M[ci]) @ (vj @ M[cj]))


def min_norm_witness(A: SparseRowMatrix, i: int) -> np.ndarray:
    """The minimum-norm x with A'x = a_i.

    Satisfies ||x||^2 = tau_i and x[j] = tau_ij for every j; returns the
    zero vector when a_i = 0.
    """
    if not 0 <= i < A.n_rows:
        raise IndexError(f"row {i} out of range for {A.n_rows} rows")
    f = factor_gram(A)
    if f.rank == 0:
        return np.zeros(A.n_rows)
    cols, vals = A.row(i)
    a_i = np.zeros(A.n_cols)
    a_i[cols] = vals
    return A.dot_dense(f.pinv_apply(a_i))


def generalized_leverage_scores(A: SparseRowMatrix, B: SparseRowMatrix) -> ScoreVector:
    """tau^B_i(A) = a_i' (B'B)^+ a_i, flagged infinite when a_i leans into ker(B).

    A row is flagged when its residual against B's row space exceeds
    ``KERNEL_TOL * ||a_i||``; the zero row is defined orthogonal to every
    kernel and scores 0.  With B = A this reduces to the exact scores.
    """
    if A.n_cols != B.n_cols:
        raise ValueError(f"column mismatch: {A.n_cols} vs {B.n_cols}")
    f = factor_gram(B)
    n = A.n_rows
    norms = np.sqrt(A.row_norms_sq())
    if f.rank == 0:
        infinite = norms > 0
        return ScoreVector(np.zeros(n), infinite)
    V = f.right_singular_vectors
    P = A.dot_dense(V)
    vals = np.einsum("ij,ij->i", P / f.singular_values, P / f.singular_values)
    if f.rank < A.n_cols:
        # explicit residual rows, one block at a time: cancellation-free
        # kernel detection, where ||a_i||^2 - ||V'a_i||^2 would cancel
        resid = np.empty(n)
        for lo, block in A.dense_row_blocks(_BLOCK_ROWS):
            hi = lo + block.shape[0]
            resid[lo:hi] = np.linalg.norm(block - P[lo:hi] @ V.T, axis=1)
        infinite = resid > KERNEL_TOL * norms
        vals = np.where(infinite, 0.0, vals)
    else:
        infinite = np.zeros(n, dtype=bool)
    return ScoreVector(np.maximum(vals, 0.0), infinite)


# ---------------------------------------------------------------------------
# Score TSV I/O: "row_index<TAB>score", literal token `inf` for flagged rows
# ---------------------------------------------------------------------------

SCORE_HEADER = "row_index\tscore"


def write_scores(path, s: ScoreVector) -> None:
    """Write s as TSV to a path or text stream; flagged rows read ``inf``."""
    write_indexed_column(path, SCORE_HEADER, s.values, infinite=s.infinite)


def read_scores(path) -> ScoreVector:
    path = str(path)
    lines = read_ascii_lines(path)
    if not lines or lines[0] != SCORE_HEADER:
        raise MatrixFormatError(f"expected header {SCORE_HEADER!r}", path, 1)
    vals, flags = [], []
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split("\t")
        if len(parts) != 2:
            raise MatrixFormatError("expected 'row_index<TAB>score'", path, lineno)
        try:
            consecutive = int(parts[0]) == len(vals)
        except ValueError:
            consecutive = False
        if not consecutive:
            raise MatrixFormatError("row indices must be consecutive from 0", path, lineno)
        tok = parts[1]
        try:
            val = 0.0 if tok == "inf" else float(tok)
        except ValueError:
            val = math.nan
        if not 0.0 <= val < math.inf:
            raise MatrixFormatError(f"score must be 'inf' or a nonnegative real, not {tok!r}",
                                    path, lineno)
        vals.append(val)
        flags.append(tok == "inf")
    out = ScoreVector(np.asarray(vals), np.asarray(flags, dtype=bool))
    out.validate()
    return out
