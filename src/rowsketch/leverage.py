"""Ground-truth leverage machinery via dense factorizations.

Exact scores tau_i = a_i' (A'A)^+ a_i, cross scores tau_ij, generalized
scores tau^B_i(A) with explicit kernel handling, and the minimum-norm
witness characterization.  All of it runs through ``PseudoinverseFactor``,
a rank-truncated factorization of the Gram matrix from the singular values
of A.  A'A is never formed from A itself, and no n x d array of all of a
tall A: every pass over A's rows goes 4096 at a time past 16384 rows.  A
pass that scores rows reduces one sparse x dense product per block
(:func:`_block_products`) into one reused buffer; only the R fold
(:func:`_csr_r`, TSQR) densifies rows.  Each pass takes the
``SparseRowMatrix`` itself and hands its arrays, or slices of them, to
scipy's own CSR kernels in :mod:`rowsketch.matrix`, so every result keeps
scipy's bits and no pass builds a scipy object.  :func:`factor_gram` takes
the SVD of a matrix M with M'M = A'A: for a tall A, a d x d M from the
Gram of its rows whitened by a sample of its own rows; below 2d rows, A
itself; otherwise the d x d triangular factor R that :func:`_r_fold`
folds over A's row blocks; each matrix object is factored once and keeps
the factor.  Rows that lean into a reference's kernel are flagged by one
rule, through the exact basis of :func:`_kernel_basis`, for exact and
sketched scores alike.  Every triangular factor R here comes from one
call of LAPACK's ``dgeqrf`` (:func:`_r_factor`) on a chunk of at most
_QR_MAX_ENTRIES = 2^18 entries, R included, so a factor keeps its bits at
any BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .matrix import (SparseRowMatrix, _csr_dense, _csr_gather, _csr_product, _frozen,
                     _IndexedTsv, write_indexed_column)


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
    (A'A)^+ acts as V diag(sigma^-2) V'.  Both arrays are read-only, since
    one factor serves every caller of :func:`factor_gram` on its matrix.
    """

    right_singular_vectors: np.ndarray
    singular_values: np.ndarray

    def __post_init__(self):
        for name in ("right_singular_vectors", "singular_values"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, _frozen(arr))

    @property
    def rank(self) -> int:
        return int(self.singular_values.shape[0])

    @property
    def n_cols(self) -> int:
        return int(self.right_singular_vectors.shape[0])

    def pinv_apply(self, x: np.ndarray) -> np.ndarray:
        """(A'A)^+ @ x for a d-vector or d x k block."""
        V, s = self.right_singular_vectors, self.singular_values
        coeff = (V.T @ x)
        return V @ (coeff / (s ** 2)[..., :, None] if coeff.ndim == 2 else coeff / s ** 2)

    def half_pinv(self) -> np.ndarray:
        """d x r block M = V diag(1/sigma); then tau_i = ||M' a_i||^2."""
        return self.right_singular_vectors / self.singular_values

    def rowspace_project(self, X: np.ndarray) -> np.ndarray:
        """Orthogonal projection V V' @ X onto the row space of A."""
        V = self.right_singular_vectors
        return V @ (V.T @ X)


# sigma <= RANK_RTOL * sigma_max counts as zero; a row leans into a reference
# kernel when its component there exceeds KERNEL_TOL * ||a_i||.
RANK_RTOL = 1e-10
KERNEL_TOL = 1e-8
_TINY = np.finfo(np.float64).tiny

# Up to _DENSE_MAX_ROWS rows, A is one block: every sketch the pipelines
# factor is this small, so their outputs do not depend on the blocking.
# Taller matrices go _BLOCK_ROWS rows at a time; a block this size kept the
# R-folding QRs twice as fast as one of 16384 rows.  The sample that
# whitens a tall A is at most one block of its rows.
_DENSE_MAX_ROWS = 16384
_BLOCK_ROWS = 4096
_EPS = np.finfo(np.float64).eps
# relative accuracy of sigma that the sample-whitened factor must reach, or
# hand A to the R fold: the dense oracles hold factor_gram to 1e-12
_ORACLE_RTOL = 1e-12
# No dgeqrf call factors more than _QR_MAX_ENTRIES entries, the stacked R
# included: OpenBLAS splits the Householder updates of a larger block over its
# threads, so R would round by the thread count (16384 x 32 and 8192 x 64
# differed between one and two threads, 8192 x 32 matched).  A fold chunk has
# at least d rows, so past 362 columns (2^18 / d < 2d) a call holds 2d x d.
_QR_MAX_ENTRIES = 2 ** 18
# The fold's first chunk, with at most this share of its entries stored, is
# densified in Fortran order for its QR, which LAPACK then reads in place.
# Densifying in Fortran order goes through a CSC copy of the stored entries,
# which costs less than the transposing copy the QR takes of a C-ordered chunk
# only where few entries are stored (2-core Xeon, densify and QR: 8192 x 16,
# all stored, C 0.85 ms, F 1.58 ms; 12000 x 32, 6% stored, C 5.0 ms, F 3.6 ms).
_FORTRAN_MAX_DENSITY = 0.25


def _r_factor(M: np.ndarray) -> np.ndarray:
    """The min(m, n) x n triangular factor R of the float64 m x n ``M``, from
    one call of LAPACK's ``dgeqrf`` through scipy with the workspace LAPACK
    asks for: no copy of a Fortran-ordered M, one of a C-ordered one.  R
    keeps its bits at any BLAS thread count where M holds at most
    _QR_MAX_ENTRIES entries.  M may be overwritten."""
    m, n = M.shape
    if min(m, n) == 0:
        return np.zeros((0, n))
    lwork = max(1, n, int(lapack.dgeqrf_lwork(m, n)[0]))
    qr, _, _, info = lapack.dgeqrf(M, lwork=lwork, overwrite_a=True)
    if info:
        raise np.linalg.LinAlgError(f"dgeqrf refused argument {-info}")
    return np.triu(qr[:min(m, n)])


def _block_slices(n: int):
    """The row slices that cover n rows in order, for every pass over A:
    all n as one block up to 16384 rows, else 4096 at a time."""
    step = _BLOCK_ROWS if n > _DENSE_MAX_ROWS else max(n, 1)
    return [slice(lo, min(lo + step, n)) for lo in range(0, max(n, 1), step)]


def _block_products(A: SparseRowMatrix, W: np.ndarray):
    """Yield ``(rows, P)`` with P = A[rows] @ W for the blocks of
    :func:`_block_slices`, each from :func:`~rowsketch.matrix._csr_product`
    on A's own arrays.  Every P is a view of one buffer, overwritten by the
    next block."""
    W = np.ascontiguousarray(W, dtype=np.float64)
    slices = _block_slices(A.n_rows)
    buf = np.empty((slices[0].stop, W.shape[1]))
    for rows in slices:
        P = buf[:rows.stop - rows.start]
        yield rows, _csr_product(A.row_offsets[rows.start:rows.stop + 1], A.col_indices,
                                 A.values, W, P)


def _whitened_gram(A: SparseRowMatrix, W: np.ndarray) -> np.ndarray:
    """T'T for the whitened rows T = A @ W, summed over A's row blocks, so T
    is never formed past 16384 rows."""
    G = np.zeros((W.shape[1], W.shape[1]))
    for _, T in _block_products(A, W):
        G += T.T @ T
    return G


def _score_rows(A: SparseRowMatrix, W: np.ndarray, r: int) -> ScoreVector:
    """The one scoring pass, P = block @ W per block: row i scores
    ||P_i[:r]||^2 and is flagged when ||P_i[r:]|| > KERNEL_TOL * ||a_i||, for
    entries from about 1e-300 to 1e300: a row whose ||a_i||^2 overflows, or
    makes KERNEL_TOL^2 ||a_i||^2 subnormal, is first divided by its largest |entry|."""
    vals, infinite = np.empty(A.n_rows), np.zeros(A.n_rows, dtype=bool)
    off, col, val = A.row_offsets, A.col_indices, A.values
    ones = np.ones(A.n_cols)
    for rows, P in _block_products(A, W):
        vals[rows] = np.einsum("ij,ij->i", P[:, :r], P[:, :r])
        if W.shape[1] == r:
            continue
        ptr = off[rows.start:rows.stop + 1]
        first, last = ptr[0], ptr[-1]
        with np.errstate(over="ignore"):  # overflowed rows are redone below
            sq = _csr_product(ptr - first, col[first:last], np.square(val[first:last]),
                              ones, np.empty(len(ptr) - 1))
            ksq = np.einsum("ij,ij->i", P[:, r:], P[:, r:])
        nonempty = np.diff(ptr) > 0
        odd = np.flatnonzero((sq == np.inf) | (nonempty & (sq < _TINY / KERNEL_TOL ** 2)))
        if odd.size:
            dense = _csr_dense(*_csr_gather(off, col, val, rows.start + odd), A.n_cols)
            top = np.abs(dense).max(axis=1, keepdims=True, initial=_TINY)  # > 0 for stored zeros
            sq[odd] = ((dense / top) ** 2).sum(axis=1)
            ksq[odd] = ((P[odd, r:] / top) ** 2).sum(axis=1)
        infinite[rows] = ksq > KERNEL_TOL ** 2 * sq
    return ScoreVector(np.where(infinite, 0.0, vals), infinite)


def factor_gram(A: SparseRowMatrix) -> PseudoinverseFactor:
    """Factor A'A with numerical rank cut at sigma > RANK_RTOL * sigma_max.

    The factor is computed once per matrix object and kept in its instance
    dict, to live as long as A and serve every later call on it: a
    matrix's arrays must not change after it is built.

    The singular values come from an SVD of a matrix M with M'M = A'A rather
    than an eigendecomposition of the Gram matrix: squaring A would push the
    noise floor for sigma to ~1e-8 relative and defeat the 1e-10 cut.  Past
    16384 rows A is whitened by a sample of its own rows and read in one
    blocked pass (:func:`_sample_whitened`, after Rokhlin and Tygert, PNAS
    2008), which gives a d x d M.  Below 2d rows M = A.  Everywhere else,
    and where the sampled pass cannot reach the accuracy of the dense factor,
    M is the d x d triangular factor R of :func:`_r_fold`, A = QR, so the SVD
    never forms the n x d U it would throw away (Chan's R-SVD, ACM TOMS
    8(1), 1982); R is folded over chunks of at most 2^18 entries, so it
    does not depend on the BLAS thread count.  Either way the condition
    number of A is never squared, and no more than one chunk or block of A
    is dense at a time.
    """
    memo = vars(A)  # threads that race here compute equal factors, one of them kept
    if "_gram_factor" not in memo:
        memo["_gram_factor"] = _factor(A)
    return memo["_gram_factor"]


def _factor(A: SparseRowMatrix) -> PseudoinverseFactor:
    """:func:`factor_gram` computed afresh."""
    n, d = A.shape
    M = None
    if n > _DENSE_MAX_ROWS:
        M = _sample_whitened(A)
    elif n < 2 * d:
        M = A.to_dense()
    if M is None:  # also where the sampled pass refuses A
        M = _r_fold(A)
    _, s, vh = np.linalg.svd(M, full_matrices=False)
    r = int((s > RANK_RTOL * s.max(initial=0.0)).sum())
    return PseudoinverseFactor(vh[:r].T, s[:r])


def _r_fold(A: SparseRowMatrix) -> np.ndarray:
    """The triangular R with R'R = A'A, from :func:`_csr_r` on A's arrays."""
    return _csr_r(A.row_offsets, A.col_indices, A.values, A.n_cols)


def _csr_r(off, col, val, d: int) -> np.ndarray:
    """The triangular R with R'R = S'S for the CSR rows S = ``(off, col,
    val)`` of width d, folded over row chunks in order (TSQR: Demmel,
    Grigori, Hoemmen and Langou, arXiv:0808.2664): each chunk is densified
    and factored under the R so far, at most _QR_MAX_ENTRIES entries with
    it and, past 16384 rows, at most 4096 rows.  The first chunk is
    densified in Fortran order when it stores at most a quarter of its
    entries; LAPACK reads the same values either way, so R keeps its bits."""
    n = len(off) - 1
    block = _BLOCK_ROWS if n > _DENSE_MAX_ROWS else n
    R, lo = np.zeros((0, d)), 0
    while lo < n:
        hi = min(n, lo + min(block, max(d, _QR_MAX_ENTRIES // max(d, 1) - len(R))))
        if lo:
            R = _r_factor(np.vstack([R, _csr_dense(off[lo:hi + 1], col, val, d)]))
        else:
            stored = int(off[hi]) - int(off[0])
            order = "F" if stored <= _FORTRAN_MAX_DENSITY * hi * d else "C"
            R = _r_factor(_csr_dense(off[:hi + 1], col, val, d, order))
        lo = hi
    return R


def _sample_whitened(A: SparseRowMatrix) -> np.ndarray | None:
    """A d x d M with M'M = A'A from one pass over A's rows, or None where
    that M could miss the 1e-12 accuracy of the dense factor.

    Every ceil(n/4096)-th row forms the sample S, at most one block.  The SVD
    of its QR factor, S'S = Vs diag(ss^2) Vs', gives the basis
    Y = Vs diag(1/scale), where scale is ss above the RANK_RTOL cut and
    ss_max on the sample's null space, so directions the sample misses keep
    A's magnitude instead of overflowing.  Then G = Y'A'AY is summed as
    T'T over the blocks T = block @ Y, and A'A = Y^-T G Y^-1 with
    Y^-1 = diag(scale) Vs'.

    G_kk = (g_k / scale_k)^2 gives the gain g_k = ||A v_k|| of each column
    v_k of Vs.  A direction with g_k at most d * eps * max(g), the noise
    floor, is dropped: that perturbs A by no more than the rounding of a
    dense SVD.  The rest of G is scaled to unit diagonal, H, and factored
    H = R'R, so M = R diag(g) Vs'.  Row k of M mixes only rows k and later of
    diag(g) Vs', which fall in size along the sample's spectrum, so the SVD
    of M resolves small sigma as that of the folded R does; M from G's
    eigenvectors would mix all rows and lose small sigma.  Rounding of
    about d * eps in H moves each sigma^2 of M by up to d * eps /
    lambda_min(H) relative (Demmel and Veselic, SIMAX 1992), and
    lambda_min(H) = sigma_min(R)^2 can lie far below every pivot of R.  So
    an H with lambda_min below d * eps / 1e-12 sends A to :func:`_r_fold`,
    as do an all-zero sample and a G that is not finite.
    """
    n, d = A.shape
    sample = _csr_gather(A.row_offsets, A.col_indices, A.values,
                         np.arange(0, n, -(-n // _BLOCK_ROWS)))
    _, ss, vh = np.linalg.svd(_csr_r(*sample, d))
    if not ss.size or ss[0] == 0.0:
        return None
    scale = np.full(d, ss[0])
    kept = int((ss > RANK_RTOL * ss[0]).sum())
    scale[:kept] = ss[:kept]
    with np.errstate(over="ignore", invalid="ignore"):  # a G that overflows is refused
        G = _whitened_gram(A, vh.T / scale)
    if not np.isfinite(G).all():
        return None
    norms = np.sqrt(np.diag(G))
    gain = norms * scale
    live = np.flatnonzero(gain > d * _EPS * gain.max())
    H = G[np.ix_(live, live)] / np.outer(norms[live], norms[live])
    try:
        L = np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return None
    if np.linalg.svd(L, compute_uv=False)[-1] ** 2 < d * _EPS / _ORACLE_RTOL:
        return None
    return (L.T * gain[live]) @ vh[live]


def exact_leverage_scores(A: SparseRowMatrix) -> ScoreVector:
    """tau_i = ||a_i' V diag(1/sigma)||^2, in [0, 1] and summing to rank(A)."""
    f = factor_gram(A)
    tau = _score_rows(A, f.half_pinv(), f.rank).values
    return ScoreVector.from_finite(np.clip(tau, 0.0, 1.0))


def cross_leverage(A: SparseRowMatrix, i: int, j: int) -> float:
    """tau_ij = a_i' (A'A)^+ a_j; symmetric, with tau_ii = tau_i."""
    (ci, vi), (cj, vj) = A.row(i), A.row(j)
    M = factor_gram(A).half_pinv()
    return float((vi @ M[ci]) @ (vj @ M[cj]))


def min_norm_witness(A: SparseRowMatrix, i: int) -> np.ndarray:
    """The minimum-norm x with A'x = a_i.

    Satisfies ||x||^2 = tau_i and x[j] = tau_ij for every j; returns the
    zero vector when a_i = 0.
    """
    a_i = A.row_dense(i)
    return A.dot_dense(factor_gram(A).pinv_apply(a_i))


def generalized_leverage_scores(A: SparseRowMatrix, B: SparseRowMatrix) -> ScoreVector:
    """tau^B_i(A) = a_i' (B'B)^+ a_i, flagged infinite when a_i leans into ker(B).

    One :func:`_score_rows` pass with [V diag(1/sigma) | N], N an orthonormal
    basis of ker(B), flags a row when ||N'a_i|| exceeds KERNEL_TOL * ||a_i||
    for entries from about 1e-300 to 1e300; the zero row scores 0 and is
    never flagged.  With B = A this reduces to the exact scores.
    """
    if A.n_cols != B.n_cols:
        raise ValueError(f"column mismatch: {A.n_cols} vs {B.n_cols}")
    f = factor_gram(B)
    return _score_rows(A, np.hstack([f.half_pinv(), _kernel_basis(f)]), f.rank)


def _kernel_basis(f: PseudoinverseFactor) -> np.ndarray:
    """An orthonormal d x (d - rank) basis N of ker(B) for ``f =
    factor_gram(B)``, empty at full column rank.  Appended to a row-space
    block for one :func:`_score_rows` pass, it flags the rows that lean into
    ker(B): the one kernel rule of exact and sketched generalized scores.
    At full rank it skips the QR, which would give the same empty basis."""
    if f.rank == f.n_cols:
        return np.zeros((f.n_cols, 0))
    return np.linalg.qr(f.right_singular_vectors, mode="complete")[0][:, f.rank:]


# ---------------------------------------------------------------------------
# Score TSV I/O: "row_index<TAB>score", literal token `inf` for flagged rows
# ---------------------------------------------------------------------------

SCORE_HEADER = "row_index\tscore"


def write_scores(path, s: ScoreVector) -> None:
    """Write s as TSV to a path or text stream; flagged rows read ``inf``."""
    write_indexed_column(path, SCORE_HEADER, s.values, infinite=s.infinite)


def read_scores(path) -> ScoreVector:
    """The scores in a TSV written by :func:`write_scores`.  Only the literal
    token ``inf`` flags a row; any other score that is not a nonnegative
    real is an error at its line."""
    tsv = _IndexedTsv(path, SCORE_HEADER)
    v = tsv.values
    flags = np.isposinf(v)
    flags[flags] = [tsv.token(k) == "inf" for k in np.flatnonzero(flags).tolist()]
    tsv.check([(~(v >= 0.0) | (np.isinf(v) & ~flags),
                "score must be 'inf' or a nonnegative real, not {token!r}")])
    return ScoreVector(np.where(flags, 0.0, v), flags)
