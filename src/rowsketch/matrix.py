"""Sparse row-major matrix storage, Matrix Market and TSV I/O, and row surgery.

The two carrier types are ``SparseRowMatrix`` (CSR arrays, immutable) and
``WeightedRowSample`` (a diagonal row-selection/reweighting operator stored
as index/weight pairs).  Everything downstream operates on rows, so the
layout gives O(1) row slicing.  Column count d is assumed small enough that
dense d x d work is cheap; n-length dense vectors must fit in memory.

Row gathers, densified blocks and products with A and A' run the C++
routines of ``scipy.sparse._sparsetools`` that scipy's own ``csr_matrix``
methods run, called here and nowhere else, directly on the CSR arrays of a
matrix or of a block of its rows.  The same routine on the same operands
does the same arithmetic in the same order, so every result keeps scipy's
bits, and no scipy object is built per gather, block or product.

Readers hand numpy's C reader the file's path, and a line scanner locates
every fault at ``path:line``.  Every TSV goes through :class:`_IndexedTsv`,
each format a few vectorized rules over it.  Numbers follow numpy's
grammar, so Python's ``_`` digit separators are refused.
"""

from __future__ import annotations

import lzma
import os
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools


class MatrixFormatError(ValueError):
    """Raised on malformed Matrix Market or TSV input; carries a location."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        loc = ""
        if path is not None:
            loc += str(path)
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SparseRowMatrix:
    """CSR storage: row i occupies ``[row_offsets[i], row_offsets[i+1])``.

    Invariants (see :meth:`validate`): offsets nondecreasing and bracketing,
    column indices strictly increasing within each row and < n_cols, all
    values finite.  Arrays are frozen after construction and must not change
    by any path: :func:`~rowsketch.leverage.factor_gram` keeps the factor it
    computes once per matrix object on it.  Index arrays are int32 while
    n_rows, n_cols and nnz fit, else int64, as scipy would pick, so
    :meth:`to_scipy` copies nothing.
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        values = _frozen(np.ascontiguousarray(self.values, dtype=np.float64))
        i32 = np.iinfo(np.int32)
        idx = np.int32 if max(self.n_rows, self.n_cols, values.size) <= i32.max else np.int64
        for name in ("row_offsets", "col_indices"):
            arr = np.asarray(getattr(self, name))
            # an entry int32 cannot hold keeps the array int64, for validate() to reject
            fits = arr.dtype == idx or not arr.size or i32.min <= arr.min() and arr.max() <= i32.max
            object.__setattr__(self, name, _frozen(np.ascontiguousarray(arr, dtype=idx if fits else np.int64)))
        object.__setattr__(self, "values", values)

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def validate(self) -> None:
        off, col, val = self.row_offsets, self.col_indices, self.values
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("negative dimension")
        if off.shape != (self.n_rows + 1,):
            raise ValueError("row_offsets must have length n_rows+1")
        if off[0] != 0 or off[-1] != val.shape[0] or col.shape != val.shape:
            raise ValueError("row_offsets must bracket the entry arrays")
        if np.any(np.diff(off) < 0):
            raise ValueError("row_offsets must be nondecreasing")
        if val.size:
            if col.min() < 0 or col.max() >= self.n_cols:
                raise ValueError("column index out of range")
            if not np.all(np.isfinite(val)):
                raise ValueError("matrix values must be finite")
        # strict increase within each row: differences may only be <= 0 at row starts
        if col.size > 1:
            bad = np.flatnonzero(np.diff(col) <= 0) + 1
            if bad.size and not np.all(np.isin(bad, off[1:-1])):
                raise ValueError("column indices must strictly increase within each row")

    @classmethod
    def from_coo(cls, n_rows: int, n_cols: int, rows, cols, vals) -> "SparseRowMatrix":
        """Build from triplets; duplicate (i, j) entries are summed and
        explicit zeros dropped, matching Matrix Market conventions."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValueError("column index out of range")
        return cls.from_scipy(sp.coo_matrix((vals, (rows, cols)), shape=(n_rows, n_cols), dtype=np.float64))

    @classmethod
    def from_dense(cls, arr) -> "SparseRowMatrix":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("expected a 2-d array")
        return cls.from_scipy(arr)

    @classmethod
    def from_scipy(cls, mat) -> "SparseRowMatrix":
        """Canonical CSR of ``mat``: duplicates summed, rows sorted, explicit zeros dropped."""
        csr = sp.csr_matrix(mat, copy=True)
        csr.sum_duplicates()
        csr.eliminate_zeros()
        out = cls(csr.shape[0], csr.shape[1], csr.indptr, csr.indices, csr.data)
        out.validate()
        return out

    def to_scipy(self) -> sp.csr_matrix:
        """A read-only scipy CSR on this matrix's own arrays."""
        return sp.csr_matrix((self.values, self.col_indices, self.row_offsets), shape=self.shape)

    def to_dense(self) -> np.ndarray:
        return _csr_dense(self.row_offsets, self.col_indices, self.values, self.n_cols)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row i (views, O(1))."""
        if not 0 <= i < self.n_rows:
            raise IndexError(f"row {i} out of range for {self.n_rows} rows")
        lo, hi = self.row_offsets[i], self.row_offsets[i + 1]
        return self.col_indices[lo:hi], self.values[lo:hi]

    def row_dense(self, i: int) -> np.ndarray:
        cols, vals = self.row(i)
        out = np.zeros(self.n_cols)
        out[cols] = vals
        return out

    def dot_dense(self, X: np.ndarray) -> np.ndarray:
        """A @ X for a dense vector or d x k block, with the bits of ``csr @ X``."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim not in (1, 2) or X.shape[0] != self.n_cols:
            raise ValueError(f"dimension mismatch: {self.shape} @ {X.shape}")
        out = np.empty((self.n_rows, *X.shape[1:]))
        return _csr_product(self.row_offsets, self.col_indices, self.values, X, out)


# ---------------------------------------------------------------------------
# CSR kernels: scipy's own routines on the arrays of a CSR or of a row block
# ---------------------------------------------------------------------------
#
# Each takes ``indptr`` (one offset per row and one more, into ``indices``
# and ``data``), so the rows lo..hi of a matrix are ``indptr[lo:hi + 1]`` on
# its whole ``indices`` and ``data``, read in place.  Index arrays share one
# dtype, int32 or int64, as SparseRowMatrix keeps them.


def _csr_product(indptr, indices, data, X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` set to M @ X for the CSR rows M, through the kernel scipy's
    ``csr @ X`` runs, so with its bits: ``csr_matvec`` for a vector or one
    column, else ``csr_matvecs``.  The kernel checks no layout, so this
    checks that X and ``out`` are C-ordered float64 of M @ X's size."""
    rows, k = len(indptr) - 1, (X.shape[1] if X.ndim == 2 else 1)
    for arr, size in ((X, X.shape[0] * k), (out, rows * k)):
        if arr.dtype != np.float64 or not arr.flags.c_contiguous or arr.size != size:
            raise ValueError("CSR product operands must be C-ordered float64 of matching size")
    out.fill(0.0)
    if k == 1:
        _sparsetools.csr_matvec(rows, X.shape[0], indptr, indices, data, X.ravel(), out.ravel())
    else:
        _sparsetools.csr_matvecs(rows, X.shape[0], k, indptr, indices, data, X.ravel(), out.ravel())
    return out


def _transpose_dot(A: SparseRowMatrix, r: np.ndarray) -> np.ndarray:
    """A' @ r for the float64 n-vector r: scipy's ``csr.T @ r``, which reads
    A's arrays as the CSC of A' and runs ``csc_matvec``, with no CSC built."""
    r = np.ascontiguousarray(r, dtype=np.float64)
    if r.shape != (A.n_rows,):
        raise ValueError(f"dimension mismatch: {A.shape[::-1]} @ {r.shape}")
    out = np.zeros(A.n_cols)
    _sparsetools.csc_matvec(A.n_cols, A.n_rows, A.row_offsets, A.col_indices, A.values, r, out)
    return out


def _csr_gather(indptr, indices, data, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, data)`` of the CSR rows ``rows``, in that order:
    scipy's ``csr[rows]`` through ``csr_row_index``, into fresh arrays."""
    rows = np.asarray(rows, dtype=indptr.dtype)
    ptr = np.zeros(rows.size + 1, dtype=indptr.dtype)
    np.cumsum(indptr[rows + 1] - indptr[rows], out=ptr[1:])
    idx, val = np.empty(int(ptr[-1]), dtype=indptr.dtype), np.empty(int(ptr[-1]))
    if rows.size:
        _sparsetools.csr_row_index(rows.size, rows, indptr, indices, data, idx, val)
    return ptr, idx, val


def _csr_dense(indptr, indices, data, n_cols: int, order: str = "C") -> np.ndarray:
    """The CSR rows as a dense array: scipy's ``csr.toarray(order)``, which
    adds each entry into zeros by ``csr_todense``; in Fortran order it runs
    ``csr_tocsc`` on the rows first and densifies that CSC as the
    transposed CSR it is."""
    rows = len(indptr) - 1
    out = np.zeros((rows, n_cols), order=order)
    if order == "C":
        _sparsetools.csr_todense(rows, n_cols, indptr, indices, data, out)
        return out
    lo, hi = int(indptr[0]), int(indptr[-1])  # csr_tocsc reads offsets from 0
    cptr = np.empty(n_cols + 1, dtype=indptr.dtype)
    cidx, cval = np.empty(hi - lo, dtype=indptr.dtype), np.empty(hi - lo)
    _sparsetools.csr_tocsc(rows, n_cols, indptr - lo, indices[lo:hi], data[lo:hi], cptr, cidx, cval)
    _sparsetools.csr_todense(n_cols, rows, cptr, cidx, cval, out.T)
    return out


@dataclass(frozen=True)
class WeightedRowSample:
    """Diagonal sampling operator: entry (i, w) selects parent row i scaled
    by w.  Indices are unique; weights positive and finite."""

    parent_rows: int
    row_indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "row_indices", _frozen(np.ascontiguousarray(self.row_indices, dtype=np.int64)))
        object.__setattr__(self, "weights", _frozen(np.ascontiguousarray(self.weights, dtype=np.float64)))

    def __len__(self) -> int:
        return int(self.row_indices.shape[0])

    def validate(self) -> None:
        idx, w = self.row_indices, self.weights
        if idx.shape != w.shape or idx.ndim != 1:
            raise ValueError("indices and weights must be 1-d and aligned")
        if idx.size:
            # the pipelines' samples are sorted: strictly increasing indices
            # are unique and bounded by their two ends
            increasing = bool((idx[1:] > idx[:-1]).all())
            lo, hi = (idx[0], idx[-1]) if increasing else (idx.min(), idx.max())
            if lo < 0 or hi >= self.parent_rows:
                raise ValueError("sample index out of parent range")
            if not increasing and np.unique(idx).size != idx.size:
                raise ValueError("sample indices must be unique")
            if not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise ValueError("sample weights must be positive and finite")

    @classmethod
    def identity(cls, n: int) -> "WeightedRowSample":
        return cls(n, np.arange(n, dtype=np.int64), np.ones(n))

    def scaled(self, factor: float) -> "WeightedRowSample":
        return WeightedRowSample(self.parent_rows, self.row_indices, self.weights * float(factor))


def materialize(A: SparseRowMatrix, S: WeightedRowSample) -> SparseRowMatrix:
    """Rows of S applied to A: output row k equals ``S.weights[k] * A[S.row_indices[k]]``."""
    if S.parent_rows != A.n_rows:
        raise ValueError(f"sample built for {S.parent_rows} rows, matrix has {A.n_rows}")
    S.validate()
    return _take_rows(A, S)


def _take_rows(A: SparseRowMatrix, S: WeightedRowSample) -> SparseRowMatrix:
    """:func:`materialize` of a sample built valid for A, as the pipelines' are."""
    # rows copied whole, so still sorted, then weighted in place
    ptr, idx, vals = _csr_gather(A.row_offsets, A.col_indices, A.values, S.row_indices)
    vals *= np.repeat(S.weights, np.diff(ptr))
    return SparseRowMatrix(len(S), A.n_cols, ptr, idx, vals)


def scale_rows(A: SparseRowMatrix, w: np.ndarray) -> SparseRowMatrix:
    """diag(w) @ A on A's own index arrays; a row of weight 0 keeps its
    entries, as zeros.  Weights all 1 give A itself, with its kept factor."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (A.n_rows,):
        raise ValueError("weight vector length must equal n_rows")
    if (w == 1.0).all():
        return A
    vals = A.values * np.repeat(w, np.diff(A.row_offsets))
    return SparseRowMatrix(A.n_rows, A.n_cols, A.row_offsets, A.col_indices, vals)


# ---------------------------------------------------------------------------
# Matrix Market I/O (coordinate and array formats, real-valued, general)
# ---------------------------------------------------------------------------

# CGLS's ||A A'r||^2 multiplies up to six entries of A and b together, and
# a Gram pseudoinverse (A'A)^+ scales as the inverse square of A; while the
# largest |entry| lies within 2^-128 .. 2^128, both stay inside the normal
# range with room for the sums.
_SHIFT_RANGE = 2.0 ** 128


def _binade_shift(values: np.ndarray) -> int:
    """The exponent e that brings max |values| * 2^e into [1/2, 1), or 0 when
    max |values| already lies within 2^-128 .. 2^128 (or is zero)."""
    top = float(np.abs(values).max(initial=0.0))
    if top == 0.0 or 1.0 / _SHIFT_RANGE <= top <= _SHIFT_RANGE:
        return 0
    return -int(np.frexp(top)[1])


def _binade_shifted(A: SparseRowMatrix) -> tuple[SparseRowMatrix, int]:
    """``(2^e A, e)`` with e from :func:`_binade_shift` of A's values: exact,
    and A itself when e = 0."""
    e = _binade_shift(A.values)
    if e:
        A = SparseRowMatrix(A.n_rows, A.n_cols, A.row_offsets, A.col_indices,
                            np.ldexp(A.values, e))
    return A, e


def read_matrix_market(path) -> SparseRowMatrix:
    """Parse a Matrix Market file.

    Supports ``coordinate`` and ``array`` formats with the ``real`` (or
    ``integer``) field and ``general`` symmetry.  Duplicate coordinate
    entries are summed; explicit zeros are dropped.  Parse failures raise
    :class:`MatrixFormatError` with the offending line number.

    Entries go through numpy's C reader; a file it does not take cleanly is
    parsed again by the line scanner, which decides what the file means and
    locates every failure.
    """
    path = str(path)
    fast = _read_matrix_market_fast(path)
    return fast if fast is not None else _scan_matrix_market(path)


# Well-formed input is printable ASCII, tabs and line ends.  On such text
# numpy's reader and ``str.split``/``str.splitlines`` cut lines and fields
# alike.  On other text they differ: numpy separates fields at form feed,
# vertical tab and \x1c-\x1f, and ``str.splitlines`` ends a line at most of
# these.  So the fast paths leave any other byte to the scanners.
_PLAIN_BYTES = bytes([9, 10, 13, *range(0x20, 0x7F)])


def _plain_text(path: str) -> bool:
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            if chunk.translate(None, _PLAIN_BYTES):
                return False
    return True


def _load_body(path: str, skip: int, dtype, delimiter=None) -> np.ndarray:
    """The lines of the plain-text file ``path`` after its first ``skip``,
    through ``np.loadtxt``.  Given a path, numpy's C reader reads the file in
    chunks; given an open handle it would take the lines one by one through
    Python.  The path is absolute, so numpy never reads it as a URL.

    ``comments=None``: the default ``'#'`` would drop text the scanners
    reject.  Warnings are errors because on numpy 1.x ``loadtxt`` truncates
    ``1.5`` in an integer field with only a DeprecationWarning, and it warns
    on input without rows; either must send the file to the scanner.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(os.path.abspath(path), dtype=dtype, delimiter=delimiter, comments=None,
                          ndmin=1, skiprows=skip, encoding="ascii")


# What the fast readers raise on a file that numpy's reader does not take: a
# parse error, a warning made an error, or the fault of the decompressor
# numpy opens a name ending in .gz, .bz2, .xz or .lzma with, on plain text.
_NOT_TAKEN = (ValueError, Warning, OSError, EOFError, lzma.LZMAError)

_COORDINATE_ENTRY = np.dtype([("i", "<i8"), ("j", "<i8"), ("v", "<f8")])


def _read_matrix_market_fast(path: str) -> SparseRowMatrix | None:
    """The matrix if numpy reads exactly the declared, in-range, finite
    entries; None leaves the file to :func:`_scan_matrix_market`."""
    if not _plain_text(path):
        return None
    try:
        with open(path, "r", encoding="ascii") as fh:
            fmt = _mm_header(fh.readline().split(), path)
            for skip, line in enumerate(fh, start=2):
                if line.strip() and not line.lstrip().startswith("%"):
                    break
            else:
                return None
        dims = _mm_size(line.split(), fmt, path, None)
        if min(dims) <= 0:
            return None
        body = _load_body(path, skip, _COORDINATE_ENTRY if fmt == "coordinate" else np.float64)
    except _NOT_TAKEN:
        return None
    try:  # an index out of range or a value not finite is left to the scanner
        if fmt == "array" and body.shape == (dims[0] * dims[1],):
            return SparseRowMatrix.from_dense(body.reshape(dims[1], dims[0]).T)
        if fmt == "coordinate" and body.shape == (dims[2],):
            return SparseRowMatrix.from_coo(*dims[:2], body["i"] - 1, body["j"] - 1, body["v"])
    except ValueError:
        pass
    return None


def _ascii_lines(path: str) -> tuple[list[str], MatrixFormatError | None]:
    """The lines of a text file before its first non-ASCII byte, and the
    error locating that byte (None if there is none)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii").splitlines(), None
    except UnicodeDecodeError as exc:
        lines = (data[:exc.start].decode("ascii") + "x").splitlines()
        return lines[:-1], MatrixFormatError(f"non-ASCII byte 0x{data[exc.start]:02x}", path, len(lines))


def _parse(kind, tok: str, message: str, path: str, line: int | None):
    """``kind(tok)`` for ``kind`` int or float, as numpy's reader takes it:
    the ``_`` digit separators Python allows are refused.  A token that does
    not parse is ``message.format(tok)`` at ``path:line``."""
    try:
        if "_" not in tok:
            return kind(tok)
    except ValueError:
        pass
    raise MatrixFormatError(message.format(tok), path, line)


def _mm_header(header: list[str], path: str) -> str:
    """The format named by the tokens of the header line."""
    if len(header) != 5 or header[0] != "%%MatrixMarket" or header[1].lower() != "matrix":
        raise MatrixFormatError("expected '%%MatrixMarket matrix <format> <field> <symmetry>' header", path, 1)
    fmt, field, symmetry = header[2].lower(), header[3].lower(), header[4].lower()
    if fmt not in ("coordinate", "array"):
        raise MatrixFormatError(f"unknown format {fmt!r}", path, 1)
    if field in ("complex", "pattern"):
        raise MatrixFormatError(f"unsupported field {field!r} (real-valued input required)", path, 1)
    if field not in ("real", "integer", "double"):
        raise MatrixFormatError(f"unknown field {field!r}", path, 1)
    if symmetry != "general":
        raise MatrixFormatError(f"unsupported symmetry {symmetry!r} (only 'general')", path, 1)
    return fmt


_SIZE_LINE = {"coordinate": "rows cols nnz", "array": "rows cols"}


def _mm_size(toks: list[str], fmt: str, path: str, lineno: int | None) -> tuple[int, ...]:
    """``(rows, cols, nnz)`` or ``(rows, cols)`` from the tokens of the size line."""
    if len(toks) != len(_SIZE_LINE[fmt].split()):
        raise MatrixFormatError(f"{fmt} size line must be '{_SIZE_LINE[fmt]}'", path, lineno)
    return tuple(_parse(int, t, "bad size line", path, lineno) for t in toks)


def _scan_matrix_market(path: str) -> SparseRowMatrix:
    """The reference parser: line by line, every failure located.

    It defines what :func:`read_matrix_market` accepts; the fast path must
    return exactly what this returns, or defer to it.
    """
    lines, fault = _ascii_lines(path)
    if fault is not None:
        raise fault
    if not lines:
        raise MatrixFormatError("empty file", path, 1)
    fmt = _mm_header(lines[0].split(), path)

    def parse_real(tok: str, lineno: int) -> float:
        v = _parse(float, tok, "bad numeric value {!r}", path, lineno)
        if not np.isfinite(v):
            raise MatrixFormatError(f"non-finite value {tok!r}", path, lineno)
        return v

    body = [(i + 1, ln) for i, ln in enumerate(lines[1:], start=1)
            if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise MatrixFormatError("missing size line", path, len(lines))
    size_lineno, size_line = body[0]
    dims = _mm_size(size_line.split(), fmt, path, size_lineno)
    entries = body[1:]

    if fmt == "coordinate":
        n_rows, n_cols, nnz = dims
        if len(entries) != nnz:
            raise MatrixFormatError(f"expected {nnz} entries, found {len(entries)}", path, size_lineno)
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=np.float64)
        for k, (lineno, ln) in enumerate(entries):
            parts = ln.split()
            if len(parts) != 3:
                raise MatrixFormatError("coordinate entry must be 'row col value'", path, lineno)
            i, j = (_parse(int, t, "bad index", path, lineno) for t in parts[:2])
            if not (1 <= i <= n_rows and 1 <= j <= n_cols):
                raise MatrixFormatError(f"index ({i}, {j}) outside {n_rows} x {n_cols}", path, lineno)
            rows[k], cols[k] = i - 1, j - 1
            vals[k] = parse_real(parts[2], lineno)
        return SparseRowMatrix.from_coo(n_rows, n_cols, rows, cols, vals)

    # array format: dense column-major listing
    n_rows, n_cols = dims
    if len(entries) != n_rows * n_cols:
        raise MatrixFormatError(f"expected {n_rows * n_cols} values, found {len(entries)}", path, size_lineno)
    dense = np.empty((n_rows, n_cols))
    for k, (lineno, ln) in enumerate(entries):
        parts = ln.split()
        if len(parts) != 1:
            raise MatrixFormatError("array entry must be a single value", path, lineno)
        dense[k % n_rows, k // n_rows] = parse_real(parts[0], lineno)
    return SparseRowMatrix.from_dense(dense)


_WRITE_BLOCK = 4096  # lines per format and write: few calls, bounded memory


def _write_lines(fh, line: str, *columns: np.ndarray) -> None:
    """Write the ``%`` template ``line`` once per entry of the equal-length
    ``columns``, filled from their entries in turn: one format and one
    write per block of 4096 lines."""
    for lo in range(0, len(columns[0]), _WRITE_BLOCK):
        block = [c[lo:lo + _WRITE_BLOCK].tolist() for c in columns]
        fh.write(line * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


def write_matrix_market(path, A: SparseRowMatrix) -> None:
    """Write coordinate real general format; values keep 17 significant digits."""
    rows = np.repeat(np.arange(1, A.n_rows + 1), np.diff(A.row_offsets))
    with open(str(path), "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{A.n_rows} {A.n_cols} {A.nnz}\n")
        # a column index is below n_cols, so one more fits its dtype
        _write_lines(fh, "%d %d %.17g\n", rows, A.col_indices + 1, A.values)


# ---------------------------------------------------------------------------
# TSV I/O: header lines, then "row_index<TAB>value" lines
# ---------------------------------------------------------------------------

_INDEXED_ENTRY = np.dtype([("i", "<i8"), ("v", "<f8")])


def _read_tsv_fast(path: str, n_header: int):
    """``(header lines, indices, values, tokens)`` of an index/value TSV read
    by numpy, or None to leave the file to its scanner.  ``tokens`` maps each
    entry whose value is not finite to that value as the file spells it, cut
    from the file's lines but not parsed again; it is empty where every
    value is finite."""
    if not _plain_text(path):
        return None
    try:
        with open(path, "r", encoding="ascii") as fh:
            head = [fh.readline().rstrip("\n") for _ in range(n_header)]
        body = _load_body(path, n_header, _INDEXED_ENTRY, "\t")
    except _NOT_TAKEN:
        return None
    odd = np.flatnonzero(~np.isfinite(body["v"])).tolist()
    tokens = {}
    if odd:
        entries = [ln for ln in _ascii_lines(path)[0][n_header:] if ln.strip()]
        if len(entries) != body.size:
            return None
        tokens = {k: entries[k].split("\t")[1] for k in odd}
    return head, body["i"].copy(), body["v"].copy(), tokens


class _IndexedTsv:
    """The reader of every TSV: ``n_header`` header lines, the last of them
    ``header``, then ``index<TAB>value`` lines, blank lines skipped.

    ``indices`` and ``values`` hold the entries up to the first line that
    does not parse.  numpy reads a well-formed file; the line scanner reads
    any other, or one in which :meth:`check` finds a fault, and keeps each
    entry's line and value token.
    """

    def __init__(self, path, header: str, n_header: int = 1, consecutive: bool = True):
        self.path, self.header, self.n_header, self.consecutive = str(path), header, n_header, consecutive
        self._layout = ("consecutive " if consecutive else "") + repr(header).replace(r"\t", "<TAB>")
        self._tokens = self._fault = None
        fast = _read_tsv_fast(self.path, n_header)
        self.head, self.indices, self.values, self._odd_tokens = \
            fast if fast is not None else (*self._scan(), {})

    def _scan(self):
        """``(head, indices, values)`` read line by line; keeps each entry's
        line and token, and the first line that does not parse."""
        lines, self._fault = _ascii_lines(self.path)
        if self._fault is not None and self._fault.line <= self.n_header:
            raise self._fault
        path, idx, vals, where, tokens = self.path, [], [], [], []
        expected, bad = f"expected {self._layout}", "bad " + self.header.partition("\t")[2] + " {!r}"
        try:
            for lineno, ln in enumerate(lines[self.n_header:], start=self.n_header + 1):
                if not ln.strip():
                    continue
                parts = ln.split("\t")
                if len(parts) != 2:
                    raise MatrixFormatError(expected, path, lineno)
                i = _parse(int, parts[0], expected, path, lineno)
                vals.append(_parse(float, parts[1], bad, path, lineno))
                idx.append(i)
                where.append(lineno)
                tokens.append(parts[1])
        except MatrixFormatError as exc:
            self._fault = exc
        self._lines, self._tokens = where, tokens
        head = (lines + [""] * self.n_header)[:self.n_header]
        return head, np.array(idx, dtype=np.int64), np.array(vals, dtype=np.float64)

    def token(self, k: int) -> str:
        """The value of entry k as the file spells it."""
        if self._tokens is None:
            if k in self._odd_tokens:
                return self._odd_tokens[k]
            self._scan()
        return self._tokens[k]

    def check(self, rules=()) -> None:
        """Raise the first fault in file order: a last header line other than
        ``header``, an entry that breaks a rule, or a line that does not
        parse.  A rule is a mask, true where an entry breaks it, and a
        message with that entry's ``{index}`` and ``{token}``; at one entry
        the first rule wins.  With ``consecutive`` indices must run 0, 1, ...
        """
        if self.head[-1] != self.header:
            raise MatrixFormatError(f"expected header {self.header!r}", self.path, self.n_header)
        if self.consecutive:
            rules = [(self.indices != np.arange(self.indices.size), f"expected {self._layout}"), *rules]
        broken = [(int(bad.argmax()), r) for r, (bad, _) in enumerate(rules) if bad.any()]
        if broken:
            k, r = min(broken)
            if self._tokens is None:
                self._scan()
            message = rules[r][1].format(index=int(self.indices[k]), token=self.token(k))
            raise MatrixFormatError(message, self.path, self._lines[k])
        if self._fault is not None:
            raise self._fault


def read_indexed_column(path, column: str) -> np.ndarray:
    """Finite values of a TSV with header ``row_index<TAB><column>`` whose
    row indices run 0, 1, 2, ... in order; blank lines are skipped."""
    tsv = _IndexedTsv(path, f"row_index\t{column}")
    tsv.check([(~np.isfinite(tsv.values), f"non-finite {column} {{token!r}}")])
    return tsv.values


def write_indexed_column(dest, header: str, values, indices=None, infinite=None) -> None:
    """Write ``header`` (its lines without the last newline), then one
    ``row_index<TAB>value`` line per value.

    ``dest`` is a path or an open text stream.  Row indices default to 0,
    1, 2, ...; values keep 17 significant digits, and rows flagged in
    ``infinite`` read ``inf``.
    """
    if not hasattr(dest, "write"):
        with open(str(dest), "w", encoding="ascii") as fh:
            return write_indexed_column(fh, header, values, indices, infinite)
    vals = np.asarray(values, dtype=np.float64)
    if infinite is not None:
        vals = np.where(np.asarray(infinite, dtype=bool), np.inf, vals)  # %.17g spells it inf
    rows = np.arange(vals.size) if indices is None else np.asarray(indices)
    dest.write(header + "\n")
    _write_lines(dest, "%d\t%.17g\n", rows, vals)


SAMPLE_HEADER = "row_index\tweight"


def write_sample(path, S: WeightedRowSample) -> None:
    """Write S as TSV to a path or text stream; :func:`read_sample` reads it back."""
    write_indexed_column(path, f"# parent_rows={S.parent_rows}\n{SAMPLE_HEADER}",
                         S.weights, indices=S.row_indices)


def read_sample(path) -> WeightedRowSample:
    """The sample in a TSV written by :func:`write_sample`.  An entry whose
    index is repeated or outside the parent, or whose weight is not positive
    and finite, is an error at its line."""
    tsv = _IndexedTsv(path, SAMPLE_HEADER, n_header=2, consecutive=False)
    if not tsv.head[0].startswith("# parent_rows="):
        raise MatrixFormatError("missing '# parent_rows=' line", tsv.path, 1)
    parent = _parse(int, tsv.head[0].split("=", 1)[1], "bad parent_rows value", tsv.path, 1)
    if parent < 0:
        raise MatrixFormatError(f"parent_rows must be nonnegative, not {parent}", tsv.path, 1)
    idx, w = tsv.indices, tsv.values
    repeat = np.ones(idx.size, dtype=bool)
    repeat[np.unique(idx, return_index=True)[1]] = False
    tsv.check([((idx < 0) | (idx >= parent), f"row index {{index}} outside 0..{parent - 1}"),
               (repeat, "duplicate row index {index}"),
               (~((w > 0.0) & (w < np.inf)), "weight must be positive and finite, not {token!r}")])
    return WeightedRowSample(parent, idx, w)
