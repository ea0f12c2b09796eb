"""Matrix storage, Matrix Market parsing, sample materialization, TSV I/O."""

import io
import re
import types
import warnings

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from rowsketch import (MatrixFormatError, Reweighting, ScoreVector,
                       SparseRowMatrix, WeightedRowSample, exact_leverage_scores,
                       factor_gram, materialize, read_matrix_market,
                       read_sample, read_scores, read_weights, scale_rows,
                       write_matrix_market, write_sample, write_scores,
                       write_weights)
from rowsketch import leverage, matrix
from rowsketch.matrix import read_indexed_column

from conftest import gaussian_matrix


def test_from_dense_round_trip(rng):
    dense = rng.standard_normal((7, 4))
    dense[rng.random((7, 4)) < 0.4] = 0.0
    A = SparseRowMatrix.from_dense(dense)
    A.validate()
    np.testing.assert_array_equal(A.to_dense(), dense)


def test_from_coo_sums_duplicates_and_drops_zeros():
    A = SparseRowMatrix.from_coo(3, 2, [0, 0, 1, 2], [1, 1, 0, 0], [2.0, 3.0, 0.0, 4.0])
    assert A.nnz == 2
    np.testing.assert_array_equal(A.to_dense(), [[0, 5.0], [0, 0], [4.0, 0]])


def test_validate_rejects_broken_invariants():
    good = SparseRowMatrix.from_dense(np.eye(3))
    good.validate()
    bad_col = SparseRowMatrix(2, 2, np.array([0, 1, 2]), np.array([0, 5]), np.ones(2))
    with pytest.raises(ValueError):
        bad_col.validate()
    bad_order = SparseRowMatrix(1, 3, np.array([0, 2]), np.array([2, 1]), np.ones(2))
    with pytest.raises(ValueError):
        bad_order.validate()
    bad_val = SparseRowMatrix(1, 2, np.array([0, 1]), np.array([0]), np.array([np.nan]))
    with pytest.raises(ValueError):
        bad_val.validate()


def test_arrays_frozen():
    A = SparseRowMatrix.from_dense(np.eye(2))
    with pytest.raises(ValueError):
        A.values[0] = 7.0


class TestMatrixMarket:
    def test_coordinate_parse(self, tmp_path):
        p = tmp_path / "m.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "% comment line\n"
                     "3 2 4\n1 1 1.5\n1 2 -2\n2 1 3\n3 2 4\n")
        A = read_matrix_market(p)
        assert A.shape == (3, 2) and A.nnz == 4
        np.testing.assert_allclose(A.to_dense(), [[1.5, -2], [3, 0], [0, 4]])

    def test_nan_value_rejected(self, tmp_path):
        p = tmp_path / "m.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 NaN\n")
        with pytest.raises(MatrixFormatError) as err:
            read_matrix_market(p)
        assert err.value.line == 3

    def test_duplicate_entries_summed_matches_reference_reader(self, tmp_path):
        p = tmp_path / "dup.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 3\n1 1 2.0\n1 1 3.0\n2 2 1.0\n")
        A = read_matrix_market(p)
        assert A.nnz == 2
        assert A.to_dense()[0, 0] == 5.0
        ref = scipy.io.mmread(str(p)).toarray()
        np.testing.assert_array_equal(A.to_dense(), ref)

    def test_array_format(self, tmp_path):
        p = tmp_path / "a.mtx"
        p.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
        np.testing.assert_array_equal(read_matrix_market(p).to_dense(), [[1, 3], [2, 4]])

    def test_unsupported_fields_rejected(self, tmp_path):
        for field, sym in (("complex", "general"), ("pattern", "general"), ("real", "symmetric")):
            p = tmp_path / "u.mtx"
            p.write_text(f"%%MatrixMarket matrix coordinate {field} {sym}\n1 1 1\n1 1 1\n")
            with pytest.raises(MatrixFormatError):
                read_matrix_market(p)

    def test_wrong_entry_count_reports_line(self, tmp_path):
        p = tmp_path / "w.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n")
        with pytest.raises(MatrixFormatError):
            read_matrix_market(p)

    def test_write_read_round_trip(self, tmp_path, rng):
        A = gaussian_matrix(20, 5, 3)
        p = tmp_path / "r.mtx"
        write_matrix_market(p, A)
        B = read_matrix_market(p)
        np.testing.assert_array_equal(A.row_offsets, B.row_offsets)
        np.testing.assert_array_equal(A.col_indices, B.col_indices)
        np.testing.assert_array_equal(A.values, B.values)

    def test_writer_matches_per_line_loop_in_blocks(self, tmp_path, rng, monkeypatch):
        # the bytes of a per-line f-string loop, written one block of lines at a time
        n, d = 3000, 4
        vals = rng.standard_normal(n * d) * 10.0 ** rng.integers(-300, 300, n * d)
        vals[:4] = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        A = SparseRowMatrix(n, d, np.arange(0, n * d + 1, d), np.tile(np.arange(d), n), vals)
        row_of = np.repeat(np.arange(n), np.diff(A.row_offsets))
        want = [b"%%MatrixMarket matrix coordinate real general\n", f"{n} {d} {n * d}\n".encode()]
        want += [f"{i + 1} {j + 1} {v:.17g}\n".encode()
                 for i, j, v in zip(row_of, A.col_indices, A.values)]
        writes = []

        def counting_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            write = fh.write
            fh.write = lambda text: writes.append(text) or write(text)
            return fh

        monkeypatch.setattr(matrix, "open", counting_open, raising=False)
        p = tmp_path / "w.mtx"
        write_matrix_market(p, A)
        assert p.read_bytes().splitlines(keepends=True) == want
        assert len(writes) == 2 + -(-n * d // matrix._WRITE_BLOCK)

    def test_reference_reader_agrees_on_random(self, tmp_path):
        A = gaussian_matrix(15, 4, 9)
        p = tmp_path / "x.mtx"
        write_matrix_market(p, A)
        np.testing.assert_allclose(read_matrix_market(p).to_dense(),
                                   scipy.io.mmread(str(p)).toarray(), rtol=0, atol=0)


COORD = "%%MatrixMarket matrix coordinate real general\n"
ARRAY = "%%MatrixMarket matrix array real general\n"

# (id, file text, whether numpy's reader should take it); text is written as
# latin-1 so that non-ASCII bytes can be planted
MM_CORPUS = [
    ("well-formed", COORD + "% c\n3 2 4\n1 1 1.5\n1 2 -2\n2 1 3e-3\n3 2 4\n", True),
    ("duplicates-and-zero", COORD + "2 2 4\n1 1 2.0\n1 1 3.0\n2 2 0\n2 1 -1\n", True),
    ("extra-token", COORD + "1 1 1\n1 1 1.5 7\n", False),
    ("missing-token", COORD + "1 1 1\n1 1\n", False),
    ("nan", COORD + "1 1 1\n1 1 nan\n", False),
    ("inf", COORD + "1 1 1\n1 1 inf\n", False),
    ("minus-infinity", COORD + "1 1 1\n1 1 -Infinity\n", False),
    ("overflow", COORD + "1 1 1\n1 1 1e400\n", False),
    ("hex", COORD + "1 1 1\n1 1 0x10\n", False),
    ("underscore", COORD + "1 1 1\n1 1 1_0\n", False),
    ("underscore-index", COORD + "20 2 1\n1_0 1 1\n", False),
    ("underscore-size-line", COORD + "1_0 2 1\n1 1 1\n", False),
    ("fortran-exponent", COORD + "1 1 1\n1 1 1.5D0\n", False),
    ("float-index", COORD + "2 2 1\n1.5 1 1\n", False),
    ("zero-index", COORD + "2 2 1\n0 1 1\n", False),
    ("negative-index", COORD + "2 2 1\n1 -1 1\n", False),
    ("index-out-of-range", COORD + "2 2 2\n1 1 1\n3 1 1\n", False),
    ("23-digit-index", COORD + "2 2 1\n12345678901234567890123 1 1\n", False),
    ("too-few-entries", COORD + "2 2 3\n1 1 1\n2 2 2\n", False),
    ("too-many-entries", COORD + "2 2 1\n1 1 1\n2 2 2\n", False),
    ("trailing-hash", COORD + "1 1 1\n1 1 1 # x\n", False),
    ("trailing-percent", COORD + "1 1 1\n1 1 1 % x\n", False),
    ("blank-lines-in-body", COORD + "2 2 2\n1 1 1\n\n2 2 2\n\n", True),
    ("whitespace-lines-in-body", COORD + "2 2 2\n1 1 1\n   \n\t\n2 2 2\n", True),
    ("percent-line-in-body", COORD + "2 2 2\n1 1 1\n% between\n2 2 2\n", False),
    ("hash-line-in-body", COORD + "2 2 2\n1 1 1\n#c\n2 2 2\n", False),
    ("crlf", COORD.replace("\n", "\r\n") + "2 2 2\r\n1 1 1\r\n2 2 2\r\n", True),
    ("lone-cr", COORD.replace("\n", "\r") + "2 2 2\r1 1 1\r2 2 2\r", True),
    ("tabs", COORD + "2\t2\t2\n\t1\t1\t1\n2 \t2\t 2\n", True),
    ("no-final-newline", COORD + "2 2 2\n1 1 1\n2 2 2", True),
    ("upper-case-header", "%%MatrixMarket MATRIX COORDINATE REAL GENERAL\n1 1 1\n1 1 1\n", True),
    ("plus-signs", COORD + "2 2 2\n+1 +2 +1.5\n2 1 +2e+2\n", True),
    ("integer-field", "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 7\n2 2 -3\n", True),
    ("nnz-zero", COORD + "3 2 0\n", False),
    ("nnz-zero-with-entry", COORD + "3 2 0\n1 1 1\n", False),
    ("form-feed", COORD + "1 1 1\n1 1\f1\n", False),
    ("vertical-tab-line-end", COORD + "1 1 1\n1 1 1\v\n", False),
    ("separator-char", COORD + "1 1 1\n1 1\x1c1\n", False),
    ("nul", COORD + "1 1 1\n1 1 1\x00\n", False),
    ("non-ascii-comment", COORD + "% caf\xc3\xa9\n1 1 1\n1 1 1\n", False),
    ("non-ascii-entry", COORD + "1 1 1\n1 1 1\xa0\n", False),
    ("empty-file", "", False),
    ("bad-header", "%%MatrixMarket tensor coordinate real general\n1 1 1\n1 1 1\n", False),
    ("pattern-field", "%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n", False),
    ("symmetric", "%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 1\n", False),
    ("missing-size-line", COORD + "% only a comment\n", False),
    ("short-size-line", COORD + "2 2\n1 1 1\n", False),
    ("bad-size-line", COORD + "a b c\n", False),
    ("negative-rows", COORD + "-1 2 1\n1 1 1\n", False),
    ("array", ARRAY + "% c\n2 3\n1\n2\n0\n4\n5.5\n-6\n", True),
    ("array-single", ARRAY + "1 1\n3\n", True),
    ("array-too-few", ARRAY + "2 2\n1\n2\n3\n", False),
    ("array-too-many", ARRAY + "2 1\n1\n2\n3\n", False),
    ("array-two-per-line", ARRAY + "2 2\n1 2\n3 4\n", False),
    ("array-nan", ARRAY + "2 1\n1\nnan\n", False),
    ("array-bad-value", ARRAY + "2 1\n1\nx\n", False),
    ("array-negative-dims", ARRAY + "-1 -2\n1\n2\n", False),
    ("array-empty", ARRAY + "0 3\n", False),
]


def _outcome(fn, path):
    """Byte images of what ``fn(path)`` returns, or the exception's type,
    text and line."""
    try:
        out = fn(path)
    except Exception as exc:  # noqa: BLE001 -- every failure is compared
        return ("raised", type(exc), str(exc), getattr(exc, "line", None))
    if isinstance(out, SparseRowMatrix):
        return ("matrix", out.shape, out.row_offsets.tobytes(), out.col_indices.tobytes(), out.values.tobytes())
    if isinstance(out, WeightedRowSample):
        return ("sample", out.parent_rows, out.row_indices.tobytes(), out.weights.tobytes())
    if isinstance(out, ScoreVector):
        return ("scores", out.values.tobytes(), out.infinite.tobytes())
    if isinstance(out, Reweighting):
        return ("weights", out.weights.tobytes())
    return ("values", out.dtype, out.tobytes())


class TestReaderMatchesScanner:
    """The public reader must return exactly what the line scanner returns."""

    @pytest.mark.parametrize("text,fast", [c[1:] for c in MM_CORPUS], ids=[c[0] for c in MM_CORPUS])
    def test_matrix_market_corpus(self, tmp_path, text, fast):
        p = tmp_path / "c.mtx"
        p.write_bytes(text.encode("latin-1"))
        assert _outcome(read_matrix_market, p) == _outcome(matrix._scan_matrix_market, str(p))
        assert (matrix._read_matrix_market_fast(str(p)) is not None) == fast

    @pytest.mark.parametrize("digits", [17, 25])
    def test_values_round_trip_bit_exact(self, tmp_path, digits):
        rng = np.random.default_rng(digits)
        n = 20_000
        vals = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-1074, 1024, n))
        vals *= rng.choice([-1.0, 1.0], n)
        toks = [f"{v:.{digits}g}" for v in vals]
        p = tmp_path / "r.mtx"
        p.write_text(COORD + f"{n} 1 {n}\n" + "".join(f"{i + 1} 1 {t}\n" for i, t in enumerate(toks)))
        A = matrix._read_matrix_market_fast(str(p))
        assert A is not None
        expected = np.array([float(t) for t in toks])
        assert A.values.tobytes() == expected.tobytes()
        assert _outcome(read_matrix_market, p) == _outcome(matrix._scan_matrix_market, str(p))

    def test_no_rows_reads_without_warnings(self, tmp_path):
        mtx, tsv = tmp_path / "z.mtx", tmp_path / "z.tsv"
        mtx.write_text(COORD + "4 3 0\n")
        write_sample(tsv, WeightedRowSample(5, np.empty(0, dtype=np.int64), np.empty(0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_matrix_market(mtx).shape == (4, 3)
            assert len(read_sample(tsv)) == 0

    def test_loadtxt_warning_sends_file_to_scanner(self, tmp_path, monkeypatch):
        # numpy 1.x truncates a float in an integer field and only warns
        p = tmp_path / "w.mtx"
        p.write_text(COORD + "2 2 1\n1.5 1 1\n")

        def truncating(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated", DeprecationWarning)
            return np.array([(1, 1, 1.0)], dtype=matrix._COORDINATE_ENTRY)

        monkeypatch.setattr(np, "loadtxt", truncating)
        with pytest.raises(MatrixFormatError, match="bad index") as err:
            read_matrix_market(p)
        assert err.value.line == 3


SAMPLE = "# parent_rows=5\nrow_index\tweight\n"
VALUE = "row_index\tvalue\n"
SCORE = "row_index\tscore\n"
WEIGHT = "row_index\tweight\n"

# (id, file text, whether numpy's reader should take it)
TSV_CORPUS = [
    ("well-formed", "0\t1.5\n1\t2\n2\t0.25\n", True),
    ("blank-lines", "0\t1.5\n\n1\t2\n\n", True),
    ("whitespace-line", "0\t1.5\n  \n1\t2\n", False),
    ("spaces-around-fields", " 0 \t 1.5 \n1\t2\n", True),
    ("crlf", "0\t1.5\r\n1\t2\r\n", True),
    ("no-final-newline", "0\t1.5\n1\t2", True),
    ("plus-signs", "+0\t+1.5\n1\t2\n", True),
    ("nan", "0\tnan\n1\t2\n", True),
    ("inf", "0\tinf\n1\t2\n", True),
    ("bad-index", "x\t1.5\n", False),
    ("bad-value", "0\tx\n", False),
    ("skipped-index", "0\t1.5\n2\t2\n", True),
    ("extra-column", "0\t1.5\t7\n", False),
    ("space-separated", "0 1.5\n", False),
    ("hash-line", "0\t1.5\n# c\n1\t2\n", False),
    ("form-feed", "0\t1.5\f1\t2\n", False),
    ("non-ascii", "0\t1.5\n1\t2\xc3\n", False),
    ("empty-body", "", False),
    ("duplicate-index", "0\t1.5\n1\t2\n0\t3\n", True),
    ("index-out-of-range", "0\t1.5\n5\t2\n", True),
    ("zero-weight", "0\t1.5\n1\t0\n", True),
    ("fractions", "0\t0.5\n1\t1\n2\t0\n", True),
    ("underscore-value", "0\t0.5\n1\t1_5\n", False),
    ("underscore-index", "0\t0.5\n1_0\t1\n", False),
    ("Infinity", "0\t0.5\n1\tInfinity\n", True),
    ("INF", "0\t0.5\n1\tINF\n", True),
    ("inf-then-bad-value", "0\tinf\n1\tx\n", False),
]


class TestTsvReadersMatchScanner:
    """With the fast path switched off, the readers fall to their scanners;
    both ways must give the same arrays or the same error."""

    @staticmethod
    def _both(monkeypatch, fn, path):
        fast = _outcome(fn, path)
        with monkeypatch.context() as m:
            m.setattr(matrix, "_read_tsv_fast", lambda *args: None)
            return fast, _outcome(fn, path)

    @pytest.mark.parametrize("body,fast", [c[1:] for c in TSV_CORPUS], ids=[c[0] for c in TSV_CORPUS])
    def test_sample_corpus(self, tmp_path, monkeypatch, body, fast):
        p = tmp_path / "s.tsv"
        p.write_bytes((SAMPLE + body).encode("latin-1"))
        got, scanned = self._both(monkeypatch, read_sample, p)
        assert got == scanned
        assert (matrix._read_tsv_fast(str(p), 2) is not None) == fast

    @pytest.mark.parametrize("body,fast", [c[1:] for c in TSV_CORPUS], ids=[c[0] for c in TSV_CORPUS])
    def test_indexed_column_corpus(self, tmp_path, monkeypatch, body, fast):
        p = tmp_path / "v.tsv"
        p.write_bytes((VALUE + body).encode("latin-1"))
        got, scanned = self._both(monkeypatch, lambda q: read_indexed_column(q, "value"), p)
        assert got == scanned
        assert (matrix._read_tsv_fast(str(p), 1) is not None) == fast

    @pytest.mark.parametrize("body,fast", [c[1:] for c in TSV_CORPUS], ids=[c[0] for c in TSV_CORPUS])
    def test_scores_corpus(self, tmp_path, monkeypatch, body, fast):
        p = tmp_path / "scores.tsv"
        p.write_bytes((SCORE + body).encode("latin-1"))
        got, scanned = self._both(monkeypatch, read_scores, p)
        assert got == scanned
        assert (matrix._read_tsv_fast(str(p), 1) is not None) == fast

    @pytest.mark.parametrize("body,fast", [c[1:] for c in TSV_CORPUS], ids=[c[0] for c in TSV_CORPUS])
    def test_weights_corpus(self, tmp_path, monkeypatch, body, fast):
        p = tmp_path / "w.tsv"
        p.write_bytes((WEIGHT + body).encode("latin-1"))
        got, scanned = self._both(monkeypatch, read_weights, p)
        assert got == scanned
        assert (matrix._read_tsv_fast(str(p), 1) is not None) == fast

    def test_only_the_literal_inf_flags_a_score(self, tmp_path):
        p = tmp_path / "scores.tsv"
        p.write_text(SCORE + "0\t0.5\n1\tinf\n2\t0\n")
        s = read_scores(p)
        np.testing.assert_array_equal(s.values, [0.5, 0.0, 0.0])
        np.testing.assert_array_equal(s.infinite, [False, True, False])
        for tok in ("Infinity", "INF", "+inf", "-inf", "nan"):
            p.write_text(SCORE + f"0\t0.5\n1\t{tok}\n")
            with pytest.raises(MatrixFormatError, match=re.escape(f"not '{tok}'")) as err:
                read_scores(p)
            assert err.value.line == 3, tok

    def test_flagged_scores_are_not_scanned(self, tmp_path, monkeypatch):
        # numpy's arrays are kept; only the flagged lines' tokens are cut out
        p = tmp_path / "scores.tsv"
        flags = np.arange(9) % 4 == 1
        write_scores(p, ScoreVector(np.where(flags, 0.0, np.arange(9) / 8), flags))
        p.write_text(p.read_text().replace("\n3\t", "\n\n3\t"))  # a blank line to skip
        monkeypatch.setattr(matrix._IndexedTsv, "_scan", lambda self: pytest.fail("scanned"))
        s = read_scores(p)
        np.testing.assert_array_equal(s.infinite, flags)
        np.testing.assert_array_equal(s.values, np.where(flags, 0.0, np.arange(9) / 8))

    @pytest.mark.parametrize("body,message,line", [
        ("0\tinf\n\n1\t-inf\n", "not '-inf'", 4),
        ("0\tinf\n1\tInfinity\n", "not 'Infinity'", 3),
        ("0\tnan\n1\tinf\n", "not 'nan'", 2),
        ("0\tinf\n2\tinf\n", "expected consecutive", 3),
    ], ids=["minus-inf", "Infinity", "nan", "index"])
    def test_score_faults_beside_flags_match_scanner(self, tmp_path, monkeypatch, body, message, line):
        p = tmp_path / "scores.tsv"
        p.write_text(SCORE + body)
        got, scanned = self._both(monkeypatch, read_scores, p)
        assert got == scanned
        with pytest.raises(MatrixFormatError, match=message) as err:
            read_scores(p)
        assert err.value.line == line

    @pytest.mark.parametrize("read,head,body,message,line", [
        (read_sample, SAMPLE, "0\t1\n0\t1\nx\t1\n", "duplicate row index 0", 4),
        (read_sample, SAMPLE, "0\t0\n1\t1\t1\n", "weight must be positive and finite, not '0'", 3),
        (lambda q: read_indexed_column(q, "value"), VALUE, "0\t1\n\n2\t1\n3\tx\n",
         "expected consecutive 'row_index<TAB>value'", 4),
        (lambda q: read_indexed_column(q, "value"), VALUE, "0\tnan\n1\t1 1\n", "non-finite value 'nan'", 2),
        (read_weights, WEIGHT, "0\t1\n1\t1.25\n2\tx\n", r"weight must lie in \[0, 1\], not '1.25'", 3),
        (read_weights, WEIGHT, "0\t1\n1\t-inf\n2\n", "non-finite weight '-inf'", 3),
        (read_scores, SCORE, "0\t-1\n1\tx\n", "score must be 'inf' or a nonnegative real, not '-1'", 2),
        (read_scores, SCORE, "0\t1\n0\t1\n\xe9\n", "expected consecutive 'row_index<TAB>score'", 3),
    ], ids=["sample-duplicate", "sample-weight", "value-index", "value-nan", "weight-range",
            "weight-infinite", "score-negative", "score-index-then-non-ascii"])
    def test_rule_fault_before_syntax_fault_is_named(self, tmp_path, monkeypatch, read, head, body,
                                                      message, line):
        # the first fault in file order wins, whether it breaks a rule of
        # the format or the syntax of every TSV
        p = tmp_path / "f.tsv"
        p.write_bytes((head + body).encode("latin-1"))
        got, scanned = self._both(monkeypatch, read, p)
        assert got == scanned
        with pytest.raises(MatrixFormatError, match=message) as err:
            read(p)
        assert err.value.line == line

    def test_underscore_numerals_are_errors(self, tmp_path):
        # Python's int() and float() read 1_5 as 15; numpy's reader refuses it
        p = tmp_path / "f"
        corpus = {c[0]: c[1] for c in MM_CORPUS}
        for text, read, line in ((corpus["underscore"], read_matrix_market, 3),
                                 (corpus["underscore-index"], read_matrix_market, 3),
                                 (corpus["underscore-size-line"], read_matrix_market, 2),
                                 (ARRAY + "1 1\n1_5\n", read_matrix_market, 3),
                                 ("# parent_rows=1_0\nrow_index\tweight\n0\t1\n", read_sample, 1),
                                 (SAMPLE + "0\t1_5\n", read_sample, 3),
                                 (SAMPLE + "1_0\t1\n", read_sample, 3),
                                 (WEIGHT + "0\t0.5\n1\t0_5\n", read_weights, 3),
                                 (SCORE + "0\t1_5\n", read_scores, 2),
                                 (VALUE + "0\t1\n1\t1_5\n", lambda q: read_indexed_column(q, "value"), 3)):
            p.write_text(text)
            with pytest.raises(MatrixFormatError) as err:
                read(p)
            assert err.value.line == line, text

    def test_non_ascii_header_byte_is_named(self, tmp_path):
        p = tmp_path / "s.tsv"
        p.write_bytes(b"# parent_rows=5\nrow_index\tweight\xe9\n0\t1\n")
        with pytest.raises(MatrixFormatError, match="non-ASCII byte 0xe9") as err:
            read_sample(p)
        assert err.value.line == 2

    def test_errors_are_located(self, tmp_path):
        p = tmp_path / "v.tsv"
        for body, message, line in (("0\t1\n2\t1\n", "expected consecutive 'row_index<TAB>value'", 3),
                                    ("x\t1\n", "expected consecutive 'row_index<TAB>value'", 2),
                                    ("0\tx\n", "bad value 'x'", 2),
                                    ("0\t1\n1\t\xe9\n", "non-ASCII byte 0xe9", 3),
                                    ("0\tnan\n", "non-finite value 'nan'", 2),
                                    ("0\t1\n\n1\tinf\n", "non-finite value 'inf'", 4)):
            p.write_bytes((VALUE + body).encode("latin-1"))
            with pytest.raises(MatrixFormatError, match=message) as err:
                read_indexed_column(p, "value")
            assert err.value.line == line

    def test_sample_errors_are_located(self, tmp_path):
        # the first bad entry is named, whichever reader took the file
        p = tmp_path / "s.tsv"
        for body, message, line in (("0\t1\n2\t1\n0\t1\n", "duplicate row index 0", 5),
                                    ("0\t1\n\n5\t1\n", r"row index 5 outside 0\.\.4", 5),
                                    ("-1\t1\n", r"row index -1 outside 0\.\.4", 3),
                                    ("0\t1\n1\t0\n", "weight must be positive and finite, not '0'", 4),
                                    ("0\t-2\n", "weight must be positive and finite, not '-2'", 3),
                                    ("0\t1\n1\tnan\n", "weight must be positive and finite, not 'nan'", 4)):
            p.write_text(SAMPLE + body)
            with pytest.raises(MatrixFormatError, match=message) as err:
                read_sample(p)
            assert err.value.line == line
            assert str(err.value).startswith(f"{p}:{line}: ")


class TestMaterialize:
    def test_identity_sample_is_permuted_copy(self):
        A = gaussian_matrix(6, 3, 1)
        S = WeightedRowSample(6, np.array([4, 0, 2]), np.ones(3))
        out = materialize(A, S)
        np.testing.assert_array_equal(out.to_dense(), A.to_dense()[[4, 0, 2]])

    def test_single_row_scaling(self):
        A = SparseRowMatrix.from_dense(np.array([[1.0, 2.0], [5.0, 6.0], [0.0, 1.0]]))
        S = WeightedRowSample(3, np.array([0]), np.array([2.0]))
        np.testing.assert_array_equal(materialize(A, S).to_dense(), [[2.0, 4.0]])

    def test_gram_matches_weighted_accumulation_oracle(self, rng):
        A = gaussian_matrix(10, 3, 5)
        idx = np.array([0, 2, 3, 7, 9])
        w = rng.uniform(0.5, 2.0, size=5)
        S = WeightedRowSample(10, idx, w)
        got = materialize(A, S).to_dense()
        dense = A.to_dense()
        expected = np.zeros((5, 3))
        for k, i in enumerate(idx):
            expected[k] = w[k] * dense[i]
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_dimension_mismatch_rejected(self):
        A = gaussian_matrix(4, 2, 0)
        with pytest.raises(ValueError):
            materialize(A, WeightedRowSample(5, np.array([0]), np.ones(1)))

    def test_out_of_range_index_rejected(self):
        A = gaussian_matrix(4, 2, 0)
        with pytest.raises(ValueError):
            materialize(A, WeightedRowSample(4, np.array([4]), np.ones(1)))


class TestSampleValidate:
    """Strictly increasing indices skip the uniqueness sort and take their
    range from the two ends; any other order takes the full checks."""

    @pytest.mark.parametrize("idx", [[3, 0, 2], [4], [0, 1, 2, 4], []], ids=str)
    def test_unique_indices_accepted(self, idx):
        WeightedRowSample(5, np.array(idx, dtype=np.int64), np.ones(len(idx))).validate()

    @pytest.mark.parametrize("idx,message", [
        ([2, 0, 2], "unique"),
        ([0, 1, 1, 2], "unique"),
        ([3, 3], "unique"),
        ([-1, 0, 2], "out of parent range"),
        ([0, 2, 5], "out of parent range"),
        ([5, 0, 2], "out of parent range"),
        ([0, 4, -1], "out of parent range"),
    ], ids=str)
    def test_repeat_or_out_of_range_rejected(self, idx, message):
        S = WeightedRowSample(5, np.array(idx), np.ones(len(idx)))
        with pytest.raises(ValueError, match=message):
            S.validate()


class TestSampleIO:
    def test_round_trip_random_entries(self, tmp_path, rng):
        idx = np.sort(rng.choice(1000, size=100, replace=False))
        w = rng.uniform(0.1, 10.0, size=100)
        S = WeightedRowSample(1000, idx, w)
        p = tmp_path / "s.tsv"
        write_sample(p, S)
        back = read_sample(p)
        assert back.parent_rows == 1000
        np.testing.assert_array_equal(back.row_indices, idx)
        np.testing.assert_array_equal(back.weights, w)

    def test_empty_sample(self, tmp_path):
        S = WeightedRowSample(5, np.empty(0, dtype=np.int64), np.empty(0))
        p = tmp_path / "e.tsv"
        write_sample(p, S)
        assert p.read_text().splitlines()[1] == "row_index\tweight"
        assert len(read_sample(p)) == 0

    def test_one_third_survives_bit_exact(self, tmp_path):
        # 17 significant digits round-trip any binary64 value
        S = WeightedRowSample(3, np.array([1]), np.array([1.0 / 3.0]))
        p = tmp_path / "t.tsv"
        write_sample(p, S)
        assert read_sample(p).weights[0] == 1.0 / 3.0

    def test_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("# parent_rows=3\nrow_index\tweight\n0\tnot_a_number\n")
        with pytest.raises(MatrixFormatError) as err:
            read_sample(p)
        assert err.value.line == 3

    def test_negative_parent_rows_rejected_at_line_1(self, tmp_path):
        p = tmp_path / "neg.tsv"
        p.write_text("# parent_rows=-3\nrow_index\tweight\n")
        with pytest.raises(MatrixFormatError, match="parent_rows must be nonnegative") as err:
            read_sample(p)
        assert err.value.line == 1


class TestTsvWriter:
    """One writer serves samples, scores, weights and vectors; its bytes
    must equal a per-line ``{:.17g}`` loop over the numpy arrays."""

    EDGE = np.array([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                     1.0 / 3.0, 0.1, 1e16, 123456789.0, -2.5, np.inf, -np.inf, np.nan])

    @staticmethod
    def reference(header, indices, values, flags):
        out = header + "\n"
        for i, v, f in zip(indices, values, flags):
            tok = "inf" if f else f"{v:.17g}"
            out += f"{i}\t{tok}\n"
        return out

    @staticmethod
    def assert_same(got: bytes, want: str):
        # line lists, not one long string: pytest's diff of long strings is slow
        assert got.splitlines(keepends=True) == want.encode("ascii").splitlines(keepends=True)

    def cases(self, rng):
        yield self.EDGE, np.zeros(self.EDGE.size, dtype=bool)
        flags = np.zeros(self.EDGE.size, dtype=bool)
        flags[[0, 4, 12]] = True
        yield np.where(flags, 0.0, self.EDGE), flags
        # longer than the writer's block of rows
        rand = rng.standard_normal(9000) * 10.0 ** rng.integers(-300, 300, 9000)
        yield rand, rng.random(9000) < 0.1
        yield np.empty(0), np.zeros(0, dtype=bool)

    def test_indexed_column_matches_reference(self, tmp_path, rng):
        for values, flags in self.cases(rng):
            for indices in (None, np.sort(rng.choice(10 ** 12, values.size, replace=False))):
                shown = np.arange(values.size) if indices is None else indices
                want = self.reference("# h\nrow_index\tx", shown, values, flags)
                p = tmp_path / "x.tsv"
                matrix.write_indexed_column(p, "# h\nrow_index\tx", values, indices, flags)
                self.assert_same(p.read_bytes(), want)
                stream = io.StringIO()
                matrix.write_indexed_column(stream, "# h\nrow_index\tx", values, indices, flags)
                self.assert_same(stream.getvalue().encode("ascii"), want)

    def test_public_writers_match_reference(self, tmp_path, rng):
        for values, flags in self.cases(rng):
            n = values.size
            idx = np.sort(rng.choice(3 * n + 1, n, replace=False))
            p = tmp_path / "s.tsv"
            write_sample(p, WeightedRowSample(3 * n + 1, idx, values))
            self.assert_same(p.read_bytes(), self.reference(
                f"# parent_rows={3 * n + 1}\nrow_index\tweight", idx, values, np.zeros(n)))
            write_scores(p, ScoreVector(np.where(flags, 0.0, values), flags))
            self.assert_same(p.read_bytes(), self.reference(
                "row_index\tscore", range(n), np.where(flags, 0.0, values), flags))
            write_weights(p, Reweighting(values))
            self.assert_same(p.read_bytes(), self.reference(
                "row_index\tweight", range(n), values, np.zeros(n)))


def test_scale_rows_zero_weight_empties_row():
    A = gaussian_matrix(4, 3, 2)
    B = scale_rows(A, np.array([1.0, 0.0, 2.0, 1.0]))
    B.validate()
    dense = A.to_dense().copy()
    dense[1] = 0.0
    dense[2] *= 2.0
    np.testing.assert_allclose(B.to_dense(), dense)


def test_row_slicing_matches_dense():
    A = gaussian_matrix(8, 5, 11)
    dense = A.to_dense()
    for i in range(8):
        np.testing.assert_array_equal(A.row_dense(i), dense[i])
    with pytest.raises(IndexError):
        A.row(8)


class TestOneCsr:
    """Every matrix holds the CSR arrays scipy reads: to_scipy() copies nothing."""

    @staticmethod
    def assert_shared(A):
        csr = A.to_scipy()
        for mine, theirs in ((A.row_offsets, csr.indptr), (A.col_indices, csr.indices),
                             (A.values, csr.data)):
            assert np.shares_memory(mine, theirs)

    def test_every_constructor_shares_its_arrays(self, tmp_path):
        dense = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [3.0, -4.0, 0.0]])
        A = SparseRowMatrix.from_dense(dense)
        p = tmp_path / "a.mtx"
        write_matrix_market(p, A)
        built = {
            "from_coo": SparseRowMatrix.from_coo(3, 3, [2, 0, 2], [1, 2, 0], [-4.0, 2.0, 3.0]),
            "from_dense": A,
            "from_scipy": SparseRowMatrix.from_scipy(scipy.sparse.csr_matrix(dense)),
            "materialize": materialize(A, WeightedRowSample(3, np.array([2, 0]), np.array([0.5, 2.0]))),
            "scale_rows": scale_rows(A, np.array([0.0, 1.0, 2.0])),
            "read_matrix_market": read_matrix_market(p),
        }
        for name, B in built.items():
            assert B.row_offsets.dtype == B.col_indices.dtype == np.int32, name
            self.assert_shared(B)

    def test_int64_past_int32_columns_still_shared(self):
        # 2^31 columns do not fit int32; nothing n_cols long is allocated
        n_cols = 2 ** 31
        for A in (SparseRowMatrix.from_coo(3, n_cols, [1], [n_cols - 1], [2.5]),
                  SparseRowMatrix(3, n_cols, np.array([0, 0, 1, 1]), np.array([n_cols - 1]),
                                  np.array([2.5]))):
            A.validate()
            assert A.row_offsets.dtype == A.col_indices.dtype == np.int64
            self.assert_shared(A)
            cols, vals = A.row(1)
            assert cols.tolist() == [n_cols - 1] and vals.tolist() == [2.5]

    def test_index_beyond_int32_is_not_wrapped(self):
        # 2^32 + 1 would wrap to column 1 as int32; it stays int64 and validate rejects it
        A = SparseRowMatrix(2, 2, np.array([0, 1, 2]), np.array([0, 2 ** 32 + 1]), np.ones(2))
        assert A.col_indices.dtype == np.int64
        with pytest.raises(ValueError, match="column index out of range"):
            A.validate()

    @pytest.mark.parametrize("cancel", [False, True])
    def test_from_coo_matches_add_at_reference(self, rng, cancel):
        # 5 shuffled copies of every entry of a 40 x 12 pattern, so rows hold
        # up to 60 stored entries; with cancel, the copies of some entries sum
        # to zero and must be dropped.  Multiples of 2^-20 below 2^10 add up
        # exactly in any order, so the reference's order does not matter.
        n, d = 40, 12
        mask = rng.random((n, d)) < 0.6
        rows, cols = np.nonzero(mask)
        base = rng.integers(-2 ** 30, 2 ** 30, size=(5, rows.size)) * 2.0 ** -20
        if cancel:
            zero = rng.random(rows.size) < 0.3
            base[4, zero] = -base[:4, zero].sum(axis=0)
        r, c, v = np.tile(rows, 5), np.tile(cols, 5), base.ravel()
        order = rng.permutation(r.size)
        r, c, v = r[order], c[order], v[order]
        ref = np.zeros((n, d))
        np.add.at(ref, (r, c), v)
        A = SparseRowMatrix.from_coo(n, d, r, c, v)
        A.validate()
        assert A.nnz == np.count_nonzero(ref)
        assert not (cancel and A.nnz == rows.size)
        want_rows, want_cols = np.nonzero(ref)
        np.testing.assert_array_equal(A.row_offsets, np.searchsorted(want_rows, np.arange(n + 1)))
        np.testing.assert_array_equal(A.col_indices, want_cols)
        assert A.values.tobytes() == ref[want_rows, want_cols].tobytes()

    @pytest.mark.parametrize("n", [300, leverage._DENSE_MAX_ROWS + 3])
    def test_zero_weights_score_as_removed_rows(self, rng, n):
        # scale_rows keeps zero-weighted rows as stored zeros; scores and the
        # Gram factor match those of the matrix with the rows removed
        A = SparseRowMatrix.from_dense(rng.standard_normal((n, 6)) * (rng.random((n, 6)) < 0.5))
        w = rng.uniform(0.5, 1.0, n)
        w[rng.random(n) < 0.2] = 0.0
        B = scale_rows(A, w)
        assert B.nnz == A.nnz
        rebuilt = SparseRowMatrix.from_scipy(B.to_scipy())
        assert rebuilt.nnz < B.nnz
        fb, fr = factor_gram(B), factor_gram(rebuilt)
        assert fb.singular_values.tobytes() == fr.singular_values.tobytes()
        assert fb.right_singular_vectors.tobytes() == fr.right_singular_vectors.tobytes()
        assert (exact_leverage_scores(B).values.tobytes()
                == exact_leverage_scores(rebuilt).values.tobytes())


class TestCsrKernels:
    """The scipy kernels that matrix.py calls on CSR arrays give, byte for
    byte, what scipy's own objects give: row gathers, densified blocks and
    the products with A and A' that CGLS takes.

    Index arrays come int32, as every matrix that fits keeps them, and
    int64.  A SparseRowMatrix is int64 only past int32 shapes, so
    ``materialize`` runs on the 3 x 2^31 matrix of TestOneCsr; densifying
    or multiplying that one would take 2^31-long arrays, so the other
    kernels take the arrays of the small matrices cast to int64.
    """

    @staticmethod
    def matrices(rng):
        dense = rng.standard_normal((40, 7)) * (rng.random((40, 7)) < 0.4)
        dense[[3, 17]] = 0.0
        A = SparseRowMatrix.from_dense(dense)
        w = rng.uniform(-2.0, 2.0, 40)
        w[rng.random(40) < 0.3] = 0.0  # stored zeros, some of them -0.0
        return {"sparse": A, "zero-weights": scale_rows(A, w),
                "0-rows": SparseRowMatrix.from_dense(np.zeros((0, 5))),
                "0-cols": SparseRowMatrix.from_dense(np.zeros((4, 0)))}

    @staticmethod
    def assert_same_csr(got, want):
        assert got.shape == want.shape
        for mine, theirs in ((got.row_offsets, want.indptr), (got.col_indices, want.indices),
                             (got.values, want.data)):
            assert mine.tolist() == theirs.tolist()
        assert got.values.tobytes() == want.data.tobytes()

    @staticmethod
    def arrays(A, dtype):
        return A.row_offsets.astype(dtype), A.col_indices.astype(dtype), A.values

    def test_materialize_is_scipy_fancy_index_times_weights(self, rng):
        for name, A in self.matrices(rng).items():
            n = A.n_rows
            picks = [np.empty(0, dtype=np.int64), rng.permutation(n)[:n // 2],
                     np.sort(rng.permutation(n)[:n // 3]), np.arange(n)]
            for idx in picks:
                w = rng.uniform(0.1, 3.0, idx.size)
                got = materialize(A, WeightedRowSample(n, idx, w))
                sub = A.to_scipy()[idx]
                sub.data = sub.data * np.repeat(w, np.diff(sub.indptr))
                self.assert_same_csr(got, sub)
                assert got.row_offsets.dtype == np.int32, name

    def test_materialize_int64_index_matrix(self):
        n_cols = 2 ** 31
        A = SparseRowMatrix.from_coo(3, n_cols, [1, 2, 2], [n_cols - 1, 5, 7], [2.5, -1.0, 3.0])
        for idx, w in (([2, 1], [0.5, 4.0]), ([1], [3.0]), ([], [])):
            idx = np.array(idx, dtype=np.int64)
            got = materialize(A, WeightedRowSample(3, idx, np.array(w)))
            assert got.row_offsets.dtype == got.col_indices.dtype == np.int64
            sub = A.to_scipy()[idx]
            sub.data = sub.data * np.repeat(np.array(w), np.diff(sub.indptr))
            self.assert_same_csr(got, sub)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_block_densify_is_scipy_toarray(self, rng, dtype, order):
        for name, A in self.matrices(rng).items():
            ptr, idx, val = self.arrays(A, dtype)
            csr, n = A.to_scipy(), A.n_rows
            for lo, hi in ((0, n), (min(3, n), min(17, n)), (n // 2, n // 2), (n // 3, n)):
                got = matrix._csr_dense(ptr[lo:hi + 1], idx, val, A.n_cols, order)
                want = csr[lo:hi].toarray(order=order)
                assert got.shape == want.shape and got.tobytes(order="A") == want.tobytes(order="A")
                assert got.flags.f_contiguous if order == "F" else got.flags.c_contiguous, name
            rows = rng.permutation(n)[:n // 2]
            got = matrix._csr_dense(*matrix._csr_gather(ptr, idx, val, rows), A.n_cols, order)
            assert got.tobytes(order="A") == csr[rows].toarray(order=order).tobytes(order="A")

    def test_to_dense_is_scipy_toarray(self, rng):
        for A in self.matrices(rng).values():
            assert A.to_dense().tobytes() == A.to_scipy().toarray().tobytes()

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_products_are_scipy_matmul(self, rng, dtype):
        for name, A in self.matrices(rng).items():
            n, d = A.shape
            csr = A.to_scipy()
            # A as CGLS sees it, and a stand-in holding the index arrays in dtype
            ptr, idx, val = self.arrays(A, dtype)
            wide = types.SimpleNamespace(n_rows=n, n_cols=d, shape=(n, d), row_offsets=ptr,
                                         col_indices=idx, values=val)
            for x in (rng.standard_normal(d), rng.standard_normal((d, 1)),
                      rng.standard_normal((d, 3))):
                assert A.dot_dense(x).tobytes() == (csr @ x).tobytes(), name
                out = np.empty((n, *x.shape[1:]))
                assert matrix._csr_product(ptr, idx, val, x, out).tobytes() == (csr @ x).tobytes()
            r = rng.standard_normal(n)
            for B in (A, wide):
                got = matrix._transpose_dot(B, r)
                assert got.shape == (d,) and got.tobytes() == (csr.T @ r).tobytes(), name

    def test_products_check_shapes(self):
        A = gaussian_matrix(5, 3, 0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            A.dot_dense(np.ones(4))
        with pytest.raises(ValueError, match="dimension mismatch"):
            matrix._transpose_dot(A, np.ones(3))

    def test_no_scipy_matrix_per_call(self, monkeypatch):
        """A sketch, a spectral check and a preconditioned solve build no
        scipy compressed matrix, through their Gram factorizations (below
        and past 16384 rows) or otherwise; materialize, the scoring passes
        and the CGLS iterations build none either."""
        from scipy.sparse._compressed import _cs_matrix

        import rowsketch
        from rowsketch import (SketchConfig, pipelines, precondition_solve, repeated_halving,
                               spectral_check)

        A = gaussian_matrix(2048, 16, 7)
        tall = gaussian_matrix(leverage._DENSE_MAX_ROWS + 3, 4, 9)
        b = np.random.default_rng(8).standard_normal(2048)
        built, grams = [], []
        init = _cs_matrix.__init__

        def counted_init(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        def counted_gram(A):
            grams.append(A.shape)
            return factor_gram(A)

        monkeypatch.setattr(_cs_matrix, "__init__", counted_init)
        for mod in [m for n, m in vars(rowsketch).items() if n in (
                "leverage", "fastlev", "pipelines", "verify", "reweight")] + [rowsketch]:
            if getattr(mod, "factor_gram", None) is factor_gram:
                monkeypatch.setattr(mod, "factor_gram", counted_gram)
        A.to_scipy()
        assert built == ["csr_matrix"]  # the count sees scipy's constructor
        built.clear()

        S = WeightedRowSample(2048, np.arange(0, 2048, 3), np.full(683, 1.5))
        B = materialize(A, S)
        assert built == []
        sketch = repeated_halving(A, SketchConfig(seed=3))
        spectral_check(A, materialize(A, sketch.sample), sketch.check_lambda)
        precondition_solve(A, b, sketch)
        factor_gram(tall)
        assert built == [] and grams
        f = factor_gram(B)
        built.clear()
        pipelines.normal_equations_cg(A, b, preconditioner=f, max_iters=30)
        assert built == []


class TestReadByPath:
    """The fast readers hand numpy the file's path, which numpy opens by its
    name: a plain-text file named like a compressed one still reads as the
    text it is, through the scanner."""

    @pytest.mark.parametrize("suffix", ["", ".gz", ".bz2", ".xz", ".lzma"])
    def test_matrix_market_under_any_name(self, tmp_path, suffix):
        A = gaussian_matrix(30, 4, 3)
        plain = tmp_path / "a.mtx"
        write_matrix_market(plain, A)
        p = tmp_path / ("b.mtx" + suffix)
        p.write_bytes(plain.read_bytes())
        assert _outcome(read_matrix_market, p) == _outcome(matrix._scan_matrix_market, str(p))
        assert _outcome(read_matrix_market, p) == _outcome(read_matrix_market, plain)
        assert (matrix._read_matrix_market_fast(str(p)) is None) == bool(suffix)

    @pytest.mark.parametrize("suffix", ["", ".gz", ".xz"])
    def test_scores_under_any_name(self, tmp_path, suffix):
        s = ScoreVector(np.array([0.5, 0.0, 0.25]), np.array([False, True, False]))
        p = tmp_path / ("s.tsv" + suffix)
        write_scores(p, s)
        got = read_scores(p)
        assert got.values.tobytes() == s.values.tobytes()
        assert got.infinite.tolist() == s.infinite.tolist()


def test_matrix_market_writer_bytes(tmp_path, rng):
    """One ``%`` template per block of lines writes what a per-entry
    ``{:.17g}`` loop writes, across blocks and for every edge value."""
    n, d = 3000, 5
    dense = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 300, (n, d))
    dense[rng.random((n, d)) < 0.5] = 0.0
    dense[0, :3] = [5e-324, 1.7976931348623157e308, 1.0 / 3.0]
    assert np.count_nonzero(dense) > 4096  # more than one block of lines
    for A in (SparseRowMatrix.from_dense(dense), SparseRowMatrix.from_dense(np.zeros((2, 3)))):
        want = ["%%MatrixMarket matrix coordinate real general\n", f"{A.n_rows} {A.n_cols} {A.nnz}\n"]
        for i in range(A.n_rows):
            cols, vals = A.row(i)
            want += [f"{i + 1} {j + 1} {v:.17g}\n" for j, v in zip(cols.tolist(), vals.tolist())]
        p = tmp_path / "w.mtx"
        write_matrix_market(p, A)
        assert p.read_bytes().splitlines(keepends=True) == "".join(want).encode().splitlines(keepends=True)
