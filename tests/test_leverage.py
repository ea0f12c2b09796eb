"""Exact leverage machinery against dense pseudoinverse oracles, and the
blocked walk over A's rows that every full pass takes."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowsketch import (ScoreVector, SketchConfig, SparseRowMatrix,
                       approx_generalized_leverage, build_projector_sketch,
                       cross_leverage, exact_leverage_scores, factor_gram,
                       generalized_leverage_scores, kernel_probe, leverage,
                       materialize, min_norm_witness, read_scores,
                       repeated_halving, scale_rows, spectral_check,
                       write_scores)

from conftest import (conditioned_matrix, gaussian_matrix,
                      isolated_direction_matrix, oracle_cross,
                      oracle_generalized, oracle_leverage, oracle_min_norm,
                      power_law_matrix, stacked_identity)

# Past the dense-SVD limit, so factor_gram whitens A by a sample of every
# 5th row (or falls back to TSQR); its last block holds 3 rows, fewer than
# any column count used below.
TALL_ROWS = leverage._DENSE_MAX_ROWS + 3


def sparse_gaussian(n, d, seed, density=0.3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)) * (rng.random((n, d)) < density)


def assert_keeps_numpy_svd_bytes(dense):
    """factor_gram of the one-block ``dense`` against numpy's SVD of all its
    rows as the CSR densifies them (a -0.0 reads +0.0, which can move the
    bits of an SVD), cut at the same rank: sigma and V byte for byte."""
    A = SparseRowMatrix.from_dense(dense)
    f = factor_gram(A)
    _, s, vh = np.linalg.svd(A.to_dense(), full_matrices=False)
    r = int((s > leverage.RANK_RTOL * s.max(initial=0.0)).sum())
    assert f.rank == r
    assert f.singular_values.tobytes() == s[:r].tobytes()
    assert f.right_singular_vectors.tobytes() == np.ascontiguousarray(vh[:r].T).tobytes()


def assert_matches_dense_svd(dense, rank):
    """factor_gram of ``dense`` against numpy's SVD of all its rows: the
    rank, sigma to 1e-12 relative, and the row-space projector V V'."""
    f = factor_gram(SparseRowMatrix.from_dense(dense))
    _, s, vh = np.linalg.svd(dense, full_matrices=False)
    assert f.rank == rank
    np.testing.assert_allclose(f.singular_values, s[:rank], rtol=1e-12, atol=0)
    V = f.right_singular_vectors
    np.testing.assert_allclose(V @ V.T, vh[:rank].T @ vh[:rank], rtol=0, atol=1e-12)


def stride(n):
    """The step of factor_gram's row sample of a tall A."""
    return -(-n // leverage._BLOCK_ROWS)


def tall_sparse_like(n, d, seed, rare=2, planted=4):
    """Two nonzeros per row among the first d - rare columns, with Pareto
    row scales, as in the benchmark's tall-sparse matrix; each of the last
    ``rare`` columns is held by ``planted`` rows alone, all at odd indices,
    which the row sample (every 10th row at 40000 rows) never reaches."""
    rng = np.random.default_rng(seed)
    cols = np.argsort(rng.random((n, d - rare)), axis=1)[:, :2]
    vals = rng.standard_normal((n, 2)) * (rng.pareto(3.0, n) + 1.0)[:, None]
    rows = np.repeat(np.arange(n), 2)
    held = 2 * rng.choice(n // 2, rare * planted, replace=False) + 1
    keep = ~np.isin(rows, held)
    rows = np.concatenate([rows[keep], held])
    cols = np.concatenate([cols.ravel()[keep], d - rare + np.arange(rare * planted) % rare])
    vals = np.concatenate([vals.ravel()[keep], 3.0 * rng.standard_normal(rare * planted)])
    return SparseRowMatrix.from_coo(n, d, rows, cols, vals)


def badly_sampled(cond, n=TALL_ROWS, d=16):
    """A cond-``cond`` matrix whose sampled rows are replaced by small
    Gaussian rows: the sample then whitens a spectrum A does not have."""
    dense = conditioned_matrix(cond, n=n, d=d).to_dense()
    picked = dense[::stride(n)]
    picked[:] = 1e-3 * np.random.default_rng(3).standard_normal(picked.shape)
    return dense


def graded_kahan(n=TALL_ROWS, d=16):
    """Sampled rows are small multiples of the columns of a rotation Q,
    falling in size, so the sample's Vs is Q; the others repeat the rows of
    K Q', K the identity minus the strict upper triangle of ones.  The
    whitened Gram, scaled to unit diagonal, is then close to K'K scaled so:
    its Cholesky pivots stay above 0.09, far above d * eps / 1e-12 = 3.6e-3,
    but its smallest eigenvalue is about 1.5e-7."""
    Q = np.linalg.qr(np.random.default_rng(5).standard_normal((d, d)))[0]
    K = np.eye(d) - np.triu(np.ones((d, d)), 1)
    dense = (K @ Q.T)[np.arange(n) % d]
    picked = dense[::stride(n)]
    picked[:] = ((1e-3 * 10.0 ** (-np.arange(d) / 4))[:, None] * Q.T)[np.arange(len(picked)) % d]
    return dense


def relative_sigma_error(f, dense):
    s = np.linalg.svd(dense, compute_uv=False)[:f.rank]
    return float(np.max(np.abs(f.singular_values - s) / s))


TSQR = leverage._tsqr


@pytest.fixture
def each_path(monkeypatch):
    """Runs a check twice: as factor_gram takes a tall A, then with the
    sample-whitened pass refused, so that TSQR factors every tall A."""
    def run(check):
        check()
        with monkeypatch.context() as m:
            m.setattr(leverage, "_sample_whitened", lambda csr: None)
            check()
    return run


def tsqr_factor(A):
    """factor_gram's TSQR path, whatever the sample-whitened pass would do."""
    _, s, vh = np.linalg.svd(TSQR(A.to_scipy()), full_matrices=False)
    r = int((s > leverage.RANK_RTOL * s.max(initial=0.0)).sum())
    return leverage.PseudoinverseFactor(np.ascontiguousarray(vh[:r].T), s[:r])


# the property test's inputs: n = blocks * 4096 + offset rows
TALL_CASES = dict(
    blocks=st.integers(3, 6), offset=st.integers(-3, 3), d=st.integers(1, 8),
    seed=st.integers(0, 2 ** 32 - 1), density=st.sampled_from([0.2, 1.0]),
    zero_rows=st.sampled_from([0.0, 0.5, 0.95]), distinct=st.sampled_from([0, 1, 3, 7]),
    isolated=st.integers(0, 3), exponent=st.integers(-150, 150),
    spread=st.sampled_from([0, 3, 150]))


@pytest.fixture
def tsqr_calls(monkeypatch):
    """Counts factor_gram's fallbacks to TSQR."""
    calls = []

    def counted(csr):
        calls.append(csr.shape)
        return TSQR(csr)

    monkeypatch.setattr(leverage, "_tsqr", counted)
    return calls


class TestRFactor:
    """leverage._r_factor against np.linalg.qr(mode="r"), byte for byte."""

    @staticmethod
    def assert_numpy_bytes(M):
        want = np.linalg.qr(M, mode="r")
        for order in "CF":
            got = leverage._r_factor(np.array(M, order=order))  # may overwrite its input
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 8, 32, 33, 64, 129])
    @pytest.mark.parametrize("rows", ["0", "1", "d-1", "d", "d+1", "2d", "5d+3", "4096"])
    @pytest.mark.parametrize("kind", ["gaussian", "zero-columns", "scaled"])
    def test_keeps_numpy_bytes(self, d, rows, kind):
        m = {"0": 0, "1": 1, "d-1": d - 1, "d": d, "d+1": d + 1, "2d": 2 * d,
             "5d+3": 5 * d + 3, "4096": 4096}[rows]
        rng = np.random.default_rng(1000 * d + m)
        M = rng.standard_normal((m, d))
        if kind == "zero-columns":
            M[:, ::3] = 0.0
        elif kind == "scaled":  # rows at 1e-150 and 1e150
            M *= 10.0 ** rng.choice([-150.0, 150.0], size=(m, 1))
        self.assert_numpy_bytes(M)

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0), (3, 7), (1, 40), (100, 200)])
    def test_empty_and_wide_shapes(self, shape):
        self.assert_numpy_bytes(np.random.default_rng(7).standard_normal(shape))

    def test_non_finite_entries_propagate_as_numpy_does(self):
        M = np.random.default_rng(3).standard_normal((50, 6))
        M[4, 2], M[9, 5] = np.nan, np.inf
        self.assert_numpy_bytes(M)

    def test_numpy_factors_where_lapack_rounds_otherwise(self, monkeypatch):
        # a scipy LAPACK that misses numpy's bits on the fixed matrices is
        # never used, and R keeps numpy's bits
        lapack_r = leverage._dgeqrf_r
        monkeypatch.setattr(leverage, "_dgeqrf_r", lambda M: np.nextafter(lapack_r(M), np.inf))
        assert not leverage._dgeqrf_keeps_numpy_bits()
        monkeypatch.setattr(leverage, "_DGEQRF_KEEPS_NUMPY_BITS", False)
        self.assert_numpy_bytes(np.random.default_rng(9).standard_normal((200, 16)))

    def test_tall_unblocked_limit(self):
        # the widest input LAPACK factors unblocked, tall enough that the
        # Householder updates are threaded at default BLAS threads
        d = leverage._QR_UNBLOCKED_MAX
        self.assert_numpy_bytes(np.random.default_rng(5).standard_normal((8 * d, d)))


class TestFactorGram:
    def test_identity(self):
        f = factor_gram(SparseRowMatrix.from_dense(np.eye(4)))
        assert f.rank == 4
        np.testing.assert_allclose(f.singular_values, np.ones(4))

    def test_duplicate_rows_rank_one(self):
        f = factor_gram(SparseRowMatrix.from_dense(np.array([[1.0, 0.0], [1.0, 0.0]])))
        assert f.rank == 1

    def test_projector_identity_on_rows(self):
        A = gaussian_matrix(30, 5, 4)
        f = factor_gram(A)
        dense = A.to_dense()
        G = dense.T @ dense
        for i in range(30):
            # (A'A)(A'A)^+ a_i == a_i since rows live in the row space
            np.testing.assert_allclose(G @ f.pinv_apply(dense[i]), dense[i],
                                       rtol=0, atol=1e-8 * np.linalg.norm(dense[i]))

    def test_orthonormal_columns_within_tolerance(self):
        A = power_law_matrix(40, 6, 2)
        V = factor_gram(A).right_singular_vectors
        np.testing.assert_allclose(V.T @ V, np.eye(V.shape[1]), atol=1e-10)

    def test_rank_zero_matrix_allowed(self):
        for n in (3, TALL_ROWS):
            A = SparseRowMatrix.from_coo(n, 2, [], [], [])
            assert factor_gram(A).rank == 0

    def test_dense_limit_keeps_numpy_svd_bytes(self):
        dense = sparse_gaussian(leverage._DENSE_MAX_ROWS, 6, 11)
        f = factor_gram(SparseRowMatrix.from_dense(dense))
        _, s, vh = np.linalg.svd(dense, full_matrices=False)
        assert f.rank == 6
        assert f.singular_values.tobytes() == s.tobytes()
        assert f.right_singular_vectors.tobytes() == np.ascontiguousarray(vh.T).tobytes()

    @pytest.mark.parametrize("m, d", [(8192, 16), (12000, 32), (16384, 8)])
    def test_fortran_densified_block_keeps_numpy_svd_bytes(self, m, d):
        # a one-block A that stores few of its entries is densified in
        # Fortran order
        dense = sparse_gaussian(m, d, m + d, density=0.1)
        assert np.count_nonzero(dense) <= leverage._FORTRAN_MAX_DENSITY * m * d
        assert_keeps_numpy_svd_bytes(dense)

    @pytest.mark.parametrize("d", [1, 3, 8, 16, 32])
    @pytest.mark.parametrize("rows", ["d+1", "2d-1", "2d", "2d+1", "3d", "4096"])
    def test_qr_switch_keeps_numpy_svd_bytes(self, d, rows):
        # from 2d rows on, sigma and V come from the SVD of A's R factor;
        # they must keep the bits of numpy's SVD of all of A's rows.  Up to
        # about 11d/6 rows numpy's SVD takes no R factor of its own, so
        # there (d + 1) the factor of A's R would move bits
        m = {"d+1": d + 1, "2d-1": 2 * d - 1, "2d": 2 * d, "2d+1": 2 * d + 1, "3d": 3 * d, "4096": 4096}[rows]
        assert_keeps_numpy_svd_bytes(sparse_gaussian(m, d, 100 * d + m, density=0.7))

    @pytest.mark.parametrize("m", [31, 32, 33, 4096])
    def test_qr_switch_keeps_numpy_svd_bytes_at_rank_deficiency(self, m):
        # rank 9 of 16 columns, one of them zero; the rank cut drops the rest
        rng = np.random.default_rng(m)
        dense = rng.standard_normal((m, 9)) @ rng.standard_normal((9, 16))
        dense[:, 5] = 0.0
        assert factor_gram(SparseRowMatrix.from_dense(dense)).rank == 9
        assert_keeps_numpy_svd_bytes(dense)

    # The test_tsqr_* checks run on both paths for a tall A (each_path).

    def test_tsqr_matches_dense_svd(self, each_path):
        d = 8
        assert TALL_ROWS % leverage._BLOCK_ROWS < d
        dense = sparse_gaussian(TALL_ROWS, d, 12)

        def check():
            for scale in (1.0, 1e150, 1e-150):
                assert_matches_dense_svd(dense * scale, d)
        each_path(check)

    def test_tsqr_exact_rank_with_zero_column_and_duplicate_rows(self, each_path):
        dense = sparse_gaussian(TALL_ROWS, 8, 13)
        dense[:, 3] = 0.0
        distinct = np.random.default_rng(14).standard_normal((5, 8))

        def check():
            assert_matches_dense_svd(dense, 7)
            assert_matches_dense_svd(distinct[np.arange(TALL_ROWS) % 5], 5)
        each_path(check)

    def test_tsqr_zero_rows_and_blocks(self, each_path):
        dense = sparse_gaussian(TALL_ROWS, 6, 15)
        dense[::2] = 0.0
        dense[leverage._BLOCK_ROWS:3 * leverage._BLOCK_ROWS] = 0.0  # two whole blocks
        each_path(lambda: assert_matches_dense_svd(dense, 6))

    def test_tsqr_self_certifies_at_lambda_one(self, each_path):
        # cond 1e6: a squared Gram would lose the small singular values
        A = conditioned_matrix(1e6, n=TALL_ROWS)

        def check():
            rep = spectral_check(A, A, 1.0)
            assert rep.passes, rep
            assert rep.lambda_low == pytest.approx(1.0, abs=1e-6)
            assert rep.lambda_high == pytest.approx(1.0, abs=1e-6)
        each_path(check)

    def test_sample_whitened_matches_dense_svd(self, tsqr_calls):
        # every case takes the one-pass factor, none falls back to TSQR
        for n in (leverage._DENSE_MAX_ROWS + 1, TALL_ROWS):
            assert stride(n) == 5
            # rows the sample misses carry the last direction alone
            isolated = sparse_gaussian(n, 8, 20)
            isolated[:, -1] = 0.0
            isolated[1::stride(n)] = np.eye(8)[-1]
            # a zero column and two duplicate columns: rank 6
            deficient = sparse_gaussian(n, 8, 21)
            deficient[:, 3] = 0.0
            deficient[:, 5] = deficient[:, 1]
            for scale in (1.0, 1e150, 1e-150):
                assert_matches_dense_svd(scale * isolated, 8)
                assert_matches_dense_svd(scale * deficient, 6)
        # stacked identities whose period divides the stride: every sampled
        # row is e_0, so the other directions lie outside the sample
        n = 5 * 3277
        assert stride(n) == 5
        assert_matches_dense_svd(np.tile(np.eye(5), (3277, 1)), 5)
        # the same sample, the other rows cycling through e_1 .. e_7
        i = np.arange(n)
        assert_matches_dense_svd(np.eye(8)[np.where(i % 5 == 0, 0, 1 + (i // 5 + i % 5) % 7)], 8)
        assert tsqr_calls == []

    def test_sample_whitened_near_tsqr_at_cond_1e8(self):
        # sigma error against numpy at most 10x TSQR's own
        for dense in (conditioned_matrix(1e8, n=TALL_ROWS).to_dense(), badly_sampled(1e8)):
            A = SparseRowMatrix.from_dense(dense)
            f, t = factor_gram(A), tsqr_factor(A)
            assert f.rank == t.rank == 16
            assert relative_sigma_error(f, dense) <= 10 * relative_sigma_error(t, dense)

    def test_matches_tsqr_at_cond_1e12(self):
        for dense in (conditioned_matrix(1e12, n=TALL_ROWS).to_dense(), badly_sampled(1e12)):
            A = SparseRowMatrix.from_dense(dense)
            f, t = factor_gram(A), tsqr_factor(A)
            assert f.rank == t.rank == 13
            np.testing.assert_allclose(f.singular_values, t.singular_values,
                                       rtol=0, atol=1e-12 * t.singular_values[0])

    def test_fallback_count(self, tsqr_calls):
        for scale in (1.0, 1e160, 1e-160):
            A = tall_sparse_like(40000, 32, 24)
            A = SparseRowMatrix(A.n_rows, A.n_cols, A.row_offsets, A.col_indices, scale * A.values)
            assert stride(A.n_rows) == 10
            f = factor_gram(A)
            assert f.rank == 32 and tsqr_calls == []
            t = tsqr_factor(A)
            np.testing.assert_allclose(f.singular_values, t.singular_values, rtol=1e-12, atol=0)
        # a sample that whitens the wrong spectrum, an all-zero sample, and
        # a sample of 1e-150 rows among rows of 1e150, where G overflows
        assert factor_gram(SparseRowMatrix.from_dense(badly_sampled(1e12))).rank == 13
        assert len(tsqr_calls) == 1
        skipped = sparse_gaussian(TALL_ROWS, 6, 25)
        skipped[::stride(TALL_ROWS)] = 0.0
        assert_matches_dense_svd(skipped, 6)
        assert len(tsqr_calls) == 2
        tiny_sample = 1e150 * sparse_gaussian(TALL_ROWS, 6, 26)
        tiny_sample[::stride(TALL_ROWS)] *= 1e-300
        assert_matches_dense_svd(tiny_sample, 6)
        assert len(tsqr_calls) == 3
        # every Cholesky pivot of the whitened Gram is large, but its
        # smallest eigenvalue is not: the one-pass sigma_min would be off by
        # about 5e-10 relative
        assert_matches_dense_svd(graded_kahan(), 16)
        assert len(tsqr_calls) == 4

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(**TALL_CASES)
    def test_matches_dense_svd_property(self, blocks, offset, d, seed, density, zero_rows,
                                        distinct, isolated, exponent, spread):
        """Row counts on both sides of 16384 and of multiples of 4096; zero,
        duplicate and isolated rows; magnitudes 1e-150 to 1e150, across
        matrices and, with ``spread``, across the rows of one matrix."""
        n = blocks * leverage._BLOCK_ROWS + offset
        rng = np.random.default_rng(seed)
        dense = sparse_gaussian(n, d, seed, density)
        if distinct:  # duplicate rows: n copies of a few distinct ones
            dense = dense[rng.integers(0, distinct, n)]
        dense[rng.random(n) < zero_rows] = 0.0
        for col in range(min(isolated, d)):  # a column held by one row alone
            dense[:, col] = 0.0
            row = rng.integers(0, n)
            dense[row] = 0.0
            dense[row, col] = rng.standard_normal()
        dense *= 10.0 ** rng.uniform(-spread, spread, n)[:, None]
        dense = np.clip(dense * 10.0 ** exponent, -1e150, 1e150)
        f = factor_gram(SparseRowMatrix.from_dense(dense))
        _, s, vh = np.linalg.svd(dense, full_matrices=False)
        top = s.max(initial=0.0)
        cut = leverage.RANK_RTOL * top
        rank = int((s > cut).sum())
        # a sigma within 1e-3 of the cut is placed by rounding: 1e-13 of
        # sigma_max moves it across, so the rank is not pinned there
        if not np.any(np.abs(s - cut) <= 1e-3 * cut):
            assert f.rank == rank
        r = min(f.rank, rank)
        np.testing.assert_allclose(f.singular_values[:r], s[:r], rtol=1e-12, atol=1e-12 * top)
        V = f.right_singular_vectors
        np.testing.assert_allclose(V.T @ V, np.eye(f.rank), rtol=0, atol=1e-12)
        if top > 0:  # A leaves V's span by no more than its cut singular values
            unit = dense / top
            resid = np.linalg.norm(unit - (unit @ V) @ V.T, 2)
            assert resid <= s[f.rank:].max(initial=0.0) / top + 1e-12

class TestExactScores:
    def test_identity_all_ones(self):
        s = exact_leverage_scores(SparseRowMatrix.from_dense(np.eye(5)))
        np.testing.assert_allclose(s.values, np.ones(5))

    def test_stacked_identities_give_d_over_n(self):
        k, d = 7, 4
        s = exact_leverage_scores(stacked_identity(k, d))
        np.testing.assert_allclose(s.values, np.full(k * d, d / (k * d)), atol=1e-12)

    def test_matches_dense_projector_diagonal_oracle(self):
        A = gaussian_matrix(50, 8, 123)
        s = exact_leverage_scores(A)
        np.testing.assert_allclose(s.values, oracle_leverage(A), atol=1e-8)

    def test_sum_equals_rank(self):
        for A in (gaussian_matrix(60, 7, 1), power_law_matrix(60, 7, 2)):
            s = exact_leverage_scores(A)
            assert abs(s.values.sum() - factor_gram(A).rank) < 1e-6

    def test_invariance_under_row_permutation_and_rotation(self, rng):
        A = gaussian_matrix(25, 5, 9)
        base = exact_leverage_scores(A).values
        perm = rng.permutation(25)
        permuted = SparseRowMatrix.from_dense(A.to_dense()[perm])
        np.testing.assert_allclose(exact_leverage_scores(permuted).values, base[perm], atol=1e-8)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        rotated = SparseRowMatrix.from_dense(A.to_dense() @ q)
        np.testing.assert_allclose(exact_leverage_scores(rotated).values, base, atol=1e-8)

    def test_range_bounds(self):
        s = exact_leverage_scores(power_law_matrix(100, 6, 5, decay=1.2))
        assert np.all(s.values >= 0) and np.all(s.values <= 1)


class TestCrossLeverage:
    def test_identity_off_diagonal_zero(self):
        A = SparseRowMatrix.from_dense(np.eye(4))
        assert cross_leverage(A, 0, 2) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_equals_score(self):
        A = gaussian_matrix(12, 4, 3)
        s = exact_leverage_scores(A)
        for i in (0, 5, 11):
            assert cross_leverage(A, i, i) == pytest.approx(s.values[i], abs=1e-10)

    def test_symmetric_and_matches_oracle(self):
        A = gaussian_matrix(10, 3, 8)
        for i, j in ((0, 1), (2, 9), (4, 4)):
            got = cross_leverage(A, i, j)
            assert got == pytest.approx(cross_leverage(A, j, i), abs=1e-12)
            assert got == pytest.approx(oracle_cross(A, i, j), abs=1e-10)

    def test_cauchy_schwarz_over_all_pairs(self):
        A = gaussian_matrix(20, 4, 21)
        tau = exact_leverage_scores(A).values
        for i in range(20):
            for j in range(20):
                assert abs(cross_leverage(A, i, j)) <= np.sqrt(tau[i] * tau[j]) + 1e-10

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            cross_leverage(gaussian_matrix(3, 2, 0), 0, 3)


class TestMinNormWitness:
    def test_identity_gives_indicator(self):
        A = SparseRowMatrix.from_dense(np.eye(4))
        np.testing.assert_allclose(min_norm_witness(A, 2), np.eye(4)[2], atol=1e-12)

    def test_two_identical_unit_rows(self):
        A = SparseRowMatrix.from_dense(np.array([[1.0, 0.0], [1.0, 0.0]]))
        x = min_norm_witness(A, 0)
        np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-12)
        assert np.dot(x, x) == pytest.approx(0.5, abs=1e-12)

    def test_all_three_characterizations_simultaneously(self):
        A = gaussian_matrix(15, 3, 6)
        dense = A.to_dense()
        tau = exact_leverage_scores(A).values
        for i in range(15):
            x = min_norm_witness(A, i)
            np.testing.assert_allclose(dense.T @ x, dense[i], atol=1e-8)
            assert np.dot(x, x) == pytest.approx(tau[i], abs=1e-8)
            for j in (0, 7, 14):
                assert x[j] == pytest.approx(cross_leverage(A, i, j), abs=1e-8)

    def test_matches_lstsq_oracle(self):
        A = power_law_matrix(15, 3, 13)
        for i in (0, 4, 14):
            np.testing.assert_allclose(min_norm_witness(A, i), oracle_min_norm(A, i), atol=1e-8)

    def test_zero_row_gives_zero_witness(self):
        dense = np.vstack([np.zeros(3), np.eye(3)])
        A = SparseRowMatrix.from_dense(dense)
        np.testing.assert_array_equal(min_norm_witness(A, 0), np.zeros(4))


class TestGeneralizedScores:
    def test_self_reference_equals_exact(self):
        A = gaussian_matrix(30, 5, 7)
        g = generalized_leverage_scores(A, A)
        assert not g.has_infinite
        np.testing.assert_allclose(g.values, exact_leverage_scores(A).values, atol=1e-10)

    def test_kernel_component_flagged(self):
        A = SparseRowMatrix.from_dense(np.array([[1.0, 0.0]]))
        B = SparseRowMatrix.from_dense(np.array([[0.0, 1.0]]))
        g = generalized_leverage_scores(A, B)
        assert g.infinite[0]

    def test_zero_row_never_flagged(self):
        # generalized and sketched scores, on one block and past 16384 rows:
        # zero rows score 0 and are never flagged, the rest lean into ker(B)
        B = SparseRowMatrix.from_dense(np.array([[0.0, 1.0]]))
        for n in (2, TALL_ROWS):
            dense = np.zeros((n, 2))
            dense[1::2, 0] = 1.0
            A = SparseRowMatrix.from_dense(dense)
            for g in (generalized_leverage_scores(A, B),
                      approx_generalized_leverage(A, B, 1.0, SketchConfig(seed=2))):
                np.testing.assert_array_equal(g.infinite, dense[:, 0] != 0.0)
                assert np.all(g.values == 0.0)

    def test_spectral_sandwich_for_verified_approximation(self, rng):
        A = gaussian_matrix(60, 6, 17)
        lam = 2.0
        w = np.sqrt(rng.uniform(1.0 / lam, 1.0, size=60))
        B = scale_rows(A, w)
        assert spectral_check(A, B, lam).passes
        tau = exact_leverage_scores(A).values
        g = generalized_leverage_scores(A, B)
        assert not g.has_infinite
        assert np.all(g.values >= tau - 1e-8)
        assert np.all(g.values <= lam * tau + 1e-8)

    def test_matches_dense_oracle_with_rank_deficient_reference(self, rng):
        basis = rng.standard_normal((6, 3))
        B = SparseRowMatrix.from_dense(rng.standard_normal((12, 3)) @ basis.T)
        zero_b = SparseRowMatrix.from_coo(4, 6, [], [], [])
        # past the one-block limit: rows in B's row space, every third one
        # pushed off it and every fifth one zero, so flagged and zero rows
        # fall in every block
        mixed = rng.standard_normal((TALL_ROWS, 3)) @ basis.T
        mixed[::3] += rng.standard_normal((mixed[::3].shape[0], 6))
        mixed[::5] = 0.0
        for A in (gaussian_matrix(25, 6, 31), SparseRowMatrix.from_dense(mixed)):
            for ref in (B, zero_b):
                got = generalized_leverage_scores(A, ref)
                vals, inf = oracle_generalized(A, ref)
                np.testing.assert_array_equal(got.infinite, inf)
                np.testing.assert_allclose(got.values[~inf], vals[~inf], atol=1e-8)
                assert 0 < inf.sum() < TALL_ROWS
        assert np.all(got.values == 0.0)  # a rank-0 reference scores nothing

    def test_column_mismatch_rejected(self):
        with pytest.raises(ValueError):
            generalized_leverage_scores(gaussian_matrix(4, 2, 0), gaussian_matrix(4, 3, 0))


class TestScale:
    """Scaling A and B together by c leaves every score and flag in place,
    also where ||a_i||^2 over- or underflows (|c| past about 1e+-154) and
    where the squared limit KERNEL_TOL^2 ||a_i||^2 is subnormal (2e-154)."""

    @pytest.mark.parametrize("n", [3000, 20000])
    @pytest.mark.parametrize("c", [1e150, 1e-150, 1e200, 1e-200, 2e-154])
    def test_scores_and_flags_do_not_move(self, c, n):
        rng = np.random.default_rng(23)
        basis = rng.standard_normal((6, 3))
        B = rng.standard_normal((40, 3)) @ basis.T
        A = rng.standard_normal((n, 3)) @ basis.T
        A[::3] += rng.standard_normal((A[::3].shape[0], 6))  # kernel rows
        # rows 1, 8, 15, ... lean into ker(B) by 2e-9 to 2e-7 of their norm,
        # on both sides of KERNEL_TOL
        kernel = np.linalg.qr(basis, mode="complete")[0][:, 3]
        near = A[1::7]
        near += np.outer(np.geomspace(2e-9, 2e-7, len(near)) * np.linalg.norm(near, axis=1), kernel)
        A[::5] = 0.0
        cfg = SketchConfig(seed=6)
        for score in (generalized_leverage_scores,
                      lambda A, B: approx_generalized_leverage(A, B, 0.5, cfg)):
            ref = score(SparseRowMatrix.from_dense(A), SparseRowMatrix.from_dense(B))
            got = score(SparseRowMatrix.from_dense(c * A), SparseRowMatrix.from_dense(c * B))
            assert 0 < ref.infinite.sum() < n
            np.testing.assert_array_equal(got.infinite, ref.infinite)
            np.testing.assert_allclose(got.values, ref.values, rtol=1e-12, atol=0)

    def test_halving_certifies_a_huge_isolated_matrix(self):
        A = SparseRowMatrix.from_dense(1e160 * isolated_direction_matrix(2048, 8, 0).to_dense())
        for seed in range(5):
            r = repeated_halving(A, SketchConfig(seed=seed))
            assert spectral_check(A, materialize(A, r.sample), r.check_lambda).passes, seed


class TestRowBlocks:
    def test_blocks_cover_rows_in_order(self):
        for n, sizes in ((leverage._DENSE_MAX_ROWS, [leverage._DENSE_MAX_ROWS]),
                         (TALL_ROWS, [4096, 4096, 4096, 4096, 3]), (0, [0])):
            slices = leverage._block_slices(n)
            assert [rows.stop - rows.start for rows in slices] == sizes
            assert slices[0].start == 0 and slices[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
            assert all(rows.step is None for rows in slices)

    def test_passes_hold_one_block_not_all_rows(self):
        # every full pass over 40000 x 64 rows peaks well below one n x d
        # dense array (20 MB); a whole-matrix product would need at least
        # one, and a whole-matrix copy of a dense-stored A (30 MB) more
        n, d = 40000, 64
        dense_b = sparse_gaussian(2000, d, 18, density=0.05)
        dense_b[:, -8:] = 0.0
        B = SparseRowMatrix.from_dense(dense_b)
        for density in (0.05, 1.0):
            A = SparseRowMatrix.from_dense(sparse_gaussian(n, d, 17, density=density))
            passes = {
                "exact": lambda: exact_leverage_scores(A),
                "generalized": lambda: generalized_leverage_scores(A, B),
                "sketched": lambda: approx_generalized_leverage(A, B, 1.0, SketchConfig(seed=1)),
                "spectral": lambda: spectral_check(A, A, 1.0),
            }
            for name, run in passes.items():
                tracemalloc.start()
                try:
                    run()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < n * d * 8 / 2, (density, name, peak)

    def test_blocked_sketch_matches_whole_matrix_formula(self, rng):
        # byte for byte: one n x min(k, d) product for the sketched norms and
        # one n x t product for the probe dots, over all rows at once; a row
        # is flagged when its probe dots, each over ||g_t||, have 2-norm
        # above KERNEL_TOL * ||a_i||
        d, theta, salt = 8, 0.5, ("blocks",)
        basis = rng.standard_normal((d, 5))
        B = SparseRowMatrix.from_dense(rng.standard_normal((30, 5)) @ basis.T)
        mixed = rng.standard_normal((TALL_ROWS, 5)) @ basis.T
        mixed[::7] += rng.standard_normal((mixed[::7].shape[0], d))
        A = SparseRowMatrix.from_dense(mixed)
        cfg = SketchConfig(seed=4)
        est = approx_generalized_leverage(A, B, theta, cfg, salt=salt)
        f = factor_gram(B)
        R = np.linalg.qr(build_projector_sketch(f, theta, cfg, salt=salt), mode="r")
        probes, source_norms = kernel_probe(f, cfg.kernel_probes, cfg, salt=salt)
        sketched = A.dot_dense(R.T)
        vals = d ** theta * np.einsum("ij,ij->i", sketched, sketched)
        dots = np.linalg.norm(A.dot_dense(probes.T / source_norms), axis=1)
        infinite = dots > leverage.KERNEL_TOL * np.linalg.norm(mixed, axis=1)
        assert 0 < infinite.sum() < TALL_ROWS
        assert est.infinite.tobytes() == infinite.tobytes()
        assert est.values.tobytes() == np.where(infinite, 0.0, vals).tobytes()


class TestScoreVector:
    def test_validation(self):
        ScoreVector(np.array([0.5, 0.0]), np.array([False, True])).validate()
        with pytest.raises(ValueError):
            ScoreVector(np.array([0.5, 0.2]), np.array([False, True])).validate()
        with pytest.raises(ValueError):
            ScoreVector(np.array([-0.1]), np.array([False])).validate()

    def test_infinite_fill(self):
        s = ScoreVector(np.array([0.25, 0.0]), np.array([False, True]))
        np.testing.assert_array_equal(s.with_infinite_as(1.0), [0.25, 1.0])

    def test_tsv_round_trip_with_inf_token(self, tmp_path):
        s = ScoreVector(np.array([1.0 / 3.0, 0.0, 0.75]), np.array([False, True, False]))
        p = tmp_path / "scores.tsv"
        write_scores(p, s)
        text = p.read_text().splitlines()
        assert text[2] == "1\tinf"
        back = read_scores(p)
        np.testing.assert_array_equal(back.infinite, s.infinite)
        assert back.values[0] == 1.0 / 3.0
