"""Rank-1 leverage updates, target inversion, the reweighting sweep, and the
weight-perturbation comparison bound."""

import hashlib

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from rowsketch import (MatrixFormatError, Reweighting, SparseRowMatrix,
                       compare_leverage_bound, compute_reweighting,
                       cross_leverage, exact_leverage_scores, gamma_for_target,
                       min_norm_witness, rank_one_update, read_weights,
                       scale_rows, write_weights)
from rowsketch import leverage, reweight

from conftest import gaussian_matrix, isolated_direction_matrix, oracle_leverage, power_law_matrix


def reweighted_scores(A, weights):
    return exact_leverage_scores(scale_rows(A, weights)).values


class TestRankOneUpdate:
    def test_gamma_to_zero_limit_is_identity(self):
        A = gaussian_matrix(20, 4, 1)
        tau = exact_leverage_scores(A).values
        cross = min_norm_witness(A, 3)
        out = rank_one_update(tau, cross, 3, 1e-12)
        np.testing.assert_allclose(out, tau, atol=1e-10)

    def test_identity_matrix_untouched_by_orthogonal_downweight(self):
        # cross terms vanish, and (1-g)*1/(1-g) == 1: all scores stay 1
        A = SparseRowMatrix.from_dense(np.eye(5))
        tau = exact_leverage_scores(A).values
        cross = min_norm_witness(A, 2)
        out = rank_one_update(tau, cross, 2, 0.5)
        np.testing.assert_allclose(out, np.ones(5), atol=1e-12)

    def test_matches_recompute_from_scratch_oracle(self):
        A = gaussian_matrix(20, 4, 9)
        tau = exact_leverage_scores(A).values
        i, gamma = 7, 0.3
        out = rank_one_update(tau, min_norm_witness(A, i), i, gamma)
        w = np.ones(20)
        w[i] = np.sqrt(1.0 - gamma)
        np.testing.assert_allclose(out, reweighted_scores(A, w), atol=1e-8)

    def test_monotonicity_directions(self):
        A = power_law_matrix(25, 5, 3)
        tau = exact_leverage_scores(A).values
        for i, gamma in ((0, 0.2), (10, 0.7), (24, 0.45)):
            out = rank_one_update(tau, min_norm_witness(A, i), i, gamma)
            assert out[i] <= tau[i] + 1e-10
            mask = np.arange(25) != i
            assert np.all(out[mask] >= tau[mask] - 1e-10)

    def test_parameter_validation(self):
        tau = np.array([0.9, 0.5])
        cross = np.array([0.9, 0.1])
        for gamma in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                rank_one_update(tau, cross, 0, gamma)
        # denominator guard: gamma * tau_i >= 1 (drifted tau slightly above 1)
        with pytest.raises(ValueError):
            rank_one_update(np.array([1.2, 0.5]), np.array([1.2, 0.1]), 0, 0.9)


class TestGammaForTarget:
    def test_no_change_needed(self):
        assert gamma_for_target(0.4, 0.4) == 0.0

    def test_frozen_hand_computed_case(self):
        # tau = 1/2, u = 1/4: g = 2/3, and the update formula returns 1/4
        g = gamma_for_target(0.5, 0.25)
        assert g == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert (1 - g) * 0.5 / (1 - g * 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_composition_hits_target_exactly(self):
        A = gaussian_matrix(30, 5, 21)
        tau = exact_leverage_scores(A).values
        rng = np.random.default_rng(2)
        for _ in range(20):
            i = int(rng.integers(30))
            if tau[i] >= 1 - 1e-9:
                continue
            u_i = float(rng.uniform(0.2, 0.95) * tau[i])
            g = gamma_for_target(float(tau[i]), u_i)
            out = rank_one_update(tau, min_norm_witness(A, i), i, g)
            assert out[i] == pytest.approx(u_i, abs=1e-12)

    def test_leverage_one_rejected(self):
        with pytest.raises(ValueError):
            gamma_for_target(1.0, 0.5)
        with pytest.raises(ValueError):
            gamma_for_target(0.5, 0.0)


class TestComputeReweighting:
    def test_all_ones_target_leaves_weights_alone(self):
        A = gaussian_matrix(50, 5, 4)
        W, cert = compute_reweighting(A, np.ones(50))
        np.testing.assert_array_equal(W.weights, np.ones(50))
        assert cert.converged and cert.reweighted_count == 0
        assert cert.sweeps_used == 1

    def test_identity_matrix_small_target_zeroes_rows(self):
        d = 6
        A = SparseRowMatrix.from_dense(np.eye(d))
        alpha = 0.5
        W, cert = compute_reweighting(A, np.full(d, alpha))
        np.testing.assert_array_equal(W.weights, np.zeros(d))
        assert cert.converged
        assert cert.reweighted_mass == pytest.approx(d * alpha)
        assert cert.reweighted_mass <= d + 1e-6

    def test_certificate_on_random_instances(self):
        for seed, maker in ((0, gaussian_matrix), (1, power_law_matrix)):
            n, d = 100, 4
            A = maker(n, d, seed)
            u = np.full(n, 8.0 * d / n)
            W, cert = compute_reweighting(A, u)
            W.validate()
            assert cert.converged
            achieved = reweighted_scores(A, W.weights)
            assert np.all(achieved <= u + 1e-6)
            assert cert.reweighted_mass <= d + 1e-6

    def test_weights_never_increase_across_sweeps(self):
        A = power_law_matrix(60, 4, 7)
        u = np.full(60, 0.1)
        prev = np.ones(60)
        for cap in range(1, 8):
            W, _ = compute_reweighting(A, u, max_sweeps=cap)
            assert np.all(W.weights <= prev + 1e-15)
            prev = W.weights

    def test_non_convergence_reported_not_hidden(self):
        A = power_law_matrix(80, 4, 11)
        u = np.full(80, 0.05)
        W, cert = compute_reweighting(A, u, max_sweeps=1)
        full_W, full_cert = compute_reweighting(A, u)
        if full_cert.sweeps_used > 1:
            assert not cert.converged
            assert cert.max_violation > cert.tol
        assert full_cert.converged

    def test_zero_row_matrix_converges_with_empty_weights(self):
        W, cert = compute_reweighting(SparseRowMatrix.from_coo(0, 5, [], [], []), np.ones(0))
        assert cert.converged and cert.sweeps_used == 1
        assert len(W) == 0 and cert.achieved.shape == (0,)
        assert cert.max_violation == 0.0 and cert.reweighted_count == 0

    def test_independent_of_scale(self):
        # the Gram pseudoinverse behind the sweep scales as 1/scale^2; past
        # about 1e+-155 it overflowed or went subnormal, and the sweep
        # zeroed rows, moved weights by up to 1 or ran for tens of
        # thousands of sweeps
        A = power_law_matrix(2000, 8, 3)
        u = np.full(A.n_rows, 0.05)
        W1, cert1 = compute_reweighting(A, u, max_sweeps=100)
        assert cert1.converged
        for scale in (1e-300, 1e-160, 2.0 ** -300, 2.0 ** 300, 1e160, 1e300):
            B = SparseRowMatrix(A.n_rows, A.n_cols, A.row_offsets, A.col_indices,
                                A.values * scale)
            W, cert = compute_reweighting(B, u, max_sweeps=100)
            assert cert.converged, scale
            assert cert.reweighted_count == cert1.reweighted_count, scale
            assert np.count_nonzero(W.weights == 0.0) == np.count_nonzero(W1.weights == 0.0)
            np.testing.assert_allclose(W.weights, W1.weights, rtol=0, atol=1e-12)
            if np.log2(scale).is_integer():  # an exact shift: the same bytes
                assert W.weights.tobytes() == W1.weights.tobytes()

    def test_targets_validated(self):
        A = gaussian_matrix(5, 2, 0)
        for bad in (np.zeros(5), np.full(5, -1.0), np.ones(4)):
            with pytest.raises(ValueError):
                compute_reweighting(A, bad)


def tall_sparse_matrix(n, d, seed, per_row=2, rare_cols=2, planted_per_col=4):
    """Bulk rows with ``per_row`` entries among the first d - rare_cols
    columns and Pareto(3) row scales; each of the last ``rare_cols`` columns
    is held by ``planted_per_col`` planted rows alone."""
    rng = np.random.default_rng(seed)
    bulk = d - rare_cols
    dense = np.zeros((n, d))
    cols = np.argsort(rng.random((n, bulk)), axis=1)[:, :per_row]
    scale = rng.pareto(3.0, n) + 1.0
    np.put_along_axis(dense, cols, rng.standard_normal((n, per_row)) * scale[:, None], axis=1)
    planted = rng.choice(n, rare_cols * planted_per_col, replace=False)
    dense[planted] = 0.0
    dense[planted, bulk + np.repeat(np.arange(rare_cols), planted_per_col)] = \
        3.0 * rng.standard_normal(planted.size)
    return SparseRowMatrix.from_dense(dense)


GOLDEN_REWEIGHTINGS = {
    **{(fam, n, d): (lambda maker=maker, n=n, d=d: (maker(n, d, 7), 8.0 * d / n))
       for n, d in ((1024, 8), (2048, 16))
       for fam, maker in (("gaussian", gaussian_matrix), ("power-law", power_law_matrix),
                          ("isolated", isolated_direction_matrix))},
    ("tall-sparse", 20000, 16): lambda: (tall_sparse_matrix(20000, 16, 7), 0.5),
}


def sha(arr):
    return hashlib.sha256(np.ascontiguousarray(arr, dtype="<f8").tobytes()).hexdigest()[:16]


# (sha256 prefix of the weights, of ``achieved``, sweeps_used,
# reweighted_count, weight sum), recorded with the pair above on numpy
# 2.4.6 and scipy 1.17.1.  The bytes follow LAPACK's rounding of each SVD,
# so another build is held to the counts and to the weights' sum at 1e-9
# relative.
GOLDEN_BUILD = ("2.4.6", "1.17.1")
GOLDEN_REWEIGHT = {
    ('gaussian', 1024, 8): ('ffc1f5db1faa7b64', 'a25588e0385461b0', 1, 0, 1024.0),
    ('gaussian', 2048, 16): ('a8ac6bdbc78b0ecc', '0f480c0b2c0d6550', 1, 0, 2048.0),
    ('isolated', 1024, 8): ('5729e726969c57c9', 'e1dada5eca36ffc6', 2, 1, 1023.0),
    ('isolated', 2048, 16): ('af9574460a41cdaf', 'dc5f4feeaeee066a', 2, 1, 2047.0),
    ('power-law', 1024, 8): ('a77b9b6ce134cdf9', 'b9212c6026314940', 12, 51, 1002.0896558047396),
    ('power-law', 2048, 16): ('01f86bc668f33bab', '9f417abd47fbc2c1', 14, 104, 2001.576658831769),
    ('tall-sparse', 20000, 16): ('bcbbe2cbaf004f70', '1f5fa47dd2c09a00', 2, 2, 19998.8799134835),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_REWEIGHTINGS), ids="{0[0]}-{0[1]}x{0[2]}".format)
def test_golden_reweighting_bytes(case):
    A, cap = GOLDEN_REWEIGHTINGS[case]()
    W, cert = compute_reweighting(A, np.full(A.n_rows, cap))
    assert cert.converged
    want = GOLDEN_REWEIGHT[case]
    assert (cert.sweeps_used, cert.reweighted_count) == want[2:4]
    if (np.__version__, scipy.__version__) == GOLDEN_BUILD:
        assert (sha(W.weights), sha(cert.achieved)) == want[:2]
    else:
        assert W.weights.sum() == pytest.approx(want[4], rel=1e-9)


class TestFactorizationCounts:
    @pytest.fixture
    def factor_calls(self, monkeypatch):
        calls = []
        real = reweight.factor_gram

        def counting(B):
            calls.append(B.n_rows)
            return real(B)
        monkeypatch.setattr(reweight, "factor_gram", counting)
        return calls

    def test_untouched_run_factors_once(self, factor_calls):
        # the drift check has no rank-one update to confirm
        A = gaussian_matrix(2048, 16, 7)
        W, cert = compute_reweighting(A, np.full(2048, 8.0 * 16 / 2048))
        assert len(factor_calls) == 1
        assert cert.converged and cert.reweighted_count == 0
        assert (cert.updates, cert.factorizations) == (0, 1)
        np.testing.assert_array_equal(W.weights, np.ones(2048))

    def test_zeroed_row_factors_twice(self, factor_calls):
        # the refactor after zeroing the isolated row leaves exact scores
        A = isolated_direction_matrix(2048, 16, 7)
        W, cert = compute_reweighting(A, np.full(2048, 8.0 * 16 / 2048))
        assert len(factor_calls) == 2
        assert cert.converged and cert.reweighted_count == 1
        assert W.weights[-1] == 0.0
        assert (cert.updates, cert.factorizations) == (0, 2)

    def test_updates_confirmed_once(self, factor_calls):
        A = power_law_matrix(1024, 8, 7)
        _, cert = compute_reweighting(A, np.full(1024, 8.0 * 8 / 1024))
        assert cert.converged and cert.updates > cert.reweighted_count > 0
        assert cert.factorizations == len(factor_calls) == 2

    def test_unconverged_run_ends_on_exact_scores(self, factor_calls):
        A = power_law_matrix(80, 4, 11)
        W, cert = compute_reweighting(A, np.full(80, 0.05), max_sweeps=1)
        assert not cert.converged and cert.updates > 0
        assert cert.factorizations == len(factor_calls) == 2
        np.testing.assert_allclose(cert.achieved, reweighted_scores(A, W.weights), rtol=0, atol=1e-12)



@pytest.mark.parametrize("case", sorted(GOLDEN_REWEIGHTINGS), ids="{0[0]}-{0[1]}x{0[2]}".format)
def test_golden_reweighting_meets_dense_oracle(case):
    A, cap = GOLDEN_REWEIGHTINGS[case]()
    u = np.full(A.n_rows, cap)
    W, cert = compute_reweighting(A, u)
    assert cert.converged
    assert np.all(oracle_leverage(scale_rows(A, W.weights)) <= u + cert.tol)
    if case[0] == "power-law":
        assert cert.reweighted_count == {1024: 51, 2048: 104}[case[1]]


def test_sweep_cost_follows_passes_not_updates(monkeypatch):
    # an update takes a product with the rows above their targets at the
    # sweep's start, and a sweep one pass over A; one product with all n
    # rows per update would give about 130 (sweeps + factorizations) n
    rows = []
    for mod in (reweight, leverage):
        def counting(indptr, indices, data, X, out, real=mod._csr_product):
            rows.append(len(indptr) - 1)
            return real(indptr, indices, data, X, out)
        monkeypatch.setattr(mod, "_csr_product", counting)
    n, d = 4096, 8
    _, cert = compute_reweighting(power_law_matrix(n, d, 7), np.full(n, 8.0 * d / n))
    assert cert.converged and cert.updates > 10 * (cert.sweeps_used + cert.factorizations)
    assert sum(rows) <= 8 * (cert.sweeps_used + cert.factorizations) * n


def _two_distinct_rows():
    rows = np.random.default_rng(0).standard_normal((2, 3))
    return rows[[0, 1, 0, 0, 1]]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dense, alpha", [
    (np.ones((2, 1)), 0.25), (np.ones((3, 1)), 0.2), (np.ones((4, 1)), 0.1),
    (_two_distinct_rows(), 0.25)], ids=["ones2", "ones3", "ones4", "two-distinct-5x3"])
def test_groups_below_their_rank_end_with_honest_certificates(dense, alpha):
    # targets summing below the rank a group of rows spans: only zero
    # weights meet them, which no down-weighting reaches, so the run must
    # end on weights in [0, 1], finite P and a certificate that says so
    A = SparseRowMatrix.from_dense(dense)
    u = np.full(A.n_rows, alpha)
    W, cert = compute_reweighting(A, u)
    W.validate()
    assert np.all(np.isfinite(cert.achieved))
    np.testing.assert_allclose(cert.achieved, reweighted_scores(A, W.weights), rtol=0, atol=1e-9)
    if cert.converged:
        assert cert.max_violation <= cert.tol
    else:
        assert cert.max_violation > cert.tol

@st.composite
def reweighting_inputs(draw):
    """Matrices with zero, duplicate and rank-deficient rows, n <= d among
    them, at magnitudes 1e-150 to 1e150, with a uniform target."""
    d = draw(st.integers(1, 8))
    n = draw(st.integers(0, 6 * d))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rank = draw(st.integers(0, d))
    dense = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
    distinct = draw(st.sampled_from([0, 1, 2, 5]))
    if distinct and n:  # duplicate rows: copies of a few distinct ones
        dense = dense[rng.integers(0, min(distinct, n), n)]
    dense[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    dense *= 10.0 ** rng.uniform(-draw(st.sampled_from([0, 2])), 0, n)[:, None]
    dense *= 10.0 ** draw(st.integers(-150, 150))
    alpha = draw(st.floats(0.02, 1.5))
    return SparseRowMatrix.from_dense(dense), alpha


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(reweighting_inputs())
def test_reweighting_certificate_property(case):
    A, alpha = case
    n, d = A.shape
    u = np.full(n, alpha)
    W, cert = compute_reweighting(A, u)
    W.validate()
    assert cert.reweighted_mass <= d + 1e-6
    assert cert.reweighted_count <= d / alpha + 1
    if cert.converged:
        assert np.all(reweighted_scores(A, W.weights) <= u + cert.tol)


class TestCompareLeverageBound:
    def test_equal_weightings_give_equality(self):
        A = gaussian_matrix(20, 4, 5)
        W = Reweighting(np.full(20, 0.8))
        lhs, rhs = compare_leverage_bound(A, W, W, 3)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_tiny_perturbation_stays_tight(self, rng):
        A = gaussian_matrix(20, 4, 6)
        w = rng.uniform(0.5, 1.0, size=20)
        wbar = w.copy()
        wbar[7] = min(wbar[7] + 1e-6, 1.0)
        lhs, rhs = compare_leverage_bound(A, Reweighting(w), Reweighting(wbar), 3)
        assert lhs <= rhs + 1e-8
        assert rhs / lhs - 1 <= 1e-3

    def test_never_violated_on_random_sweep(self):
        rng = np.random.default_rng(17)
        for trial in range(200):
            n, d = 15, 3
            A = gaussian_matrix(n, d, trial)
            w = rng.uniform(0.05, 1.0, size=n)
            wbar = rng.uniform(0.05, 1.0, size=n)
            if trial % 3 == 0:  # some zero weights away from the probed row
                w[rng.integers(1, n)] = 0.0
            i = 0
            lhs, rhs = compare_leverage_bound(A, Reweighting(w), Reweighting(wbar), i)
            assert lhs <= rhs + 1e-8

    def test_zero_weight_at_row_rejected(self):
        A = gaussian_matrix(5, 2, 0)
        w = np.ones(5)
        wz = w.copy()
        wz[1] = 0.0
        with pytest.raises(ValueError):
            compare_leverage_bound(A, Reweighting(wz), Reweighting(w), 1)


def test_weight_tsv_round_trip(tmp_path, rng):
    W = Reweighting(rng.uniform(0.0, 1.0, size=30))
    p = tmp_path / "w.tsv"
    write_weights(p, W)
    back = read_weights(p)
    np.testing.assert_array_equal(back.weights, W.weights)


def test_read_weights_locates_non_finite(tmp_path):
    p = tmp_path / "w.tsv"
    p.write_text("row_index\tweight\n0\t1\n1\tnan\n")
    with pytest.raises(MatrixFormatError, match="non-finite weight 'nan'") as err:
        read_weights(p)
    assert err.value.line == 3


@pytest.mark.parametrize("bad", ["1.5", "-0.25"])
def test_read_weights_locates_out_of_range(tmp_path, bad):
    p = tmp_path / "w.tsv"
    p.write_text(f"row_index\tweight\n0\t1\n\n1\t{bad}\n")
    with pytest.raises(MatrixFormatError, match=r"weight must lie in \[0, 1\]") as err:
        read_weights(p)
    assert str(err.value).startswith(f"{p}:4: ")


def test_reweighting_validation():
    with pytest.raises(ValueError):
        Reweighting(np.array([1.5])).validate()
    with pytest.raises(ValueError):
        Reweighting(np.array([-0.1])).validate()
