"""End-to-end sketchers: spectral grades, row budgets, determinism, rows
that lean into a reference's kernel, and the preconditioned solver."""

import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rowsketch.pipelines as pl
from rowsketch import (SketchConfig, SketchResult, SparseRowMatrix,
                       WeightedRowSample, exact_leverage_scores,
                       final_refinement, input_sparsity_sketch, materialize,
                       normal_equations_cg, precondition_solve,
                       refinement_sampling, repeated_halving, sample,
                       spectral_check)
from rowsketch.pipelines import normal_equations_gradient_descent
from rowsketch.sampling import log_dim

from conftest import (conditioned_matrix, gaussian_matrix, isolated_direction_matrix,
                      power_law_matrix, stacked_identity)


def make_verified_sketch(A, seed=0, eps=1.0 / 3.0):
    """A certified (1+eps)/(1-eps) sketch drawn from exact scores."""
    tau = exact_leverage_scores(A)
    cfg = SketchConfig(seed=seed, c=8.0)
    S = sample(tau, eps ** -2, cfg, A.n_cols, salt=("fixture",)).scaled(
        1.0 / np.sqrt(1.0 + eps))
    lam = (1 + eps) / (1 - eps)
    rep = spectral_check(A, materialize(A, S), lam)
    assert rep.passes
    return SketchResult(S, len(S), (), 1, 0, seed, lam)


class TestRepeatedHalving:
    def test_base_case_returns_all_rows_at_weight_one(self):
        A = gaussian_matrix(50, 5, 1)
        r = repeated_halving(A, SketchConfig(seed=0))
        assert r.rows_kept == 50
        np.testing.assert_array_equal(r.sample.weights, np.ones(50))
        np.testing.assert_array_equal(materialize(A, r.sample).to_dense(), A.to_dense())

    def test_stacked_identities_spectral_and_rows(self):
        d = 8
        A = stacked_identity(256, d)
        bound = 40 * d * log_dim(d) * 4
        passes = 0
        for seed in range(100):
            r = repeated_halving(A, SketchConfig(seed=seed))
            rep = spectral_check(A, materialize(A, r.sample), 3.0 + 1e-6)
            passes += rep.passes
            assert r.rows_kept <= bound
        assert passes >= 95

    def test_sample_indexes_original_matrix(self):
        A = gaussian_matrix(4096, 8, 2)
        r = repeated_halving(A, SketchConfig(seed=3))
        r.sample.validate()
        assert r.sample.parent_rows == 4096
        assert r.levels_or_iterations >= 1
        assert len(r.sum_estimates_history) == r.levels_or_iterations

    def test_reproducible(self):
        A = gaussian_matrix(2048, 8, 4)
        a = repeated_halving(A, SketchConfig(seed=9))
        b = repeated_halving(A, SketchConfig(seed=9))
        np.testing.assert_array_equal(a.sample.row_indices, b.sample.row_indices)
        np.testing.assert_array_equal(a.sample.weights, b.sample.weights)
        assert a.solve_count == b.solve_count

    def test_concurrent_runs_match_serial(self):
        # each run counts its own solves: runs in threads overlap, and
        # their counts and samples must read as if each ran alone
        A = gaussian_matrix(8192, 16, 88)
        cfg = SketchConfig(seed=0)
        serial = repeated_halving(A, cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                runs = list(pool.map(lambda _: repeated_halving(A, cfg), range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(runs) == 4
        for r in runs:
            assert r.solve_count == serial.solve_count
            np.testing.assert_array_equal(r.sample.row_indices, serial.sample.row_indices)
            np.testing.assert_array_equal(r.sample.weights, serial.sample.weights)


class TestRefinementSampling:
    def test_small_matrix_zero_iterations(self):
        A = gaussian_matrix(100, 8, 5)  # 100 <= 20 * 8
        r = refinement_sampling(A, SketchConfig(seed=1))
        assert r.levels_or_iterations == 0
        assert r.sum_estimates_history == (100.0,)

    def test_history_nonincreasing_and_contracts(self):
        A = gaussian_matrix(4096, 16, 6)
        done_ratio, done_iters = 0, 0
        cap = int(np.ceil(np.log2(4096 / 16))) + 3
        for seed in range(20):
            r = refinement_sampling(A, SketchConfig(seed=seed))
            h = r.sum_estimates_history
            assert all(h[k + 1] <= h[k] for k in range(len(h) - 1))
            done_ratio += all(h[k + 1] <= 0.6 * h[k] for k in range(len(h) - 1))
            done_iters += r.levels_or_iterations <= cap
        assert done_ratio >= 18
        assert done_iters >= 19

    def test_spectral_grade(self):
        A = gaussian_matrix(2048, 8, 7)
        passes = 0
        for seed in range(30):
            r = refinement_sampling(A, SketchConfig(seed=seed))
            passes += spectral_check(A, materialize(A, r.sample), r.check_lambda).passes
        assert passes >= 27


class TestInputSparsity:
    def test_theta_collapse_matches_halving_row_order(self):
        n, d = 4096, 16
        A = gaussian_matrix(n, d, 4)
        theta_fine = 1.0 / log_dim(d)
        rh = np.mean([repeated_halving(A, SketchConfig(seed=s)).rows_kept
                      for s in range(5)])
        isp = np.mean([input_sparsity_sketch(A, theta_fine, 0.5, SketchConfig(seed=s)).rows_kept
                       for s in range(5)])
        assert isp / rh <= 3.0

    def test_composed_grade_and_budget(self):
        n, d = 8192, 16
        A = gaussian_matrix(n, d, 5)
        lam = 1.5 / 0.975
        bound = 40 * d * log_dim(d) * 4
        inter_bound = 40 * d ** 1.5 * log_dim(d) * 4
        passes = 0
        for seed in range(20):
            r = input_sparsity_sketch(A, 0.5, 0.5, SketchConfig(seed=seed))
            rep = spectral_check(A, materialize(A, r.sample), lam)
            passes += rep.passes
            assert r.rows_kept <= bound
            # stage-2a intermediate mass: expected rows <= alpha c log d ||u||_1
            u_sum_stage2a = r.sum_estimates_history[-2]
            assert 16.0 * 2.0 * log_dim(d) * u_sum_stage2a * 0.5 <= inter_bound or n <= inter_bound
        assert passes >= 18

    def test_small_matrix_passthrough(self):
        A = gaussian_matrix(64, 8, 6)
        r = input_sparsity_sketch(A, 0.5, 0.5, SketchConfig(seed=0))
        assert r.rows_kept == 64
        np.testing.assert_array_equal(r.sample.weights, np.ones(64))

    def test_parameter_validation(self):
        A = gaussian_matrix(10, 2, 0)
        with pytest.raises(ValueError):
            input_sparsity_sketch(A, 0.0, 0.5, SketchConfig())
        with pytest.raises(ValueError):
            input_sparsity_sketch(A, 0.5, 1.0, SketchConfig())


class TestFinalRefinement:
    def test_trivial_return_when_budget_exceeds_rows(self):
        A = gaussian_matrix(32, 16, 7)  # d ln d / eps^2 = 177 >= 32
        sk = make_verified_sketch(A)
        r = final_refinement(A, sk, 1.0, SketchConfig(seed=0))
        assert r.rows_kept == 32
        np.testing.assert_array_equal(r.sample.weights, np.ones(32))

    def test_grade_from_verified_constant_factor_input(self):
        n, d = 4096, 16
        A = gaussian_matrix(n, d, 10)
        sk = make_verified_sketch(A)  # 2-approximation
        passes = composed = 0
        for seed in range(100):
            r = final_refinement(A, sk, 0.5, SketchConfig(seed=seed))
            passes += spectral_check(A, materialize(A, r.sample), 3.0).passes
            composed += spectral_check(A, materialize(A, r.sample), 2.0 * 3.0).passes
        assert passes >= 95
        assert composed >= passes  # weaker composed bound never does worse

    def test_rows_scale_inverse_square_epsilon(self):
        n, d = 8192, 8
        A = gaussian_matrix(n, d, 3)
        sk = make_verified_sketch(A, eps=1.0 / 3.0)
        means = {}
        for eps in (1.0, 0.5, 0.25):
            counts = [final_refinement(A, sk, eps, SketchConfig(seed=s)).rows_kept
                      for s in range(20)]
            means[eps] = np.mean(counts)
        for hi, lo in ((0.5, 1.0), (0.25, 0.5)):
            ratio = means[hi] / means[lo]
            assert 4.0 / 1.5 <= ratio <= 4.0 * 1.5


class TestFlaggedRows:
    """A row that leans into ker(B) is kept with p = 1, whatever the rate."""

    def test_isolated_direction_kept_at_a_low_rate(self):
        # criterion 09's matrix at alpha c ln d = 0.51 < 1.  Its isolated
        # row 2047 lies in ker(B) whenever the half it is scored against
        # lacks it, and always against ``hole``, which is A without it
        A = isolated_direction_matrix(2048, 8, 99)
        hole = SketchResult(WeightedRowSample(2048, np.arange(2047), np.ones(2047)),
                            2047, (), 1, 0, 0, 3.0)
        kept = {"halving": 0, "input-sparsity": 0, "final-refinement": 0, "flagged": 0}
        for seed in range(100):
            cfg = SketchConfig(c=0.2, epsilon=0.9, seed=seed)
            halving = repeated_halving(A, cfg)
            for name, r in (("halving", halving),
                            ("input-sparsity", input_sparsity_sketch(A, 0.5, cfg.epsilon, cfg)),
                            ("final-refinement", final_refinement(A, halving, cfg.epsilon, cfg))):
                kept[name] += spectral_check(A, materialize(A, r.sample), r.check_lambda).rank_match
            kept["flagged"] += 2047 in final_refinement(A, hole, cfg.epsilon, cfg).sample.row_indices
        assert kept == dict.fromkeys(kept, 100)


# every pipeline that estimates at its default theta, as a function of (A, cfg)
DEFAULT_THETA_PIPELINES = {
    "halving": repeated_halving,
    "refinement": refinement_sampling,
    "input-sparsity": lambda A, cfg: input_sparsity_sketch(A, 0.5, cfg.epsilon, cfg),
}


def assert_sample_invariants(r, n):
    """Strictly increasing indices within [0, n), finite positive weights,
    and rows_kept counting them."""
    idx, w = r.sample.row_indices, r.sample.weights
    assert r.sample.parent_rows == n and r.rows_kept == len(r.sample) == idx.size == w.size
    assert np.all(idx[1:] > idx[:-1]) and (not idx.size or (idx[0] >= 0 and idx[-1] < n))
    assert np.all(np.isfinite(w)) and np.all(w > 0)


class TestFewColumns:
    """At d <= 2 the default theta is 1: 1/ln d would leave (0, 1]."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("name", sorted(DEFAULT_THETA_PIPELINES))
    def test_pipelines_run_at_default_theta(self, name, d):
        A = gaussian_matrix(4096, d, 40 + d)
        r = DEFAULT_THETA_PIPELINES[name](A, SketchConfig(seed=1))
        assert_sample_invariants(r, A.n_rows)
        assert 0 < r.rows_kept < A.n_rows and r.levels_or_iterations > 0

    @pytest.mark.parametrize("d", [1, 2])
    def test_final_refinement_runs_at_default_theta(self, d):
        A = gaussian_matrix(4096, d, 40 + d)
        r = final_refinement(A, make_verified_sketch(A), 0.5, SketchConfig(seed=1))
        assert_sample_invariants(r, A.n_rows)
        assert 0 < r.rows_kept < A.n_rows and r.levels_or_iterations == 1


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(DEFAULT_THETA_PIPELINES)), n=st.integers(0, 3000),
       d=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1),
       zero_rows=st.sampled_from([0.0, 0.3, 0.9]), distinct=st.sampled_from([0, 1, 2, 7]))
def test_sample_invariants_property(name, n, d, seed, zero_rows, distinct):
    """Every sketcher on matrices of 0 to 6 columns, with zero rows and
    (``distinct`` > 0) rows repeating ``distinct`` patterns: a valid sample
    of A, and the same bytes on a rerun with the same seed."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((distinct or n, d))
    dense = rows[np.arange(n) % distinct] if distinct else rows
    dense[rng.random(n) < zero_rows] = 0.0
    A = SparseRowMatrix.from_dense(dense)
    cfg = SketchConfig(seed=seed % 1000)
    first, again = (DEFAULT_THETA_PIPELINES[name](A, cfg) for _ in range(2))
    assert_sample_invariants(first, n)
    assert first.sample.row_indices.tobytes() == again.sample.row_indices.tobytes()
    assert first.sample.weights.tobytes() == again.sample.weights.tobytes()
    assert first.sum_estimates_history == again.sum_estimates_history


class TestPreconditionSolve:
    def test_orthonormal_columns_one_iteration(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((64, 6)))
        A = SparseRowMatrix.from_dense(q)
        sk = SketchResult(pl.WeightedRowSample.identity(64), 64, (), 0, 0, 0, 1.0)
        b = np.random.default_rng(1).standard_normal(64)
        res = precondition_solve(A, b, sk)
        assert res.converged and res.iterations == 1

    def test_consistent_system_recovers_solution(self):
        A = gaussian_matrix(2048, 12, 11)
        x_star = np.random.default_rng(2).standard_normal(12)
        b = A.to_dense() @ x_star
        sk = repeated_halving(A, SketchConfig(seed=5))
        res = precondition_solve(A, b, sk, tol=1e-10)
        assert res.converged
        assert np.linalg.norm(res.x - x_star) / np.linalg.norm(x_star) <= 1e-6

    def test_ill_conditioned_head_to_head(self):
        rng = np.random.default_rng(21)
        n, d = 2048, 16
        u, _ = np.linalg.qr(rng.standard_normal((n, d)))
        v, _ = np.linalg.qr(rng.standard_normal((d, d)))
        dense = u @ np.diag(np.logspace(0, 6, d)) @ v.T
        A = SparseRowMatrix.from_dense(dense)
        b = dense @ rng.standard_normal(d)
        sk = repeated_halving(A, SketchConfig(seed=6))
        pre = precondition_solve(A, b, sk, tol=1e-8, max_iters=50)
        assert pre.converged and pre.iterations <= 50
        gd = normal_equations_gradient_descent(A, b, tol=1e-8, max_iters=1000)
        assert not gd.converged  # the naive iteration stalls

    def test_extreme_scales_recover_solution(self):
        # A'b underflows to zero at 1e-170 and A'A overflows at 1e160; the
        # solve must scale them back into range, not return x = 0 or NaN.
        # The solution 1 * sb pins the direction and size of the scale-back,
        # with A and b out of range together, A alone and b alone.
        base = isolated_direction_matrix(2048, 8, 0).to_dense()
        for sa, sb in ((1e-170, 1.0), (1e160, 1.0), (1e-170, 1e170), (1e160, 1e-160),
                       (1.0, 1e250), (1.0, 1e-250)):
            A = SparseRowMatrix.from_dense(sa * base)
            b = sb * A.dot_dense(np.ones(8))
            res = precondition_solve(A, b, repeated_halving(A, SketchConfig(seed=1)))
            assert res.converged, (sa, sb)
            assert np.abs(res.x / sb - 1.0).max() <= 3e-8, (sa, sb)

    def test_cg_alone_recovers_solution_at_extreme_scales(self):
        # without a preconditioner, A'b underflows to zero at 1e-170 (x = 0
        # would read as converged) and A'A overflows at 1e160 (x turns NaN)
        # unless normal_equations_cg scales A and b itself
        base = isolated_direction_matrix(2048, 8, 0).to_dense()
        for scale in (1e-170, 1e160):
            A = SparseRowMatrix.from_dense(scale * base)
            res = normal_equations_cg(A, A.dot_dense(np.ones(8)))
            assert res.converged, scale
            assert np.abs(res.x - 1.0).max() <= 3e-8, scale

    def test_gradient_descent_matches_unscaled_run_at_extreme_scales(self):
        # the baseline scales A and b as CG does; unscaled, it returned x = 0
        # as converged after 0 iterations at 1e-170, and a NaN x at 1e160
        base = isolated_direction_matrix(2048, 8, 0).to_dense()

        def run(scale):
            A = SparseRowMatrix.from_dense(scale * base)
            return normal_equations_gradient_descent(A, A.dot_dense(np.ones(8)), max_iters=50)

        ref = run(1.0)
        assert (ref.converged, ref.iterations) == (False, 50)
        for scale in (1e-170, 1e160):
            res = run(scale)
            assert (res.converged, res.iterations) == (False, 50), scale
            assert np.isfinite(res.x).all(), scale
            assert np.linalg.norm(res.x - ref.x) <= 1e-10 * np.linalg.norm(ref.x), scale

    def test_cg_reports_non_convergence(self):
        A = gaussian_matrix(100, 5, 12)
        b = np.random.default_rng(3).standard_normal(100)
        res = normal_equations_cg(A, b, tol=1e-16, max_iters=1)
        assert not res.converged and res.iterations == 1

    def test_rhs_length_validated(self):
        A = gaussian_matrix(10, 3, 0)
        sk = make_verified_sketch(A, eps=0.5)
        with pytest.raises(ValueError):
            precondition_solve(A, np.ones(9), sk)

    @pytest.mark.parametrize("solver", [normal_equations_cg, normal_equations_gradient_descent])
    @pytest.mark.parametrize("bad", [{"max_iters": 0}, {"max_iters": -3},
                                     {"tol": float("nan")}, {"tol": -1.0}])
    def test_solver_arguments_validated(self, solver, bad):
        # unchecked, max_iters <= 0 runs no iteration and a nan or negative
        # tol runs every one
        A = gaussian_matrix(50, 4, 0)
        with pytest.raises(ValueError):
            solver(A, np.ones(50), **bad)

    @pytest.mark.parametrize("noise", [0.0, 1e-2], ids=["consistent", "noisy"])
    def test_accuracy_against_dense_lstsq_at_condition_1e8(self, noise):
        # CG on A'A squares the condition number, and its error in x then
        # reaches 3 (consistent) and 11 (noisy) here
        A = conditioned_matrix(1e8, n=20000)
        dense = A.to_dense()
        rng = np.random.default_rng(1)
        b = dense @ rng.standard_normal(16) + noise * rng.standard_normal(20000)
        x_ref = np.linalg.lstsq(dense, b, rcond=None)[0]
        res = precondition_solve(A, b, repeated_halving(A, SketchConfig(seed=4)), tol=1e-15)
        assert np.linalg.norm(res.x - x_ref) <= 1e-4 * np.linalg.norm(x_ref)

    def test_accuracy_on_criterion_11_matrix(self):
        dense, b = _criterion_11_system()
        A = SparseRowMatrix.from_dense(dense)
        x_ref = np.linalg.lstsq(dense, b, rcond=None)[0]
        res = precondition_solve(A, b, repeated_halving(A, SketchConfig(seed=4)), tol=1e-12)
        assert res.converged and res.iterations <= 50
        assert np.linalg.norm(res.x - x_ref) <= 1e-6 * np.linalg.norm(x_ref)

    @pytest.mark.parametrize("solver, tol", [("cg", 1e-12), ("sketch", 1e-9), ("gd", 1e-8)])
    def test_reported_residual_is_recomputed_on_the_returned_x(self, solver, tol):
        # a recursively updated residual drifts from the returned x's, here by
        # 2e-3 (plain CG on A'A), 0.24 (left-preconditioned) and 4e-3 (a
        # gradient step's residual read before the step)
        dense, b = _criterion_11_system(1e8)
        A = SparseRowMatrix.from_dense(dense)
        res = {"cg": lambda: normal_equations_cg(A, b, tol=tol),
               "sketch": lambda: precondition_solve(A, b, repeated_halving(A, SketchConfig(seed=4)), tol=tol),
               "gd": lambda: normal_equations_gradient_descent(A, b, tol=tol, max_iters=300)}[solver]()
        value = _oracle_normal_residual(dense, res.x, b)
        assert res.relative_residual == pytest.approx(value, rel=1e-6, abs=0.0)
        assert res.converged == (value <= tol)

    @pytest.mark.parametrize("cond", [1e6, 1e8])
    def test_tol_below_the_residual_floor_is_not_converged(self, cond):
        # the returned x's residual bottoms out between 1e-14 and 1e-10 here;
        # reporting convergence at tol 1e-15 is a silent wrong answer.  At
        # that floor the value is mostly the rounding of its own
        # recomputation, which moves with the summation order by 1e-4.
        dense, b = _criterion_11_system(cond)
        A = SparseRowMatrix.from_dense(dense)
        res = precondition_solve(A, b, repeated_halving(A, SketchConfig(seed=4)), tol=1e-15)
        value = _oracle_normal_residual(dense, res.x, b)
        assert value > 1e-15 and not res.converged
        assert res.relative_residual == pytest.approx(value, rel=1e-2, abs=0.0)

    def test_cg_alone_recovers_solution_inside_the_unshifted_range(self):
        # ||A A'r||^2 multiplies six entries of A and b, which overflow at
        # 1e59 and vanish at 1e-59 unless A and b are scaled there too
        base = isolated_direction_matrix(2048, 8, 0).to_dense()
        for scale in (1e59, 1e-59):
            A = SparseRowMatrix.from_dense(scale * base)
            res = normal_equations_cg(A, A.dot_dense(np.ones(8)))
            assert res.converged, scale
            assert np.abs(res.x - 1.0).max() <= 3e-8, scale


def _criterion_11_system(cond=1e6):
    """Criterion 11's 4096 x 16 construction at condition ``cond``, with
    its consistent right-hand side."""
    rng = np.random.default_rng(21)
    u, _ = np.linalg.qr(rng.standard_normal((4096, 16)))
    v, _ = np.linalg.qr(rng.standard_normal((16, 16)))
    dense = u @ np.diag(np.logspace(0, np.log10(cond), 16)) @ v.T
    return dense, dense @ rng.standard_normal(16)


def _oracle_normal_residual(dense, x, b):
    """||A'(Ax - b)|| / ||A'b||, in dense arithmetic."""
    return float(np.linalg.norm(dense.T @ (dense @ x - b)) / np.linalg.norm(dense.T @ b))


# ---------------------------------------------------------------------------
# Golden outputs: every pipeline on three matrices and four seeds, pinned so
# that a refactor meant to be pure shows any change in the draws.  Weight
# sums and estimate histories are compared to 1e-9 relative, which absorbs
# last-bit differences between LAPACK builds; everything else is exact.
# ---------------------------------------------------------------------------

GOLDEN_MATRICES = {
    "gaussian": lambda: gaussian_matrix(8192, 16, 88),
    "power-law": lambda: power_law_matrix(4096, 16, 55),
    "isolated": lambda: isolated_direction_matrix(2048, 8, 99),
}
GOLDEN_RUNS = ("halving", "refinement", "input-sparsity", "final-refinement")
GOLDEN_SEEDS = range(4)


def golden_run(A, run, seed):
    cfg = SketchConfig(seed=seed)
    if run == "halving":
        return repeated_halving(A, cfg)
    if run == "refinement":
        return refinement_sampling(A, cfg)
    if run == "input-sparsity":
        return input_sparsity_sketch(A, 0.5, cfg.epsilon, cfg)
    return final_refinement(A, repeated_halving(A, cfg), 0.5, cfg)


def golden_summary(r):
    """(sha256 prefix of the row indices, rows kept, levels, solves,
    weight sum, estimate history)."""
    digest = hashlib.sha256(r.sample.row_indices.astype("<i8").tobytes()).hexdigest()[:16]
    return (digest, r.rows_kept, r.levels_or_iterations, r.solve_count,
            float(r.sample.weights.sum()), tuple(r.sum_estimates_history))


# Recorded with the golden_run/golden_summary pair above.
GOLDEN = {
    ("gaussian", 0, "halving"): ("f24f159a16ada20e", 1915, 4, 728, 3157.912195095,
        (87.17292438399, 88.7808222436, 86.49077844491, 87.67054947203)),
    ("gaussian", 0, "refinement"): ("20e82e097d201025", 3281, 4, 1436, 4180.342245411,
        (8192, 3001.384817931, 1098.90660639, 404.5359314426, 148.1096028833)),
    ("gaussian", 0, "input-sparsity"): ("3496cc26912a440a", 4070, 6, 1570, 5077.600859974,
        (89.27375133592, 91.02314957676, 87.5687784427, 82.50787550685, 67.72212191249, 46.14476764575)),
    ("gaussian", 0, "final-refinement"): ("473ab57502ac7438", 1478, 1, 182, 2787.167727869,
        (66.5741969807,)),
    ("gaussian", 1, "halving"): ("3034e5e1bc487805", 1971, 4, 728, 3270.067261368,
        (89.04636799097, 84.97701642157, 86.50930144914, 87.51795863475)),
    ("gaussian", 1, "refinement"): ("bf127b498fe7cbf6", 3232, 4, 1436, 4142.178524113,
        (8192, 2956.902747562, 1073.548326145, 390.6170263429, 144.5560209218)),
    ("gaussian", 1, "input-sparsity"): ("560ad730167e140e", 3773, 6, 1570, 4884.214974318,
        (91.88126120419, 83.98077479473, 85.98251657825, 90.59692714325, 63.15970469906, 42.61507270171)),
    ("gaussian", 1, "final-refinement"): ("794d8b9c570ac14c", 1491, 1, 182, 2849.652834259,
        (64.61216808104,)),
    ("gaussian", 2, "halving"): ("e2d56b072554ffb4", 2002, 4, 728, 3318.15246735,
        (86.75127253884, 86.67720639181, 87.76393526485, 86.76617761422)),
    ("gaussian", 2, "refinement"): ("1d2f0807e74f9660", 3507, 4, 1436, 4361.588588358,
        (8192, 3023.333631815, 1118.928215572, 416.6038332259, 154.43885394)),
    ("gaussian", 2, "input-sparsity"): ("4d8c51ff2fc501bc", 3719, 6, 1570, 4787.178239951,
        (89.78994830551, 88.52463574838, 87.99284661019, 89.24821869868, 62.99321643041, 42.2292933814)),
    ("gaussian", 2, "final-refinement"): ("4f542a71f465e831", 1333, 1, 182, 2597.691744036,
        (62.99022946132,)),
    ("gaussian", 3, "halving"): ("948d63860ba77672", 1964, 4, 728, 3277.412698871,
        (84.36791115205, 84.73845309749, 85.46355906095, 86.62185612134)),
    ("gaussian", 3, "refinement"): ("e67b2846d9a37774", 3338, 4, 1436, 4184.002613137,
        (8192, 3033.133552933, 1111.131933106, 407.0572149205, 150.8959539016)),
    ("gaussian", 3, "input-sparsity"): ("4513ab5c2638c1ce", 3877, 6, 1570, 4933.211488615,
        (84.4479067366, 87.55300272477, 90.6754632127, 85.48034342402, 64.97007980267, 43.97661287974)),
    ("gaussian", 3, "final-refinement"): ("ab5f2f033a7f57c6", 1387, 1, 182, 2673.927961998,
        (64.17842890375,)),
    ("isolated", 0, "halving"): ("7821b397bad76fc6", 604, 3, 414, 868.8562331837,
        (37.62767107416, 35.19770824654, 37.77018110857)),
    ("isolated", 0, "refinement"): ("733c6ffdb9f90f7e", 1117, 3, 813, 1229.286819044,
        (2048, 647.3853533643, 207.3559250587, 68.5521308394)),
    ("isolated", 0, "input-sparsity"): ("2d1ae68b1cf88b3f", 1227, 5, 1080, 1373.496832912,
        (41.06395837922, 38.12516884167, 38.12107995527, 23.67102325704, 22.57766376857)),
    ("isolated", 0, "final-refinement"): ("a3a6c132600dad1b", 470, 1, 138, 758.0917593065,
        (33.15660774171,)),
    ("isolated", 1, "halving"): ("860d4a7c7324ad77", 603, 3, 414, 849.9287421214,
        (39.35633541891, 37.93757831713, 40.2357785576)),
    ("isolated", 1, "refinement"): ("4af20532042da327", 1064, 3, 813, 1153.985780944,
        (2048, 657.5090418786, 209.9976831687, 68.71217893729)),
    ("isolated", 1, "input-sparsity"): ("f2b1c6daffefc15d", 1169, 5, 1080, 1346.664009216,
        (38.51835853581, 45.54704085972, 41.37531374797, 22.25751886089, 21.28204471986)),
    ("isolated", 1, "final-refinement"): ("0ee86ce6ee5a57df", 557, 1, 138, 896.7834479727,
        (33.80249292025,)),
    ("isolated", 2, "halving"): ("46ae29d9c4369dd2", 664, 3, 414, 944.6584733304,
        (38.22928711188, 37.69124729176, 38.55276310192)),
    ("isolated", 2, "refinement"): ("9c900d36d73cfd81", 1109, 3, 813, 1205.124034001,
        (2048, 659.0683822774, 211.6416873196, 69.65116714559)),
    ("isolated", 2, "input-sparsity"): ("4f9e12c942bfe583", 1140, 5, 1080, 1310.241772693,
        (41.622832452, 40.09651747785, 39.3680426354, 22.22311992998, 20.83475006753)),
    ("isolated", 2, "final-refinement"): ("4378b49eea87d1c7", 442, 1, 138, 732.5206430295,
        (31.16034227451,)),
    ("isolated", 3, "halving"): ("7adcf55f02305d4e", 637, 3, 414, 906.331717146,
        (35.82094321983, 39.61981701324, 40.57173266308)),
    ("isolated", 3, "refinement"): ("2a86ee2cbb49d7a0", 1096, 3, 813, 1199.617168019,
        (2048, 656.9953735592, 210.0707091757, 67.72115115395)),
    ("isolated", 3, "input-sparsity"): ("f5f3eddf33fa9b03", 1179, 5, 1080, 1301.756631254,
        (41.30251109253, 39.2503664668, 40.3595102312, 23.68126815373, 21.95609157407)),
    ("isolated", 3, "final-refinement"): ("8a166f5131d50f28", 480, 1, 138, 783.6758731237,
        (32.40648001506,)),
    ("power-law", 0, "halving"): ("043e1ac986f453c7", 581, 3, 546, 943.683861789,
        (456.1487908236, 106.5005483701, 672.5774712328)),
    ("power-law", 0, "refinement"): ("4bb62265dc2b87ba", 481, 2, 718, 829.5529982509,
        (4096, 328.13245308, 67.7655632779)),
    ("power-law", 0, "input-sparsity"): ("ac130b55dd32d47f", 584, 5, 1256, 1080.07568408,
        (451.7026350025, 626.0390111609, 92.56254325493, 64.66610822743, 43.99515241418)),
    ("power-law", 0, "final-refinement"): ("9b5eb0e74f6f31a9", 311, 1, 182, 571.286810645,
        (65.14855081036,)),
    ("power-law", 1, "halving"): ("7ff56cf0d6a6f2b3", 469, 3, 546, 793.9270752865,
        (170.8263016976, 476.4672997921, 637.2730808788)),
    ("power-law", 1, "refinement"): ("0fbbbc58548a852e", 450, 2, 718, 741.6918339621,
        (4096, 328.13245308, 67.93805120635)),
    ("power-law", 1, "input-sparsity"): ("006223570a5cfc25", 548, 5, 1256, 979.4801252004,
        (426.1259444891, 617.2566700083, 604.652376109, 63.43941210211, 43.05034268778)),
    ("power-law", 1, "final-refinement"): ("7e92c21db747c064", 333, 1, 182, 660.9259245476,
        (65.6003304633,)),
    ("power-law", 2, "halving"): ("4dce11f88b25f004", 472, 3, 546, 848.7146945369,
        (481.2822171059, 337.3035459082, 378.0420882574)),
    ("power-law", 2, "refinement"): ("4112a896824587d9", 460, 2, 718, 791.8338362493,
        (4096, 328.13245308, 67.80796598511)),
    ("power-law", 2, "input-sparsity"): ("09edc833dafde84c", 555, 5, 1256, 970.6223043155,
        (888.3245860815, 231.7388353517, 427.0425149534, 64.10452988694, 43.37099259242)),
    ("power-law", 2, "final-refinement"): ("ae57c0f65f160af0", 307, 1, 182, 585.5454219661,
        (64.90174931543,)),
    ("power-law", 3, "halving"): ("f364b85b8d7e44d0", 454, 3, 546, 854.622017787,
        (307.4114125701, 305.1480786262, 378.9371873595)),
    ("power-law", 3, "refinement"): ("5923210694016b23", 481, 2, 718, 852.4448552537,
        (4096, 328.13245308, 67.83309956097)),
    ("power-law", 3, "input-sparsity"): ("27a22c4ea679d706", 545, 5, 1256, 969.7367876269,
        (1143.990274985, 100.5938487471, 591.0295833057, 63.90536031503, 43.25187280802)),
    ("power-law", 3, "final-refinement"): ("c2ac14bd7a20f9f2", 338, 1, 182, 677.0863919273,
        (65.23901218562,)),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MATRICES))
def test_golden_outputs(name):
    A = GOLDEN_MATRICES[name]()
    for seed in GOLDEN_SEEDS:
        for run in GOLDEN_RUNS:
            got = golden_summary(golden_run(A, run, seed))
            want = GOLDEN[name, seed, run]
            where = f"{name} seed {seed} {run}"
            assert got[:4] == want[:4], where
            np.testing.assert_allclose(got[4], want[4], rtol=1e-9, atol=0, err_msg=where)
            assert len(got[5]) == len(want[5]), where
            np.testing.assert_allclose(got[5], want[5], rtol=1e-9, atol=0, err_msg=where)
