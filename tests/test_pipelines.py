"""End-to-end sketchers: spectral grades, row budgets, determinism, presets,
and the preconditioned solver."""

import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import rowsketch.pipelines as pl
from rowsketch import (SketchConfig, SketchResult, SparseRowMatrix,
                       exact_leverage_scores, final_refinement,
                       generic_scheme, input_sparsity_sketch, materialize,
                       normal_equations_cg, precondition_solve,
                       refinement_sampling, repeated_halving, sample,
                       spectral_check)
from rowsketch.fastlev import sketch_rows
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


class TestGenericScheme:
    def test_head_preset_is_repeated_halving(self):
        A = gaussian_matrix(2048, 8, 8)
        cfg = SketchConfig(seed=11)
        a = generic_scheme(A, "head", cfg)
        b = repeated_halving(A, cfg)
        np.testing.assert_array_equal(a.sample.row_indices, b.sample.row_indices)
        np.testing.assert_array_equal(a.sample.weights, b.sample.weights)

    def test_refinement_preset_is_refinement_sampling(self):
        A = gaussian_matrix(1024, 8, 9)
        cfg = SketchConfig(seed=12)
        a = generic_scheme(A, "refinement", cfg)
        b = refinement_sampling(A, cfg)
        np.testing.assert_array_equal(a.sample.row_indices, b.sample.row_indices)

    def test_sqrt_preset_runs_without_recursion(self):
        n, d = 4096, 16
        A = gaussian_matrix(n, d, 10)
        cfg = SketchConfig(seed=13)
        n1, _ = pl._preset_sizes("sqrt", n, d)
        assert n1 <= pl._base_rows(d)  # no-recursion regime at this size
        r = generic_scheme(A, "sqrt", cfg)
        # one estimation call: 1 factorization + k sketch solves + probes
        expected = 1 + sketch_rows(cfg.resolve_theta(d), cfg) + cfg.kernel_probes
        assert r.solve_count == expected
        assert r.levels_or_iterations == 1

    def test_all_presets_pass_configured_lambda(self):
        n, d = 4096, 16
        A = gaussian_matrix(n, d, 14)
        for preset in ("head", "tail", "refinement", "sqrt"):
            passes = 0
            for seed in range(30):
                cfg = SketchConfig(seed=seed)
                r = generic_scheme(A, preset, cfg)
                rep = spectral_check(A, materialize(A, r.sample), r.check_lambda)
                passes += rep.passes
                r.sample.validate()
                assert r.sample.parent_rows == n
            assert passes >= 27, preset

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            generic_scheme(gaussian_matrix(100, 4, 0), "sideways", SketchConfig())


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
GOLDEN_RUNS = ("halving", "refinement", "input-sparsity", "generic-head",
               "generic-tail", "generic-refinement", "generic-sqrt",
               "final-refinement")
GOLDEN_SEEDS = range(4)


def golden_run(A, run, seed):
    cfg = SketchConfig(seed=seed)
    if run == "halving":
        return repeated_halving(A, cfg)
    if run == "refinement":
        return refinement_sampling(A, cfg)
    if run == "input-sparsity":
        return input_sparsity_sketch(A, 0.5, cfg.epsilon, cfg)
    if run == "final-refinement":
        return final_refinement(A, repeated_halving(A, cfg), 0.5, cfg)
    preset = run.split("-", 1)[1]
    return generic_scheme(A, preset, cfg)


def golden_summary(r):
    """(sha256 prefix of the row indices, rows kept, levels, solves,
    weight sum, estimate history)."""
    digest = hashlib.sha256(r.sample.row_indices.astype("<i8").tobytes()).hexdigest()[:16]
    return (digest, r.rows_kept, r.levels_or_iterations, r.solve_count,
            float(r.sample.weights.sum()), tuple(r.sum_estimates_history))


# Recorded with the golden_run/golden_summary pair above.
GOLDEN = {
    ("gaussian", 0, "halving"): ("a7c32eb9b9fb6a39", 1940, 4, 728, 3147.676611255,
        (89.61910022283, 88.67349681085, 90.81052412464, 89.7384222423)),
    ("gaussian", 0, "refinement"): ("0fc7a475ddc671f1", 3547, 4, 1436, 4342.487697124,
        (8192, 2991.484967172, 1119.854867481, 429.7242691456, 160.0401900675)),
    ("gaussian", 0, "input-sparsity"): ("e7793c0033e662f9", 4037, 6, 1570, 5086.19017131,
        (89.51206996101, 94.54391493535, 82.94356585916, 86.85699626211, 70.903835535, 45.32139175357)),
    ("gaussian", 0, "generic-head"): ("a7c32eb9b9fb6a39", 1940, 4, 728, 3147.676611255,
        (89.61910022283, 88.67349681085, 90.81052412464, 89.7384222423)),
    ("gaussian", 0, "generic-tail"): ("3b4a1d98c4f2b873", 442, 4, 728, 1357.775873219,
        (10126.64328441, 4861.153320517, 2579.381638577, 2280.541511178)),
    ("gaussian", 0, "generic-refinement"): ("0fc7a475ddc671f1", 3547, 4, 1436, 4342.487697124,
        (8192, 2991.484967172, 1119.854867481, 429.7242691456, 160.0401900675)),
    ("gaussian", 0, "generic-sqrt"): ("75e813e1edb355fb", 587, 1, 182, 1691.049083162,
        (629.9794554849,)),
    ("gaussian", 0, "final-refinement"): ("bb216fce78876198", 1423, 1, 182, 2742.615944602,
        (63.87174185001,)),
    ("gaussian", 1, "halving"): ("e55edc88b3b94e8f", 1967, 4, 728, 3271.149715052,
        (86.9793198581, 85.59735448942, 87.45446199918, 87.24337720614)),
    ("gaussian", 1, "refinement"): ("1d8a9fe78912db65", 3185, 4, 1436, 4115.810985755,
        (8192, 3034.990118841, 1113.998219503, 394.9649927607, 141.8766826501)),
    ("gaussian", 1, "input-sparsity"): ("8d381f1c0658d5e8", 3834, 6, 1570, 4929.245206456,
        (90.38511601513, 86.34937280689, 85.56432216692, 90.23296319347, 68.5553715743, 43.18825314996)),
    ("gaussian", 1, "generic-head"): ("e55edc88b3b94e8f", 1967, 4, 728, 3271.149715052,
        (86.9793198581, 85.59735448942, 87.45446199918, 87.24337720614)),
    ("gaussian", 1, "generic-tail"): ("80e6bdc011873fdb", 523, 4, 728, 1641.040520122,
        (9642.915287659, 4570.968441869, 2414.604708088, 1446.438063466)),
    ("gaussian", 1, "generic-refinement"): ("1d8a9fe78912db65", 3185, 4, 1436, 4115.810985755,
        (8192, 3034.990118841, 1113.998219503, 394.9649927607, 141.8766826501)),
    ("gaussian", 1, "generic-sqrt"): ("9b30b16f082e80c2", 606, 1, 182, 1736.595863007,
        (569.971862449,)),
    ("gaussian", 1, "final-refinement"): ("5818cfe4bb7e39ca", 1400, 1, 182, 2765.880727405,
        (60.28652864807,)),
    ("gaussian", 2, "halving"): ("72536f10057325a3", 1866, 4, 728, 3198.503593961,
        (91.48153178447, 87.06198840886, 88.24344074942, 80.77833069158)),
    ("gaussian", 2, "refinement"): ("dc009f79673624f5", 3398, 4, 1436, 4291.145472739,
        (8192, 3000.537790272, 1088.75105356, 412.0594989715, 149.1964372009)),
    ("gaussian", 2, "input-sparsity"): ("6a67cf051fa66b1f", 3735, 6, 1570, 4825.097099587,
        (89.99041141716, 90.07873318729, 88.67844987959, 87.70624209608, 62.74882093731, 42.68769941324)),
    ("gaussian", 2, "generic-head"): ("72536f10057325a3", 1866, 4, 728, 3198.503593961,
        (91.48153178447, 87.06198840886, 88.24344074942, 80.77833069158)),
    ("gaussian", 2, "generic-tail"): ("3c9f0f2e2573157b", 485, 4, 728, 1531.402523436,
        (23410.79320892, 4493.261245697, 4331.013876333, 1481.896530054)),
    ("gaussian", 2, "generic-refinement"): ("dc009f79673624f5", 3398, 4, 1436, 4291.145472739,
        (8192, 3000.537790272, 1088.75105356, 412.0594989715, 149.1964372009)),
    ("gaussian", 2, "generic-sqrt"): ("ff553ff3c06c8b20", 599, 1, 182, 1705.529723502,
        (642.1420499539,)),
    ("gaussian", 2, "final-refinement"): ("5cee466bfd2486bb", 1383, 1, 182, 2639.11289134,
        (65.57172426904,)),
    ("gaussian", 3, "halving"): ("a1a87f5e67691913", 1987, 4, 728, 3300.942649509,
        (87.35854196952, 83.7706785021, 83.63753247952, 87.57224212825)),
    ("gaussian", 3, "refinement"): ("57c7e5e280386991", 3108, 4, 1436, 4046.075350123,
        (8192, 2928.181023091, 1062.771798466, 382.224886145, 139.9375221878)),
    ("gaussian", 3, "input-sparsity"): ("4fb2e6c3c8bad4c6", 3810, 6, 1570, 4929.840694573,
        (85.29085064209, 86.78241865786, 90.91100944026, 86.17814352832, 64.04123183073, 42.86385254733)),
    ("gaussian", 3, "generic-head"): ("a1a87f5e67691913", 1987, 4, 728, 3300.942649509,
        (87.35854196952, 83.7706785021, 83.63753247952, 87.57224212825)),
    ("gaussian", 3, "generic-tail"): ("6bb3e0392f51a7e8", 501, 4, 728, 1556.988154721,
        (12044.29826973, 4237.069673683, 2161.768075521, 1179.334645419)),
    ("gaussian", 3, "generic-refinement"): ("57c7e5e280386991", 3108, 4, 1436, 4046.075350123,
        (8192, 2928.181023091, 1062.771798466, 382.224886145, 139.9375221878)),
    ("gaussian", 3, "generic-sqrt"): ("ccb80b5f33fc4693", 593, 1, 182, 1706.419045552,
        (591.4569330798,)),
    ("gaussian", 3, "final-refinement"): ("869a830408f45c62", 1310, 1, 182, 2584.08971328,
        (61.26959877201,)),
    ("isolated", 0, "halving"): ("40de74c28ec6b47f", 645, 3, 414, 901.5954731519,
        (36.38822068847, 34.14876658374, 40.51899491425)),
    ("isolated", 0, "refinement"): ("9caf80a4d017305e", 1225, 3, 813, 1291.245157253,
        (2048, 644.1370498391, 212.1082802321, 77.44487591304)),
    ("isolated", 0, "input-sparsity"): ("deb39863055b03b1", 1173, 5, 1080, 1334.683854839,
        (42.06854283331, 32.60051750615, 40.62496901469, 24.38309592979, 22.15283806774)),
    ("isolated", 0, "generic-head"): ("40de74c28ec6b47f", 645, 3, 414, 901.5954731519,
        (36.38822068847, 34.14876658374, 40.51899491425)),
    ("isolated", 0, "generic-tail"): ("78894389b735a227", 181, 3, 414, 447.9567944963,
        (5771.465039215, 3338.19476745, 1028.533771823)),
    ("isolated", 0, "generic-refinement"): ("9caf80a4d017305e", 1225, 3, 813, 1291.245157253,
        (2048, 644.1370498391, 212.1082802321, 77.44487591304)),
    ("isolated", 0, "generic-sqrt"): ("dcfbc480b3327016", 189, 1, 138, 475.207810614,
        (255.2559351355,)),
    ("isolated", 0, "final-refinement"): ("81ec29326b5ddbb5", 427, 1, 138, 729.897793313,
        (30.26297988778,)),
    ("isolated", 1, "halving"): ("d7830d60ef2ba48f", 577, 3, 414, 834.2856739067,
        (38.63155828651, 38.0263940498, 37.48494056562)),
    ("isolated", 1, "refinement"): ("2b17e3263ae54cb6", 1079, 3, 813, 1168.165607408,
        (2048, 644.5877632255, 208.7099469951, 68.81930963412)),
    ("isolated", 1, "input-sparsity"): ("b4a3e3672d6b7433", 1130, 5, 1080, 1326.014989215,
        (39.81177152543, 44.4693058106, 44.5316769028, 23.3524282654, 20.98166967922)),
    ("isolated", 1, "generic-head"): ("d7830d60ef2ba48f", 577, 3, 414, 834.2856739067,
        (38.63155828651, 38.0263940498, 37.48494056562)),
    ("isolated", 1, "generic-tail"): ("9199545b614c2667", 216, 3, 414, 505.1581754358,
        (5697.56155956, 1383.192805003, 631.2707580583)),
    ("isolated", 1, "generic-refinement"): ("2b17e3263ae54cb6", 1079, 3, 813, 1168.165607408,
        (2048, 644.5877632255, 208.7099469951, 68.81930963412)),
    ("isolated", 1, "generic-sqrt"): ("33502f1de5b53ea7", 209, 1, 138, 536.0502516017,
        (173.1853133531,)),
    ("isolated", 1, "final-refinement"): ("310577245c68ad04", 517, 1, 138, 852.899626137,
        (31.32497792999,)),
    ("isolated", 2, "halving"): ("46879f79b6283d0a", 627, 3, 414, 907.877587367,
        (37.26104065708, 38.54376968609, 36.92327646899)),
    ("isolated", 2, "refinement"): ("d075e4617394febb", 1125, 3, 813, 1210.286088806,
        (2048, 662.3052182608, 215.071253238, 71.48499012564)),
    ("isolated", 2, "input-sparsity"): ("104c6285b22b6537", 1083, 5, 1080, 1266.738413313,
        (40.50819526769, 40.50191929992, 36.83393193508, 21.41388451077, 22.49192607416)),
    ("isolated", 2, "generic-head"): ("46879f79b6283d0a", 627, 3, 414, 907.877587367,
        (37.26104065708, 38.54376968609, 36.92327646899)),
    ("isolated", 2, "generic-tail"): ("a5815102e0592985", 183, 3, 414, 457.1428080484,
        (8605.988539662, 2769.357679444, 768.6724704793)),
    ("isolated", 2, "generic-refinement"): ("d075e4617394febb", 1125, 3, 813, 1210.286088806,
        (2048, 662.3052182608, 215.071253238, 71.48499012564)),
    ("isolated", 2, "generic-sqrt"): ("175ab35d371db0db", 209, 1, 138, 528.6799329256,
        (211.4710100008,)),
    ("isolated", 2, "final-refinement"): ("e78063cf7e600741", 452, 1, 138, 735.5338196482,
        (31.89410072269,)),
    ("isolated", 3, "halving"): ("9448822f333c5f3f", 640, 3, 414, 914.0704798132,
        (34.08008141336, 37.35553353012, 40.26951813815)),
    ("isolated", 3, "refinement"): ("751f4d97da8070bc", 1089, 3, 813, 1196.209491833,
        (2048, 653.6373930285, 207.8926604059, 67.0280333739)),
    ("isolated", 3, "input-sparsity"): ("837ca1ce690c4533", 1058, 5, 1080, 1226.130479823,
        (40.37141146692, 38.5656963515, 40.27041799973, 21.45861532088, 20.53258535514)),
    ("isolated", 3, "generic-head"): ("9448822f333c5f3f", 640, 3, 414, 914.0704798132,
        (34.08008141336, 37.35553353012, 40.26951813815)),
    ("isolated", 3, "generic-tail"): ("b137f9151a9ff363", 243, 3, 414, 532.4256534756,
        (2408.598425522, 1315.537301994, 600.3883906417)),
    ("isolated", 3, "generic-refinement"): ("751f4d97da8070bc", 1089, 3, 813, 1196.209491833,
        (2048, 653.6373930285, 207.8926604059, 67.0280333739)),
    ("isolated", 3, "generic-sqrt"): ("6e0a3890577d7473", 156, 1, 138, 387.6917200896,
        (201.7038835641,)),
    ("isolated", 3, "final-refinement"): ("1afa8a6f3c6a1130", 454, 1, 138, 762.5316159144,
        (30.7884564485,)),
    ("power-law", 0, "halving"): ("c93649a5f72d6870", 583, 3, 546, 952.5593660637,
        (475.5525001146, 111.0384601721, 619.3152720594)),
    ("power-law", 0, "refinement"): ("48482fbbc28ee1aa", 486, 2, 718, 831.7103611379,
        (4096, 326.5549892338, 68.50578858018)),
    ("power-law", 0, "input-sparsity"): ("62467046fe3bba58", 568, 5, 1256, 1082.766188975,
        (499.2866306354, 615.0061058969, 96.9951829471, 67.80734432007, 43.54021519803)),
    ("power-law", 0, "generic-head"): ("c93649a5f72d6870", 583, 3, 546, 952.5593660637,
        (475.5525001146, 111.0384601721, 619.3152720594)),
    ("power-law", 0, "generic-tail"): ("e4b3b563d6fd0c67", 191, 1, 182, 454.292860062,
        (149044.2603512,)),
    ("power-law", 0, "generic-refinement"): ("48482fbbc28ee1aa", 486, 2, 718, 831.7103611379,
        (4096, 326.5549892338, 68.50578858018)),
    ("power-law", 0, "generic-sqrt"): ("7a73da4be27a5695", 91, 1, 182, 265.9302915383,
        (3188.462156032,)),
    ("power-law", 0, "final-refinement"): ("1e3e9e5d5e7da21b", 299, 1, 182, 571.1725405619,
        (61.83301797048,)),
    ("power-law", 1, "halving"): ("b906b49027bb5125", 475, 3, 546, 814.813943497,
        (175.9694935301, 485.8317374381, 623.6426532554)),
    ("power-law", 1, "refinement"): ("5927a6cb02b9ee65", 457, 2, 718, 759.553048398,
        (4096, 328.2768612698, 68.00778854203)),
    ("power-law", 1, "input-sparsity"): ("6880efcaa4bae26c", 542, 5, 1256, 1011.128903886,
        (450.861444873, 613.0795710777, 628.4941858661, 67.33281018201, 42.59245626893)),
    ("power-law", 1, "generic-head"): ("b906b49027bb5125", 475, 3, 546, 814.813943497,
        (175.9694935301, 485.8317374381, 623.6426532554)),
    ("power-law", 1, "generic-tail"): ("7f3dace7f25f4bf5", 154, 1, 182, 402.9733603602,
        (382862.9567557,)),
    ("power-law", 1, "generic-refinement"): ("5927a6cb02b9ee65", 457, 2, 718, 759.553048398,
        (4096, 328.2768612698, 68.00778854203)),
    ("power-law", 1, "generic-sqrt"): ("5899a90251e96040", 87, 1, 182, 225.3921921747,
        (3823.700523212,)),
    ("power-law", 1, "final-refinement"): ("4f9cab884cfefb1a", 320, 1, 182, 653.1408231921,
        (61.30086221224,)),
    ("power-law", 2, "halving"): ("ad6478082c1c8838", 442, 3, 546, 800.6109405338,
        (541.9185892845, 330.3158683568, 311.7681732119)),
    ("power-law", 2, "refinement"): ("97463fb64f89e374", 458, 2, 718, 798.1751623374,
        (4096, 326.6691732409, 66.74619344764)),
    ("power-law", 2, "input-sparsity"): ("aa53c069e8a55d96", 560, 5, 1256, 978.3860762982,
        (894.4689008433, 236.0424830609, 409.5477150169, 64.0369119826, 43.39164665857)),
    ("power-law", 2, "generic-head"): ("ad6478082c1c8838", 442, 3, 546, 800.6109405338,
        (541.9185892845, 330.3158683568, 311.7681732119)),
    ("power-law", 2, "generic-tail"): ("a2fe8554e2974d73", 161, 1, 182, 338.0128556063,
        (545389.068382,)),
    ("power-law", 2, "generic-refinement"): ("97463fb64f89e374", 458, 2, 718, 798.1751623374,
        (4096, 326.6691732409, 66.74619344764)),
    ("power-law", 2, "generic-sqrt"): ("88f1786646ac762f", 42, 1, 182, 95.15946791731,
        (10986.48056093,)),
    ("power-law", 2, "final-refinement"): ("10f4e427ae6c026a", 316, 1, 182, 590.2053024478,
        (67.87928846106,)),
    ("power-law", 3, "halving"): ("9603945971553915", 451, 3, 546, 835.3837395181,
        (296.4048355341, 292.738755028, 414.2812643139)),
    ("power-law", 3, "refinement"): ("d1a88d64a975a549", 470, 2, 718, 831.0291715983,
        (4096, 320.4022165198, 66.50003798877)),
    ("power-law", 3, "input-sparsity"): ("34870a992f3cb246", 548, 5, 1256, 1012.643470552,
        (1130.986555133, 101.1712753545, 616.6921917734, 63.12125187885, 41.95125774439)),
    ("power-law", 3, "generic-head"): ("9603945971553915", 451, 3, 546, 835.3837395181,
        (296.4048355341, 292.738755028, 414.2812643139)),
    ("power-law", 3, "generic-tail"): ("28cbfd33068beab8", 134, 1, 182, 318.5085142752,
        (390869.10638,)),
    ("power-law", 3, "generic-refinement"): ("d1a88d64a975a549", 470, 2, 718, 831.0291715983,
        (4096, 320.4022165198, 66.50003798877)),
    ("power-law", 3, "generic-sqrt"): ("8b19271afd82a235", 47, 1, 182, 107.588134877,
        (9372.755872637,)),
    ("power-law", 3, "final-refinement"): ("2851fb5956326c34", 329, 1, 182, 661.1633065889,
        (62.60688430584,)),
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
