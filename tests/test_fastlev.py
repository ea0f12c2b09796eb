"""Generalized score estimates: the exact branch below the sketch size,
isotropy and distortion envelope of the sketch, kernel probes and kernel
flags, and the cost of one estimator call."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rowsketch.fastlev as fastlev
import rowsketch.pipelines as pl
from rowsketch import (SketchConfig, SparseRowMatrix,
                       approx_generalized_leverage, build_projector_sketch,
                       exact_leverage_scores, factor_gram,
                       generalized_leverage_scores, kernel_probe, leverage,
                       scale_rows)
from rowsketch.fastlev import estimate_cost, sketch_rows

from conftest import gaussian_matrix


def recorded_draws(monkeypatch):
    """The (k, n) shape of every fastlev.gaussian_sketch draw, in call order."""
    shapes = []
    real = fastlev.gaussian_sketch

    def recording(k, n, cfg, salt=()):
        shapes.append((k, n))
        return real(k, n, cfg, salt=salt)

    monkeypatch.setattr(fastlev, "gaussian_sketch", recording)
    return shapes


class TestProjectorSketch:
    def test_zero_gaussian_forces_zero_projector(self, monkeypatch):
        B = gaussian_matrix(10, 4, 1)
        k = sketch_rows(0.5, SketchConfig())
        monkeypatch.setattr(fastlev, "gaussian_sketch",
                            lambda kk, n, cfg, salt=(): np.zeros((kk, n)))
        M = build_projector_sketch(factor_gram(B), 0.5, SketchConfig(seed=0))
        assert M.shape == (k, 4)
        np.testing.assert_array_equal(M, np.zeros((k, 4)))

    def test_isotropy_expectation_on_orthonormal_rows(self):
        # E ||M a_i||^2 == tau^B_i; average 1000 seeds within 5%
        d = 6
        B = SparseRowMatrix.from_dense(np.eye(d))
        A = gaussian_matrix(5, d, 3)
        exact = generalized_leverage_scores(A, B).values
        theta = 1.0
        acc = np.zeros(5)
        trials = 1000
        for seed in range(trials):
            M = build_projector_sketch(factor_gram(B), theta, SketchConfig(seed=seed))
            sk = A.dot_dense(M.T)
            acc += np.einsum("ij,ij->i", sk, sk)
        np.testing.assert_allclose(acc / trials, exact, rtol=0.05)

    def test_solves_match_dense_pseudoinverse_application(self):
        B = gaussian_matrix(20, 5, 7)
        theta = 0.5
        cfg = SketchConfig(seed=9)
        M = build_projector_sketch(factor_gram(B), theta, cfg)
        k = sketch_rows(theta, cfg)
        _, sigma, vh = np.linalg.svd(B.to_dense(), full_matrices=False)
        Z = fastlev.gaussian_sketch(k, sigma.size, cfg)
        oracle = (Z @ np.diag(1.0 / sigma) @ vh) / np.sqrt(k)
        np.testing.assert_allclose(M, oracle, atol=1e-8)

    def test_draw_is_k_by_rank_not_k_by_rows(self, monkeypatch):
        # the Gaussian lives in d-space: one estimate against a 5000-row B
        # draws at most k * d entries, never k * n_B; k = 64 rows at theta = 1
        # fall below rank(B) = d = 72, so the estimate takes the sketch
        shapes = recorded_draws(monkeypatch)
        d = 72
        B = gaussian_matrix(5000, d, 4)
        cfg = SketchConfig(seed=1)
        approx_generalized_leverage(B, B, 1.0, cfg)
        k = sketch_rows(1.0, cfg)
        assert len(shapes) == 1
        assert shapes[0][0] * shapes[0][1] <= k * d

    def test_row_count_formula(self):
        cfg = SketchConfig()
        assert cfg.jl_rows_constant == 64.0
        assert sketch_rows(0.5, cfg) == 128
        assert sketch_rows(1.0, cfg) == 64
        with pytest.raises(ValueError):
            sketch_rows(0.0, cfg)


class TestKernelProbe:
    def test_full_column_rank_probes_are_null(self):
        B = gaussian_matrix(30, 5, 2)
        probes, source_norms = kernel_probe(factor_gram(B), 3, SketchConfig(seed=1))
        assert probes.shape == (3, 5) and source_norms.shape == (3,)
        sigma_max = factor_gram(B).singular_values[0]
        for t in range(3):
            z = probes[t]
            bz = np.linalg.norm(B.to_dense() @ z)
            assert bz <= 1e-8 * max(np.linalg.norm(z), 1e-300) * sigma_max + 1e-12

    def test_one_dimensional_kernel_direction(self):
        B = SparseRowMatrix.from_dense(np.array([[0.0, 1.0]]))
        probes, _ = kernel_probe(factor_gram(B), 3, SketchConfig(seed=5))
        for t in range(3):
            z = probes[t]
            # kernel of B is span(e_1): second coordinate vanishes
            assert abs(z[1]) <= 1e-12 * max(abs(z[0]), 1)
            assert abs(z[0]) > 1e-6

    def test_rank_deficient_rows_flagged_with_high_rate(self, rng):
        # rows constructed inside ker(B) flagged by >= 1 of 3 probes, >=99%
        d = 8
        basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
        B = SparseRowMatrix.from_dense(rng.standard_normal((20, d - 2)) @ basis[:, :d - 2].T)
        kernel_rows = basis[:, d - 2:].T  # two rows spanning ker(B)
        A = SparseRowMatrix.from_dense(kernel_rows)
        flagged = 0
        trials = 1000
        for seed in range(trials):
            g = approx_generalized_leverage(A, B, 0.5, SketchConfig(seed=seed))
            flagged += int(g.infinite.all())
        assert flagged / trials >= 0.99

    def test_probe_count_validated(self):
        with pytest.raises(ValueError):
            kernel_probe(factor_gram(gaussian_matrix(4, 2, 0)), 0, SketchConfig())


class TestApproxGeneralized:
    def test_identity_reference_bounds(self):
        d = 8
        ident = SparseRowMatrix.from_dense(np.eye(d))
        est = approx_generalized_leverage(ident, ident, 1.0, SketchConfig(seed=3))
        assert not est.has_infinite
        safety = d ** 1.0
        assert np.all(est.values >= 0)
        assert np.all(est.values <= d * safety)  # exact scores are 1

    def test_kernel_detection(self):
        A = SparseRowMatrix.from_dense(np.array([[1.0, 0.0]]))
        B = SparseRowMatrix.from_dense(np.array([[0.0, 1.0]]))
        est = approx_generalized_leverage(A, B, 0.5, SketchConfig(seed=1))
        assert est.infinite[0]

    def test_envelope_against_exact_oracle(self, rng):
        # B a verified 2-approximation, theta = 1/log2(d): estimates within
        # [tau^B (1 - 1e-8), 3 tau^B] in >= 95/100 seeds
        n, d = 500, 8
        A = gaussian_matrix(n, d, 77)
        theta = 1.0 / np.log2(d)
        ok = 0
        for seed in range(100):
            w = np.sqrt(np.random.default_rng(1000 + seed).uniform(0.5, 1.0, size=n))
            B = scale_rows(A, w)
            exact = generalized_leverage_scores(A, B).values
            est = approx_generalized_leverage(A, B, theta, SketchConfig(seed=seed))
            assert not est.has_infinite
            ok += bool(np.all(est.values >= exact * (1 - 1e-8))
                       and np.all(est.values <= 3.0 * exact))
        assert ok >= 95

    def test_distortion_invariant_d_theta_squared(self):
        # returned <= d^theta * safety * tau^B with safety = d^theta
        A = gaussian_matrix(200, 8, 5)
        theta = 0.5
        cap = (8 ** theta) ** 2
        exact = exact_leverage_scores(A).values
        ok = 0
        for seed in range(100):
            est = approx_generalized_leverage(A, A, theta, SketchConfig(seed=seed))
            ok += bool(np.all(est.values <= cap * exact + 1e-12)
                       and np.all(est.values >= exact - 1e-8))
        assert ok >= 95

    @pytest.mark.parametrize("case", ["full-rank", "rank-deficient", "k-below-d"])
    def test_equals_safety_times_projector_sketch_norms(self, case, rng):
        # d^theta ||M a_i||^2 with M straight from build_projector_sketch,
        # whose k rows fall below rank(B) in every case, so the estimate takes
        # the sketch: k = 128 at theta = 0.5 against d = 140, and k = 64 at
        # theta = 1 against ranks 69 and 70
        d, theta = {"full-rank": (140, 0.5), "rank-deficient": (72, 1.0),
                    "k-below-d": (70, 1.0)}[case]
        cfg = SketchConfig(seed=6)
        A = gaussian_matrix(300, d, 12)
        B = A
        if case == "rank-deficient":
            B = SparseRowMatrix.from_dense(rng.standard_normal((2 * d, d - 3))
                                           @ rng.standard_normal((d - 3, d)))
            A = SparseRowMatrix.from_dense(A.to_dense() @ np.linalg.pinv(B.to_dense())
                                           @ B.to_dense())
        M = build_projector_sketch(factor_gram(B), theta, cfg)
        assert M.shape[0] < factor_gram(B).rank
        sk = A.to_dense() @ M.T
        direct = d ** theta * np.einsum("ij,ij->i", sk, sk)
        est = approx_generalized_leverage(A, B, theta, cfg)
        assert not est.has_infinite
        np.testing.assert_allclose(est.values, direct, rtol=1e-12)

    def test_instrumentation_counts(self, monkeypatch):
        # one factorization plus k + t_probes solves per call
        A = gaussian_matrix(40, 6, 8)
        cfg = SketchConfig(seed=2)
        assert cfg.kernel_probes == 3
        theta = 0.5
        calls = []
        monkeypatch.setattr(fastlev, "factor_gram",
                            lambda B: calls.append(B) or factor_gram(B))
        approx_generalized_leverage(A, A, theta, cfg)
        assert len(calls) == 1 and calls[0] is A
        assert estimate_cost(theta, cfg) == 1 + sketch_rows(theta, cfg) + 3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            approx_generalized_leverage(gaussian_matrix(4, 2, 0),
                                        gaussian_matrix(4, 3, 0), 0.5, SketchConfig())


class TestExactBranch:
    """k >= rank(B): the estimate is d^theta * tau^B bit for bit, with the
    exact flags, and draws no sketch; k < rank(B) draws exactly one."""

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_equals_safety_times_exact_scores(self, monkeypatch, rng, scale):
        # a tall A of rows in a rank-5 subspace, rows off it and zero rows,
        # against a full-rank, a rank-5 and a rank-0 B
        d, theta, cfg = 8, 0.5, SketchConfig(seed=5)
        basis = rng.standard_normal((d, 5))
        dense = rng.standard_normal((leverage._DENSE_MAX_ROWS + 3, 5)) @ basis.T
        dense[::7] += rng.standard_normal((dense[::7].shape[0], d))
        dense[::11] = 0.0
        A = SparseRowMatrix.from_dense(scale * dense)
        references = {
            "full rank": scale * rng.standard_normal((40, d)),
            "rank 5": scale * rng.standard_normal((30, 5)) @ basis.T,
            "rank 0": np.zeros((30, d)),
        }
        shapes = recorded_draws(monkeypatch)
        for name, dense_B in references.items():
            B = SparseRowMatrix.from_dense(dense_B)
            f = factor_gram(B)
            assert sketch_rows(theta, cfg) >= f.rank, name
            exact = generalized_leverage_scores(A, B)
            want = max(d, 2) ** theta * exact.values
            est = approx_generalized_leverage(A, B, theta, cfg, (name,))
            assert est.values.tobytes() == want.tobytes(), name
            assert est.infinite.tobytes() == exact.infinite.tobytes(), name
            assert est.has_infinite == (name != "full rank"), name
        assert shapes == []

    def test_one_draw_only_below_rank(self, monkeypatch):
        # rank(B) = 70: k = 128 at theta = 0.5 scores exactly, k = 64 at
        # theta = 1 draws one 64 x 70 sketch; theta is checked on both
        A = gaussian_matrix(200, 70, 3)
        cfg = SketchConfig(seed=2)
        shapes = recorded_draws(monkeypatch)
        approx_generalized_leverage(A, A, 0.5, cfg)
        assert shapes == []
        approx_generalized_leverage(A, A, 1.0, cfg)
        assert shapes == [(64, 70)]
        zero = SparseRowMatrix.from_dense(np.zeros((3, 70)))
        for B in (A, zero):
            for theta in (0.0, 1.5):
                with pytest.raises(ValueError, match="theta"):
                    approx_generalized_leverage(A, B, theta, cfg)
        assert len(shapes) == 1


class TestFactorReuse:
    """Estimates against one reference share the factor that factor_gram
    keeps on it: each pipeline reference is factored once."""

    def test_input_sparsity_factors_each_reference_once(self, monkeypatch):
        factored, estimates = [], []
        compute = leverage._factor

        def counting_factor(B):
            factored.append(B)
            return compute(B)

        def recording_estimate(A, B, theta, cfg, salt=()):
            estimates.append((B, theta))
            return approx_generalized_leverage(A, B, theta, cfg, salt=salt)

        monkeypatch.setattr(leverage, "_factor", counting_factor)
        monkeypatch.setattr(pl, "approx_generalized_leverage", recording_estimate)
        cfg = SketchConfig(seed=3)
        r = pl.input_sparsity_sketch(gaussian_matrix(8192, 8, 2), 0.5, 0.5, cfg)
        # the list keeps every reference alive, so ids are distinct
        references = {id(B) for B, _ in estimates}
        assert len(estimates) > len(references) > 1  # coarse/fine and stage 2 share
        assert sorted(id(B) for B in factored) == sorted(references)
        assert r.solve_count == sum(estimate_cost(theta, cfg) for _, theta in estimates)


class TestProbesOnlyForKernel:
    """The estimator draws no kernel probes: its flags come from the exact
    basis of ker(B), so they equal those of generalized_leverage_scores.
    The probe rule, where it is written out below, is an independent check
    of them."""

    @staticmethod
    def counted_probes(monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return kernel_probe(*args, **kwargs)

        monkeypatch.setattr(fastlev, "kernel_probe", counting)
        return calls

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_full_rank_reference_draws_no_probe(self, monkeypatch, rng, scale):
        # byte for byte the with-probes formula over all rows at once (see
        # TestRowBlocks::test_blocked_sketch_matches_whole_matrix_formula),
        # whose flags all read false against a B of full column rank; k = 64
        # rows at theta = 1 fall below d = 72, so the estimate takes the sketch
        d, theta, salt, cfg = 72, 1.0, ("full",), SketchConfig(seed=6)
        dense = scale * rng.standard_normal((leverage._DENSE_MAX_ROWS + 3, d))
        dense[::11] = 0.0
        A = SparseRowMatrix.from_dense(dense)
        B = SparseRowMatrix.from_dense(scale * rng.standard_normal((2 * d, d)))
        f = factor_gram(B)
        assert f.rank == d
        M = build_projector_sketch(f, theta, cfg, salt=salt)
        probes, source_norms = kernel_probe(f, cfg.kernel_probes, cfg, salt=salt)
        sketched = A.dot_dense(M.T)
        vals = d ** theta * np.einsum("ij,ij->i", sketched, sketched)
        dots = np.linalg.norm(A.dot_dense(probes.T / source_norms), axis=1)
        assert not (dots > leverage.KERNEL_TOL * np.linalg.norm(dense, axis=1)).any()
        calls = self.counted_probes(monkeypatch)
        est = approx_generalized_leverage(A, B, theta, cfg, salt=salt)
        assert calls == []
        assert not est.has_infinite
        assert est.values.tobytes() == vals.tobytes()

    @staticmethod
    def refused_probes(monkeypatch):
        calls = []

        def refusing(*args, **kwargs):
            calls.append(args)
            raise AssertionError("the estimator drew kernel probes")

        monkeypatch.setattr(fastlev, "kernel_probe", refusing)
        return calls

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_flags_are_the_exact_rule_without_probes(self, monkeypatch, rng, scale):
        # the flags of generalized_leverage_scores byte for byte, drawing no
        # probe, for a tall A against a rank-deficient B and a rank-0 B;
        # zero rows are never flagged, and a rank-0 B flags every other row
        d, theta, cfg = 8, 0.5, SketchConfig(seed=6)
        basis = rng.standard_normal((d, 5))
        dense = rng.standard_normal((leverage._DENSE_MAX_ROWS + 3, 5)) @ basis.T
        dense[::7] += rng.standard_normal((dense[::7].shape[0], d))
        dense[::11] = 0.0
        A = SparseRowMatrix.from_dense(scale * dense)
        nonzero = np.abs(dense).max(axis=1) > 0
        references = {
            "rank 5": SparseRowMatrix.from_dense(scale * rng.standard_normal((30, 5)) @ basis.T),
            "rank 0": SparseRowMatrix.from_dense(np.zeros((30, d))),
        }
        calls = self.refused_probes(monkeypatch)
        for name, B in references.items():
            est = approx_generalized_leverage(A, B, theta, cfg, salt=(name,))
            exact = generalized_leverage_scores(A, B)
            assert est.infinite.tobytes() == exact.infinite.tobytes(), name
            assert not est.infinite[~nonzero].any(), name
            if name == "rank 0":
                assert est.infinite.tobytes() == nonzero.tobytes()
            else:
                assert 0 < est.infinite.sum() < nonzero.sum()
        assert calls == []

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(d=st.integers(1, 8) | st.just(70), rank=st.integers(0, 7) | st.integers(64, 69),
           n=st.integers(0, 40),
           seed=st.integers(0, 2 ** 32 - 1), exponent=st.integers(-150, 150),
           theta=st.sampled_from([0.3, 0.5, 1.0]))
    def test_sketched_flags_equal_exact_flags_property(self, d, rank, n, seed, exponent, theta):
        """Against a reference of rank below d, with duplicate rows: A mixes
        rows in B's row space, rows that lean into ker(B) by 1e-10 to 1 of
        their size (across the KERNEL_TOL = 1e-8 cut), duplicates and zero
        rows, at scales 1e-150 to 1e150; at d = 70 and theta = 1 the sketch
        has fewer rows than d, and ranks 65 to 69 take the sketch's branch."""
        rank = min(rank, d - 1)
        rng = np.random.default_rng(seed)
        scale = 10.0 ** exponent
        basis = rng.standard_normal((d, rank))
        B = rng.standard_normal((max(rank, 1) + 3, rank)) @ basis.T
        B = np.vstack([B, B[:2]])
        rows = rng.standard_normal((n, rank)) @ basis.T
        lean = rng.random(n) < 0.5
        rows[lean] += (10.0 ** rng.uniform(-10, 0, size=(lean.sum(), 1))
                       * rng.standard_normal((lean.sum(), d)))
        rows[rng.random(n) < 0.2] = 0.0
        if n > 2:
            rows[-1] = rows[0]
        A = SparseRowMatrix.from_dense(scale * rows)
        Bm = SparseRowMatrix.from_dense(scale * B)
        est = approx_generalized_leverage(A, Bm, theta, SketchConfig(seed=seed % 1000))
        exact = generalized_leverage_scores(A, Bm)
        assert est.infinite.tobytes() == exact.infinite.tobytes()
