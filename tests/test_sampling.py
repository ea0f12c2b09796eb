"""Randomized samplers: probabilities, determinism, overestimation, and the
uniform-sampling estimators against exact recomputation oracles."""

import numpy as np
import pytest

from rowsketch import (SketchConfig, SparseRowMatrix, WeightedRowSample,
                       exact_leverage_scores, factor_gram, materialize,
                       monte_carlo, refinement_sampling, sample, sampling_probabilities,
                       scaled_sample, sherman_morrison_check, spectral_check,
                       undersample_refine, uniform_leverage_estimates,
                       uniform_no_reweight_estimates)
from rowsketch import sampling
from rowsketch.leverage import ScoreVector
from rowsketch.sampling import log_dim

from conftest import gaussian_matrix, oracle_leverage


class TestSketchConfig:
    def test_defaults_valid(self):
        cfg = SketchConfig()
        assert cfg.seed == 42 and 0 < cfg.epsilon < 1

    @pytest.mark.parametrize("kwargs", [
        dict(epsilon=0.0), dict(epsilon=1.0), dict(c=-1.0), dict(theta=0.0),
        dict(theta=2.0),
    ])
    def test_range_validation(self, kwargs):
        with pytest.raises(ValueError):
            SketchConfig(**kwargs)

    def test_theta_resolution(self):
        assert SketchConfig().resolve_theta(16) == pytest.approx(1 / np.log(16))
        assert SketchConfig(theta=0.5).resolve_theta(16) == 0.5
        assert SketchConfig().resolve_theta(1) == pytest.approx(1 / np.log(2))


class TestSample:
    def test_probability_formula(self):
        u = np.array([0.0, 0.01, 0.5, 3.0])
        p = sampling_probabilities(u, 2.0, 4.0, 16)
        np.testing.assert_allclose(p, np.minimum(1.0, 2.0 * 4.0 * np.log(16) * u))

    def test_saturated_probabilities_keep_everything_at_weight_one(self):
        cfg = SketchConfig(seed=0, c=10.0)
        S = sample(np.ones(40), 1.0, cfg, 16)
        assert len(S) == 40
        np.testing.assert_array_equal(S.weights, np.ones(40))

    def test_zero_scores_empty_sample(self):
        S = sample(np.zeros(25), 1.0, SketchConfig(seed=0), 8)
        assert len(S) == 0

    def test_weights_are_inverse_root_probabilities(self):
        cfg = SketchConfig(seed=5, c=2.0)
        u = np.full(500, 0.05)
        S = sample(u, 1.0, cfg, 8)
        p = sampling_probabilities(u, 1.0, cfg.c, 8)
        np.testing.assert_allclose(S.weights, 1.0 / np.sqrt(p[S.row_indices]))

    def test_determinism_and_salt_independence(self):
        cfg = SketchConfig(seed=33)
        u = np.full(200, 0.1)
        a = sample(u, 1.0, cfg, 8)
        b = sample(u, 1.0, cfg, 8)
        np.testing.assert_array_equal(a.row_indices, b.row_indices)
        np.testing.assert_array_equal(a.weights, b.weights)
        c = sample(u, 1.0, cfg, 8, salt=("other",))
        assert len(c) != len(a) or not np.array_equal(c.row_indices, a.row_indices)

    def test_scores_checked_once(self, monkeypatch):
        checked = []
        real = sampling._finite_scores
        monkeypatch.setattr(sampling, "_finite_scores", lambda u: checked.append(u) or real(u))
        cfg = SketchConfig(seed=9)
        u = np.full(300, 0.02)
        S = sample(u, 1.0, cfg, 8, salt=("once",))
        assert len(checked) == 1
        p = np.minimum(1.0, cfg.c * log_dim(8) * u)
        keep = sampling.rng_from(cfg.seed, "once").random(300) < p
        assert S.row_indices.tobytes() == np.flatnonzero(keep).astype(np.int64).tobytes()
        assert S.weights.tobytes() == (1.0 / np.sqrt(p[keep])).tobytes()
        checked.clear()
        undersample_refine(gaussian_matrix(300, 8, 9), u, 0.5, cfg)
        assert len(checked) == 1

    @pytest.mark.parametrize("rate", [-1.0, np.nan, np.inf], ids=["negative", "nan", "infinite"])
    def test_rate_must_be_nonnegative_and_finite(self, rate):
        # a negative rate gave probabilities below 0, a NaN one an empty
        # sample, an infinite one NaN probabilities for rows scored 0
        u, cfg = np.array([0.5, 0.5, 0.0, 0.25]), SketchConfig(seed=1)
        match = "sampling rate must be nonnegative and finite"
        with pytest.raises(ValueError, match=match):
            sampling_probabilities(u, rate, 2.0, 4)
        with pytest.raises(ValueError, match=match):
            sample(u, rate, cfg, 4)
        with pytest.raises(ValueError, match=match):
            scaled_sample(u, rate, 1.0, cfg, 4)

    @pytest.mark.parametrize("c", [0.0, -2.0, np.nan, np.inf])
    def test_c_must_be_positive_and_finite(self, c):
        # SketchConfig refuses these; a c passed directly gave negative or
        # NaN probabilities
        with pytest.raises(ValueError, match="c must be positive and finite"):
            sampling_probabilities(np.array([0.0, 0.5]), 1.0, c, 4)

    def test_infinite_scores_rejected(self):
        s = ScoreVector(np.array([0.0]), np.array([True]))
        with pytest.raises(ValueError):
            sample(s, 1.0, SketchConfig(), 4)

    def test_expected_size_bound(self):
        # E[|S|] <= alpha * c * log d * ||u||_1; check the mean over seeds
        u = np.full(1000, 0.02)
        cfg0 = SketchConfig()
        bound = 1.0 * cfg0.c * log_dim(8) * u.sum()
        sizes = [len(sample(u, 1.0, SketchConfig(seed=s), 8)) for s in range(50)]
        assert np.mean(sizes) <= bound * 1.05

    def test_sampling_spectral_guarantee(self):
        # exact scores, eps=1/2, c=12: normalized sample passes at lambda=3
        A = gaussian_matrix(200, 8, 11)
        tau = exact_leverage_scores(A)

        def trial(seed):
            cfg = SketchConfig(seed=seed, c=12.0)
            S = sample(tau, 4.0, cfg, 8).scaled(1.0 / np.sqrt(1.5))
            rep = spectral_check(A, materialize(A, S), 3.0)
            return float(rep.passes), rep.passes

        res = monte_carlo(trial, 100, master_seed=7)
        assert res.pass_fraction >= 0.95


class TestScaledSample:
    def test_scale_one_identical_to_sample(self):
        cfg = SketchConfig(seed=9)
        u = np.full(300, 0.05)
        a = sample(u, 0.5, cfg, 8)
        b = scaled_sample(u, 0.5, 1.0, cfg, 8)
        np.testing.assert_array_equal(a.row_indices, b.row_indices)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_weight_arithmetic_at_alpha_one(self):
        cfg = SketchConfig(seed=2)
        u = np.full(100, 0.3)
        scale = np.sqrt(1.0) * np.sqrt(3.0 / 4.0)
        S = scaled_sample(u, 9.0, scale, cfg, 8)
        p = sampling_probabilities(u, 9.0, cfg.c, 8)
        np.testing.assert_allclose(S.weights, scale / np.sqrt(p[S.row_indices]))

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_scale_must_be_positive_and_finite(self, scale):
        # a NaN scale fails every comparison; it must not make NaN weights
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            scaled_sample(np.full(100, 0.5), 1.0, scale, SketchConfig(seed=1), 4)

    def test_gram_domination_with_exact_scores(self):
        # A'S'^2A <= A'A holds in nearly all seeded runs at alpha = 1
        A = gaussian_matrix(300, 8, 1)
        tau = exact_leverage_scores(A)
        white = factor_gram(A).half_pinv()

        def trial(seed):
            S = scaled_sample(tau, 9.0, np.sqrt(0.75), SketchConfig(seed=seed), 8)
            T = materialize(A, S).dot_dense(white)  # whitened sampled rows
            lam_max = np.linalg.eigvalsh(T.T @ T)[-1]
            return lam_max, lam_max <= 1.0 + 1e-8

        res = monte_carlo(trial, 100, master_seed=3)
        assert res.pass_fraction >= 0.95


class TestUniformLeverageEstimates:
    def test_full_sample_recovers_exact_scores(self):
        A = gaussian_matrix(40, 5, 3)
        est = uniform_leverage_estimates(A, 40, SketchConfig(seed=1))
        np.testing.assert_allclose(est.values, exact_leverage_scores(A).values, atol=1e-10)

    def test_identity_matrix_forces_all_ones(self):
        A = SparseRowMatrix.from_dense(np.eye(12))
        est = uniform_leverage_estimates(A, 5, SketchConfig(seed=4))
        np.testing.assert_allclose(est.values, np.ones(12), atol=1e-12)

    def test_estimates_in_unit_interval_and_dominate(self):
        A = gaussian_matrix(256, 8, 6)
        tau = oracle_leverage(A)
        for seed in range(10):
            est = uniform_leverage_estimates(A, 32, SketchConfig(seed=seed))
            assert np.all(est.values >= -1e-12) and np.all(est.values <= 1.0 + 1e-12)
            assert np.all(est.values >= tau - 1e-8)

    def test_expectation_bound_monte_carlo(self):
        n, d, m = 1024, 16, 128
        A = gaussian_matrix(n, d, 7)

        def trial(seed):
            est = uniform_leverage_estimates(A, m, SketchConfig(seed=seed))
            return est.values.sum(), True

        res = monte_carlo(trial, 200, master_seed=77)
        assert res.mean <= (n * d / m) * (1 + 3 / np.sqrt(200))

    def test_m_validation(self):
        A = gaussian_matrix(5, 2, 0)
        for m in (0, 6):
            with pytest.raises(ValueError):
                uniform_leverage_estimates(A, m, SketchConfig())


class TestShermanMorrison:
    def test_identity_orthogonal_new_row(self):
        A = SparseRowMatrix.from_dense(np.eye(3))
        S = WeightedRowSample(3, np.array([0]), np.ones(1))
        closed, direct = sherman_morrison_check(A, S, 1)
        assert closed == pytest.approx(1.0, abs=1e-12)
        assert direct == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_row_gives_half(self):
        A = SparseRowMatrix.from_dense(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        S = WeightedRowSample(3, np.array([0]), np.ones(1))
        closed, direct = sherman_morrison_check(A, S, 1)
        assert closed == pytest.approx(0.5, abs=1e-10)
        assert direct == pytest.approx(0.5, abs=1e-10)

    def test_agreement_on_random_instances(self, rng):
        A = gaussian_matrix(30, 5, 15)
        idx = np.sort(rng.choice(30, size=10, replace=False))
        S = WeightedRowSample(30, idx, np.ones(10))
        outside = [i for i in range(30) if i not in set(idx.tolist())]
        for i in outside:
            closed, direct = sherman_morrison_check(A, S, i)
            assert closed == pytest.approx(direct, abs=1e-8)

    def test_preconditions(self):
        A = gaussian_matrix(5, 2, 0)
        S = WeightedRowSample(5, np.array([0]), np.array([2.0]))
        with pytest.raises(ValueError):
            sherman_morrison_check(A, S, 1)
        S1 = WeightedRowSample(5, np.array([0]), np.ones(1))
        with pytest.raises(ValueError):
            sherman_morrison_check(A, S1, 0)


class TestUndersampleRefine:
    def test_closed_form_when_nothing_dropped(self):
        # all p_i = 1: S'A = sqrt(3 alpha / 4) A, so scores scale by 4/(3 alpha)
        A = gaussian_matrix(60, 6, 8)
        tau = exact_leverage_scores(A).values
        alpha = 0.9
        out = undersample_refine(A, np.ones(60), alpha, SketchConfig(seed=3, c=12.0))
        expected = np.minimum(tau * 4.0 / (3.0 * alpha), 1.0)
        np.testing.assert_allclose(out.values, expected, atol=1e-8)

    def test_exact_scores_at_alpha_one_never_grow(self):
        A = gaussian_matrix(80, 6, 9)
        tau = exact_leverage_scores(A).values
        out = undersample_refine(A, tau, 1.0, SketchConfig(seed=5))
        assert np.all(out.values <= tau + 1e-12)
        assert out.values.sum() <= 6 + 1e-8

    def test_sum_bound_monte_carlo(self):
        n, d = 2048, 16
        A = gaussian_matrix(n, d, 10)
        alpha = 6.0 * d / n

        def trial(seed):
            out = undersample_refine(A, np.ones(n), alpha, SketchConfig(seed=seed))
            total = out.values.sum()
            return total, total <= 3.0 * d / alpha

        res = monte_carlo(trial, 100, master_seed=13)
        assert res.pass_fraction >= 0.95

    def test_monotone_contraction_and_overestimation(self):
        A = gaussian_matrix(512, 8, 12)
        tau = oracle_leverage(A)
        u = np.ones(512)
        for seed in range(5):
            out = undersample_refine(A, u, 0.1, SketchConfig(seed=seed)).values
            assert np.all(out <= u + 1e-12)
            assert np.all(out >= tau - 1e-8)

    def test_undersample_is_the_scaled_sample_at_nine_alpha(self):
        # one operator for undersample_refine and refinement_sampling: the
        # bytes of scaled_sample(u, 9 alpha, sqrt(alpha) sqrt(3/4))
        cfg, u = SketchConfig(seed=8), np.random.default_rng(3).random(400) * 0.1
        for alpha in (0.05, 0.5, 1.0):
            S = sampling._undersample(u, alpha, cfg, 8, ("under", alpha))
            T = scaled_sample(u, 9.0 * alpha, np.sqrt(alpha) * np.sqrt(3.0 / 4.0), cfg, 8,
                              salt=("under", alpha))
            assert S.row_indices.tobytes() == T.row_indices.tobytes()
            assert S.weights.tobytes() == T.weights.tobytes()

    def test_refinement_checks_scores_once_per_run(self, monkeypatch):
        # its rounds undersample scores it made itself; only the final
        # sample goes through the public check
        checked = []
        real = sampling._finite_scores
        monkeypatch.setattr(sampling, "_finite_scores", lambda u: checked.append(u) or real(u))
        r = refinement_sampling(gaussian_matrix(4096, 8, 4), SketchConfig(seed=2))
        assert r.levels_or_iterations > 1
        assert len(checked) == 1

    def test_alpha_validated(self):
        A = gaussian_matrix(4, 2, 0)
        with pytest.raises(ValueError):
            undersample_refine(A, np.ones(4), 0.0, SketchConfig())


class TestUniformNoReweight:
    def test_full_rate_recovers_capped_exact(self):
        A = gaussian_matrix(30, 4, 2)
        est = uniform_no_reweight_estimates(A, 30, SketchConfig(seed=0))
        np.testing.assert_allclose(est.values, exact_leverage_scores(A).values, atol=1e-10)

    def test_empty_draw_gives_all_ones(self):
        A = gaussian_matrix(40, 4, 5)
        # hunt a seed whose Bernoulli(1/40) draw keeps nothing; deterministic
        for seed in range(200):
            cfg = SketchConfig(seed=seed)
            from rowsketch.sampling import rng_from
            draws = rng_from(cfg.seed, "uniform-bernoulli").random(40)
            if not np.any(draws < 1 / 40):
                est = uniform_no_reweight_estimates(A, 1, cfg)
                np.testing.assert_array_equal(est.values, np.ones(40))
                return
        pytest.fail("no empty draw found in 200 seeds")

    def test_overestimation(self):
        A = gaussian_matrix(300, 8, 3)
        tau = oracle_leverage(A)
        for seed in range(10):
            est = uniform_no_reweight_estimates(A, 60, SketchConfig(seed=seed))
            assert np.all(est.values >= tau - 1e-8)
            assert np.all(est.values <= 1.0)

    def test_resampling_gives_spectral_approximation(self):
        n, d = 2048, 16
        A = gaussian_matrix(n, d, 14)
        m = int(64 * np.log2(d))
        bound = 1.25 * 2.0 * 4.0 * log_dim(d) * n * d / m

        def trial(seed):
            cfg = SketchConfig(seed=seed)
            est = uniform_no_reweight_estimates(A, m, cfg)
            S = sample(est, 4.0, cfg, d, salt=("resample",)).scaled(1 / np.sqrt(1.5))
            rep = spectral_check(A, materialize(A, S), 3.0)
            return float(len(S)), rep.passes and len(S) <= bound

        res = monte_carlo(trial, 100, master_seed=15)
        assert res.pass_fraction >= 0.90
