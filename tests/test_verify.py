"""Spectral certifier, Monte Carlo harness, factorization counts."""

import numpy as np
import pytest

import rowsketch.leverage as leverage
from rowsketch import (SparseRowMatrix, WeightedRowSample,
                       exact_leverage_scores, materialize, monte_carlo,
                       spectral_check, uniform_leverage_estimates)
from rowsketch.sampling import SketchConfig, rng_from

from conftest import (conditioned_matrix, gaussian_matrix,
                      isolated_direction_matrix, oracle_spectral_bounds)


class TestSpectralCheck:
    def test_self_approximation_passes_any_lambda(self):
        # a Gaussian matrix, and criterion 11's matrix at condition 1e6 and
        # 1e8: squaring the latter into a Gram matrix fails at lambda = 1
        for cond, A, slack in ((None, gaussian_matrix(30, 5, 1), 1e-10),
                               (1e6, conditioned_matrix(1e6), 1e-6),
                               (1e8, conditioned_matrix(1e8), 1e-6)):
            for lam in (1.0, 2.0, 100.0):
                rep = spectral_check(A, A, lam)
                assert rep.passes, (cond, lam, rep)
                assert rep.lambda_low == pytest.approx(1.0, abs=slack)
                assert rep.lambda_high == pytest.approx(1.0, abs=slack)

    def test_uniformly_scaled_copy(self):
        A = gaussian_matrix(25, 4, 2)
        half = SparseRowMatrix.from_dense(A.to_dense() / np.sqrt(2.0))
        rep = spectral_check(A, half, 2.0)
        assert rep.passes
        assert rep.lambda_low == pytest.approx(0.5, abs=1e-10)
        assert rep.lambda_high == pytest.approx(0.5, abs=1e-10)
        assert not spectral_check(A, half, 1.8).passes

    def test_missing_isolated_direction_fails_rank_match(self):
        A = isolated_direction_matrix(30, 5, 3)
        dropped = SparseRowMatrix.from_dense(A.to_dense()[:-1])
        for lam in (2.0, 10.0, 1e6):
            rep = spectral_check(A, dropped, lam)
            assert not rep.rank_match
            assert not rep.passes

    def test_bounds_match_dense_whitening_oracle(self, rng):
        A = gaussian_matrix(40, 6, 4)
        S = WeightedRowSample(40, np.sort(rng.choice(40, 25, replace=False)),
                              rng.uniform(0.5, 1.5, 25))
        Atl = materialize(A, S)
        rep = spectral_check(A, Atl, 10.0)
        low, high = oracle_spectral_bounds(A, Atl)
        assert rep.lambda_low == pytest.approx(low, abs=1e-8)
        assert rep.lambda_high == pytest.approx(high, abs=1e-8)

    def test_invariant_under_row_permutation(self, rng):
        A = gaussian_matrix(30, 4, 5)
        Atl = gaussian_matrix(20, 4, 6)
        rep = spectral_check(A, Atl, 5.0)
        perm = SparseRowMatrix.from_dense(Atl.to_dense()[rng.permutation(20)])
        rep2 = spectral_check(A, perm, 5.0)
        assert rep.lambda_low == pytest.approx(rep2.lambda_low, abs=1e-10)
        assert rep.lambda_high == pytest.approx(rep2.lambda_high, abs=1e-10)

    def test_lambda_below_one_rejected(self):
        A = gaussian_matrix(5, 2, 0)
        with pytest.raises(ValueError):
            spectral_check(A, A, 0.5)


class TestMonteCarlo:
    def test_constant_statistic(self):
        res = monte_carlo(lambda seed: (1.0, True), 50, master_seed=1)
        assert res.mean == 1.0 and res.stderr == 0.0 and res.pass_fraction == 1.0

    def test_fair_coin_concentrates(self):
        def coin(seed):
            heads = rng_from(seed, "coin").random() < 0.5
            return float(heads), heads

        res = monte_carlo(coin, 400, master_seed=2)
        assert 0.42 <= res.pass_fraction <= 0.58

    def test_deterministic_given_master_seed(self):
        def stat(seed):
            v = rng_from(seed).random()
            return v, v < 0.9

        a = monte_carlo(stat, 60, master_seed=9)
        b = monte_carlo(stat, 60, master_seed=9)
        assert a == b
        c = monte_carlo(stat, 60, master_seed=10)
        assert a.mean != c.mean

    def test_expectation_experiment_wiring(self):
        # the uniform-estimate expectation experiment runs through the harness
        A = gaussian_matrix(256, 8, 7)

        def stat(seed):
            est = uniform_leverage_estimates(A, 32, SketchConfig(seed=seed))
            total = est.values.sum()
            return total, total <= 256 * 8 / 32
        res = monte_carlo(stat, 50, master_seed=3)
        assert res.mean <= (256 * 8 / 32) * 1.15
        assert res.stderr > 0

    def test_minimum_trials_enforced(self):
        with pytest.raises(ValueError):
            monte_carlo(lambda s: (0.0, True), 10, master_seed=0)


class TestCounters:
    def test_exact_scores_cost_one_factorization(self, monkeypatch):
        A = gaussian_matrix(30, 4, 8)
        calls = []
        factor_gram = leverage.factor_gram
        monkeypatch.setattr(leverage, "factor_gram",
                            lambda B: calls.append(B) or factor_gram(B))
        exact_leverage_scores(A)
        assert len(calls) == 1 and calls[0] is A
