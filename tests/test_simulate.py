"""Priors, samplers, chi-square divergences, calibration, and Monte Carlo
error estimation."""

import math

import numpy as np
import pytest

from covshift import (
    InvalidInputError,
    SignalDomainError,
    UndecidableInputError,
    dyadic_grid,
    loglog8n,
    minimax_lower_bound,
    operator_norm,
    signal_strength_multi,
    signal_strength_uni,
    variance_test,
)
from covshift.simulate import (
    AltDraw,
    PriorSpec,
    calibrate_lambda,
    chisq_cross_term,
    detection_boundary_uni,
    mixture_chisq_multi,
    mixture_chisq_multi_exact,
    mixture_chisq_uni,
    mixture_chisq_uni_proof_bound,
    monte_carlo_errors,
    null_series,
    run_test,
    sample_alternative,
    sample_series,
    variance_shrinkage,
)

# chi-square critical value at level 1e-3 with 7 degrees of freedom
CHI2_CRIT_DF7 = 24.3219


class TestShrinkage:
    def test_branches_meet_at_delta_equals_rho(self):
        assert variance_shrinkage(4, 4.0, 1.0) == pytest.approx(0.5, rel=1e-14)
        assert variance_shrinkage(4, 4.0, 3.0) == pytest.approx(1.5, rel=1e-14)

    def test_exact_rational_values(self):
        k = variance_shrinkage(2, 4.0, 1.0)
        assert k == pytest.approx(2.0 / 3.0, rel=1e-14)
        ratio = k / (1.0 - k)
        assert 2 * min(ratio, ratio**2) == pytest.approx(4.0, rel=1e-12)
        k = variance_shrinkage(4, 1.0, 1.0)
        assert k == pytest.approx(1.0 / 3.0, rel=1e-14)
        ratio = k / (1.0 - k)
        assert 4 * min(ratio, ratio**2) == pytest.approx(1.0, rel=1e-12)

    def test_always_interior(self, rng):
        for _ in range(300):
            d = int(rng.integers(1, 10000))
            rho = float(rng.uniform(1e-4, 1e4))
            s2 = float(rng.uniform(1e-3, 1e3))
            k = variance_shrinkage(d, rho, s2)
            assert 0.0 < k < s2

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            variance_shrinkage(0, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            variance_shrinkage(1, -1.0, 1.0)


class TestPriorDraws:
    def test_uni_draw_reproduces_rho_exactly(self):
        spec = PriorSpec("uni", n=256, p=1, sigma_sq=2.0, rho=7.5)
        for r in range(2000):
            d = sample_alternative(spec, [1, r])
            rho = signal_strength_uni(
                d.delta, spec.n, d.Sigma1[0, 0], d.Sigma2[0, 0]
            )
            assert rho == pytest.approx(spec.rho, rel=1e-12)

    def test_multi_draw_reproduces_rho_exactly(self):
        spec = PriorSpec("multi", n=128, p=6, s=3, sigma_sq=1.5, rho=3.25)
        for r in range(500):
            d = sample_alternative(spec, [2, r])
            rho = signal_strength_multi(d.delta, spec.n, d.Sigma1, d.Sigma2)
            assert rho == pytest.approx(spec.rho, rel=1e-12)

    def test_multi_draw_structure(self):
        spec = PriorSpec("multi", n=64, p=8, s=4, sigma_sq=2.0, rho=1.0)
        for r in range(200):
            d = sample_alternative(spec, [3, r])
            assert np.linalg.norm(d.u) == pytest.approx(1.0, abs=1e-12)
            assert np.count_nonzero(d.u) == 4
            nz = np.abs(d.u[d.u != 0])
            np.testing.assert_allclose(nz, 0.5)
            # rank-one deflation of the identity
            w = np.sort(np.linalg.eigvalsh(d.Sigma1))
            assert w[0] == pytest.approx(spec.sigma_sq - d.kappa, rel=1e-12)
            np.testing.assert_allclose(w[1:], spec.sigma_sq, rtol=1e-12)
            # the drawn direction attains the operator-norm change
            change = float(d.u @ (d.Sigma2 - d.Sigma1) @ d.u)
            assert change == pytest.approx(d.kappa, rel=1e-12)
            assert operator_norm(d.Sigma1 - d.Sigma2) == pytest.approx(
                d.kappa, rel=1e-12
            )

    def test_gap_law_uniform_over_grid(self):
        spec = PriorSpec("uni", n=256, p=1, sigma_sq=1.0, rho=1.0)
        grid = dyadic_grid(256)
        counts = {d: 0 for d in grid}
        reps = 100_000
        for r in range(reps):
            counts[sample_alternative(spec, [4, r]).delta] += 1
        expected = reps / len(grid)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < CHI2_CRIT_DF7  # goodness of fit, p > 0.001 with df=7

    def test_fixed_delta_override(self):
        spec = PriorSpec("uni", n=64, p=1, sigma_sq=1.0, rho=2.0)
        d = sample_alternative(spec, 0, delta=17)
        assert d.delta == 17
        with pytest.raises(InvalidInputError):
            sample_alternative(spec, 0, delta=64)

    def test_fractional_delta_rejected(self):
        spec = PriorSpec("uni", n=64, p=1, sigma_sq=1.0, rho=2.0)
        with pytest.raises(InvalidInputError, match="delta must be an integer"):
            sample_alternative(spec, 0, delta=2.5)

    def test_spec_rejects_non_integer_sizes(self):
        with pytest.raises(InvalidInputError, match="n must be an integer"):
            PriorSpec("uni", n=64.5, p=1, sigma_sq=1.0, rho=2.0)
        with pytest.raises(InvalidInputError, match="s must be an integer"):
            PriorSpec("multi", n=64, p=4, sigma_sq=1.0, rho=2.0, s=2.0)
        with pytest.raises(InvalidInputError, match=r"^n must be >= 2, got 1$"):
            PriorSpec("uni", n=1, p=1, sigma_sq=1.0, rho=2.0)
        with pytest.raises(InvalidInputError, match=r"^p must be >= 1, got 0$"):
            PriorSpec("multi", n=64, p=0, sigma_sq=1.0, rho=2.0)


class TestSampleSeries:
    def test_bit_identical_for_fixed_seed(self):
        spec = PriorSpec("multi", n=64, p=5, s=2, sigma_sq=1.0, rho=2.0)
        draw = sample_alternative(spec, 7)
        a = sample_series(draw, 64, 5, 1234)
        np.random.seed(0)  # global state must be irrelevant
        b = sample_series(draw, 64, 5, 1234)
        assert a.tobytes() == b.tobytes()

    def test_law_of_large_numbers(self):
        spec = PriorSpec("multi", n=100_001, p=4, s=2, sigma_sq=1.0, rho=5.0)
        draw = sample_alternative(spec, 11, delta=100_000)
        X = sample_series(draw, 100_001, 4, 12)
        emp = X[:100_000].T @ X[:100_000] / 100_000
        assert np.abs(emp - draw.Sigma1).max() <= 0.05

    def test_null_series_rejects_fractional_sizes(self):
        with pytest.raises(InvalidInputError, match="n must be an integer"):
            null_series(16.5, 1, 1.0, 0)
        with pytest.raises(InvalidInputError, match="p must be an integer"):
            null_series(16, 2.0, 1.0, 0)

    def test_rank_one_path_matches_target_covariance(self):
        # p > 64 takes the closed rank-one transform instead of Cholesky
        spec = PriorSpec("multi", n=40_001, p=70, s=5, sigma_sq=2.0, rho=4.0)
        draw = sample_alternative(spec, 13, delta=40_000)
        X = sample_series(draw, 40_001, 70, 14)
        emp = X[:40_000].T @ X[:40_000] / 40_000
        assert np.abs(emp - draw.Sigma1).max() <= 0.1

    def test_vanishing_shrinkage_merges_the_laws(self):
        spec = PriorSpec("uni", n=32, p=1, sigma_sq=1.0, rho=1e-12)
        draw = sample_alternative(spec, 15)
        assert draw.Sigma1[0, 0] == pytest.approx(draw.Sigma2[0, 0], rel=1e-5)


def mc_cross_moment_oracle(delta1, delta2, kappa1, kappa2, sigma_sq, u1, u2, reps, seed):
    """Direct Monte Carlo for the likelihood-ratio cross moment: build the
    full covariance matrices and average the density ratio over draws from
    the null. Independent of the closed form."""
    p = u1.size
    n = delta2
    dim = n * p

    def full_cov(delta, kappa, u):
        block = sigma_sq * np.eye(p) - kappa * np.outer(u, u)
        V = sigma_sq * np.eye(dim)
        for j in range(delta):
            V[j * p:(j + 1) * p, j * p:(j + 1) * p] = block
        return V

    V1 = full_cov(delta1, kappa1, u1)
    V2 = full_cov(delta2, kappa2, u2)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((reps, dim)) * math.sqrt(sigma_sq)

    def log_density(V):
        sign, logdet = np.linalg.slogdet(V)
        P = np.linalg.inv(V)
        quad = np.einsum("ri,ij,rj->r", X, P, X)
        return -0.5 * (quad + logdet + dim * math.log(2 * math.pi))

    log0 = -0.5 * (
        (X * X).sum(axis=1) / sigma_sq
        + dim * math.log(2 * math.pi * sigma_sq)
    )
    ratio = np.exp(log_density(V1) + log_density(V2) - 2.0 * log0)
    return float(ratio.mean()), float(ratio.std(ddof=1) / math.sqrt(reps))


class TestChisqCrossTerm:
    def test_orthogonal_directions_give_one(self):
        v = chisq_cross_term(2, 5, 0.3, 0.4, 1.0, 0.0)
        assert v.value == pytest.approx(1.0, rel=1e-14)

    def test_vanishing_shrinkage_gives_one(self):
        v = chisq_cross_term(3, 4, 1e-12, 1e-12, 1.0, 1.0)
        assert v.value == pytest.approx(1.0, rel=1e-9)

    def test_value_below_bound_randomized(self, rng):
        for _ in range(10_000):
            d1 = int(rng.integers(1, 64))
            d2 = int(rng.integers(d1, 128))
            s2 = float(rng.uniform(0.1, 10))
            k1 = float(rng.uniform(0.01, 0.99)) * s2
            k2 = float(rng.uniform(0.01, 0.99)) * s2
            inner = float(rng.uniform(-1, 1))
            v = chisq_cross_term(d1, d2, k1, k2, s2, inner)
            assert v.value <= v.bound * (1 + 1e-12)

    def test_matches_direct_monte_carlo(self, rng):
        for trial in range(3):
            d1 = int(rng.integers(1, 4))
            d2 = int(rng.integers(d1, 6))
            s2 = float(rng.uniform(0.5, 2.0))
            k1 = float(rng.uniform(0.1, 0.5)) * s2
            k2 = float(rng.uniform(0.1, 0.5)) * s2
            u1 = rng.standard_normal(2)
            u1 /= np.linalg.norm(u1)
            u2 = rng.standard_normal(2)
            u2 /= np.linalg.norm(u2)
            inner = float(u1 @ u2)
            closed = chisq_cross_term(d1, d2, k1, k2, s2, inner).value
            est, se = mc_cross_moment_oracle(
                d1, d2, k1, k2, s2, u1, u2, reps=200_000, seed=100 + trial
            )
            assert abs(closed - est) <= 4.0 * se

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            chisq_cross_term(5, 2, 0.1, 0.1, 1.0, 0.5)
        with pytest.raises(SignalDomainError):
            chisq_cross_term(1, 2, 1.5, 0.1, 1.0, 0.5)
        with pytest.raises(InvalidInputError):
            chisq_cross_term(1, 2, 0.1, 0.1, 1.0, 1.5)


class TestMixtureChisq:
    def test_single_pair_hand_formula(self):
        # n=2 has a single grid gap (delta=1), so chi^2 + 1 is one cross
        # term: {(1+a)^2 / (1+2a)}^(1/2)
        rho = 0.5
        k = variance_shrinkage(1, rho, 1.0)
        a = k / (1.0 - k)
        manual = ((1 + a) ** 2 / (1 + 2 * a)) ** 0.5 - 1.0
        assert mixture_chisq_uni(2, 1.0, rho) == pytest.approx(manual, rel=1e-12)

    def test_vanishing_signal(self):
        assert mixture_chisq_uni(1024, 1.0, 1e-10) == pytest.approx(0.0, abs=1e-8)

    def test_monotone_in_rho(self):
        rhos = np.linspace(0.01, 20.0, 60)
        vals = [mixture_chisq_uni(512, 1.0, float(r)) for r in rhos]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_noise_level_cancels(self):
        assert mixture_chisq_uni(64, 1.0, 2.5) == pytest.approx(
            mixture_chisq_uni(64, 7.0, 2.5), rel=1e-12
        )

    def test_exact_below_proof_bound(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 4096))
            rho = float(rng.uniform(0.01, 3.0))
            assert mixture_chisq_uni(n, 1.0, rho) <= (
                mixture_chisq_uni_proof_bound(n, 1.0, rho) + 1e-12
            )

    def test_small_signal_stays_bounded_across_n(self):
        for k in range(4, 17):
            n = 2**k
            chi2 = mixture_chisq_uni(n, 1.0, 0.01 * loglog8n(n))
            assert chi2 <= 1.0

    def test_multi_degenerates_to_uni_at_s_equal_p_one(self):
        # p = s = 1 forces |inner| = 1, so the Monte Carlo is exact
        est, se = mixture_chisq_multi(1, 64, 1, 1.0, 2.0, mc_reps=50, seed=0)
        assert est == pytest.approx(mixture_chisq_uni(64, 1.0, 2.0), rel=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_multi_monte_carlo_matches_exact_enumeration(self):
        for (p, s) in ((4, 2), (10, 3), (6, 1)):
            exact = mixture_chisq_multi_exact(p, 128, s, 1.0, 4.0)
            est, se = mixture_chisq_multi(p, 128, s, 1.0, 4.0, mc_reps=40_000, seed=3)
            assert abs(est - exact) <= 3.0 * max(se, 1e-12)

    def test_sparse_overlap_shrinks_divergence(self):
        # with p >> s^2 the two supports rarely overlap, inner ~ 0, and the
        # divergence drops well below the fully aligned univariate value
        uni = mixture_chisq_uni(128, 1.0, 6.0)
        multi = mixture_chisq_multi_exact(64, 128, 2, 1.0, 6.0)
        assert multi < 0.25 * uni

    def test_exact_rejects_fractional_sparsity(self):
        with pytest.raises(InvalidInputError, match="s must be an integer"):
            mixture_chisq_multi_exact(4, 64, 2.0, 1.0, 2.0)

    def test_monte_carlo_rejects_fractional_counts(self):
        with pytest.raises(InvalidInputError, match="s must be an integer"):
            mixture_chisq_multi(4, 64, 2.5, 1.0, 2.0, mc_reps=1000, seed=0)
        with pytest.raises(InvalidInputError, match="p must be an integer"):
            mixture_chisq_multi(4.0, 64, 2, 1.0, 2.0, mc_reps=1000, seed=0)
        with pytest.raises(InvalidInputError, match="mc_reps must be an integer"):
            mixture_chisq_multi(4, 64, 2, 1.0, 2.0, mc_reps=10.5, seed=0)
        with pytest.raises(InvalidInputError, match=r"^mc_reps must be >= 1, got 0$"):
            mixture_chisq_multi(4, 64, 2, 1.0, 2.0, mc_reps=0, seed=0)
        with pytest.raises(InvalidInputError, match=r"^s must be in \[1, p\]=4, got 0$"):
            mixture_chisq_multi(4, 64, 0, 1.0, 2.0, mc_reps=10, seed=0)


class TestMinimaxLowerBound:
    def test_examples(self):
        assert minimax_lower_bound(0.0) == 1.0
        assert minimax_lower_bound(0.02) == pytest.approx(0.9, rel=1e-12)
        assert minimax_lower_bound(2.0) == pytest.approx(
            0.06766764161830635, rel=1e-12
        )
        with pytest.raises(InvalidInputError):
            minimax_lower_bound(-0.1)

    def test_nonincreasing_and_continuous(self):
        xs = np.linspace(0.0, 4.0, 4001)
        vals = [minimax_lower_bound(float(x)) for x in xs]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        # no jump at the branch crossover (near alpha ~ 1.62); away from 0
        # the slopes of both branches are below 1/2
        xs = np.linspace(0.5, 3.0, 25001)
        vals = np.array([minimax_lower_bound(float(x)) for x in xs])
        assert np.abs(np.diff(vals)).max() <= 0.5 * (xs[1] - xs[0]) + 1e-12


class TestMonteCarloErrors:
    def test_degenerate_tests(self):
        spec = PriorSpec("uni", n=16, p=1, sigma_sq=1.0, rho=1.0)
        out = monte_carlo_errors(lambda X: True, spec, 50, 0)
        assert out.type1 == 1.0 and out.type2 == 0.0
        assert out.se1 == 0.0 and out.se2 == 0.0
        out = monte_carlo_errors(lambda X: False, spec, 50, 0)
        assert out.type1 == 0.0 and out.type2 == 1.0

    def test_failures_are_counted(self):
        spec = PriorSpec("uni", n=16, p=1, sigma_sq=1.0, rho=1.0)
        calls = {"k": 0}

        def flaky(X):
            calls["k"] += 1
            if calls["k"] % 3 == 0:
                raise UndecidableInputError("boom")
            return False

        out = monte_carlo_errors(flaky, spec, 30, 0)
        assert out.failed_null + out.failed_alt == 20
        assert out.type2 < 1.0  # failed alternative replicates are not accepts

    def test_programming_errors_propagate(self):
        spec = PriorSpec("uni", n=64, p=1, sigma_sq=1.0, rho=3.0)

        def broken(X):
            raise TypeError("not a covshift failure")

        with pytest.raises(TypeError, match="not a covshift failure"):
            monte_carlo_errors(broken, spec, 5, 0)

    def test_deterministic_given_seed(self):
        spec = PriorSpec("uni", n=64, p=1, sigma_sq=1.0, rho=4.0)
        test = lambda X: variance_test(X[:, 0], 5.0).reject
        a = monte_carlo_errors(test, spec, 40, 9)
        b = monte_carlo_errors(test, spec, 40, 9)
        assert a == b

    def test_fractional_reps_rejected(self):
        spec = PriorSpec("uni", n=16, p=1, sigma_sq=1.0, rho=1.0)
        with pytest.raises(InvalidInputError, match="reps must be an integer"):
            monte_carlo_errors(lambda X: True, spec, 2.5, 0)
        with pytest.raises(InvalidInputError, match=r"^reps must be >= 1, got 0$"):
            monte_carlo_errors(lambda X: True, spec, 0, 0)

    def test_se_formula(self):
        spec = PriorSpec("uni", n=32, p=1, sigma_sq=1.0, rho=1.0)
        out = monte_carlo_errors(lambda X: variance_test(X[:, 0], 2.0).reject, spec, 80, 3)
        assert out.se1 == pytest.approx(math.sqrt(out.type1 * (1 - out.type1) / 80))
        assert out.se2 == pytest.approx(math.sqrt(out.type2 * (1 - out.type2) / 80))


class TestCalibration:
    def test_quantile_infeasible(self):
        with pytest.raises(InvalidInputError):
            calibrate_lambda("uni", 64, delta=0.01, reps=100, seed=0)

    def test_fractional_reps_rejected(self):
        with pytest.raises(InvalidInputError, match="reps must be an integer"):
            calibrate_lambda("uni", 64, reps=50.5, delta=0.2)

    def test_degenerate_delta_returns_minimum(self):
        lam = calibrate_lambda("uni", 64, delta=1.0, reps=40, seed=5)
        stats = []
        for r in range(40):
            x = null_series(64, 1, 1.0, [5, r, 4])[:, 0]
            rep = variance_test(x, 1.0)
            stats.append(max(c.stat / c.threshold for c in rep.cells))
        assert lam == pytest.approx(min(stats), rel=1e-12)

    def test_monotone_in_delta(self):
        hi = calibrate_lambda("uni", 128, delta=0.05, reps=400, seed=2)
        lo = calibrate_lambda("uni", 128, delta=0.2, reps=400, seed=2)
        assert hi >= lo

    def test_out_of_sample_type_one(self):
        n, delta = 128, 0.1
        lam = calibrate_lambda("uni", n, delta=delta, reps=500, seed=21)
        rej = 0
        for r in range(500):
            x = null_series(n, 1, 1.0, [22, r, 1])[:, 0]
            rej += variance_test(x, lam).reject
        assert 0.06 <= rej / 500 <= 0.14

    def test_oracle_family_requires_s(self):
        with pytest.raises(InvalidInputError):
            calibrate_lambda("oracle", 64, p=4, delta=0.1, reps=100, seed=0)

    def test_multi_families_return_positive(self):
        for fam, kw in (("oracle", {"s": 2}), ("adaptive", {}), ("adaptive_sdp", {})):
            lam = calibrate_lambda(fam, 64, p=4, delta=0.2, reps=60, seed=1, **kw)
            assert lam > 0 and math.isfinite(lam)
            # the same order statistic of the full reports' maxima
            maxima = [
                max(c.stat / c.threshold
                    for c in run_test(fam, null_series(64, 4, 1.0, [1, r, 4]), 1.0, **kw).cells)
                for r in range(60)
            ]
            assert lam == float(np.quantile(maxima, 0.8, method="higher"))


class TestDetectionBoundary:
    def test_boundary_brackets_target_power(self):
        n = 128
        lam = calibrate_lambda("uni", n, delta=0.1, reps=400, seed=31)
        rec = detection_boundary_uni(n, lam, reps=250, seed=31)
        assert rec["bracket"][0] <= rec["rho_star"] <= rec["bracket"][1]
        assert rec["rho_star"] > 0
        # located boundary reproduces the target power to Monte Carlo noise
        from covshift.simulate import _power_uni

        p_star = _power_uni(n, lam, rec["rho_star"], 250, 31)
        assert abs(p_star - 0.5) <= 0.15

    def test_deterministic(self):
        rec1 = detection_boundary_uni(64, 20.0, reps=100, seed=7)
        rec2 = detection_boundary_uni(64, 20.0, reps=100, seed=7)
        assert rec1 == rec2
