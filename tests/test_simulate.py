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
from covshift import simulate
from covshift.simulate import (
    FAMILIES,
    AltDraw,
    PriorSpec,
    calibrate_lambda,
    chisq_cross_term,
    detection_boundary_uni,
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


@pytest.mark.parametrize("call, name", [
    (lambda: PriorSpec("uni", 64, 1, 1.0, math.inf), "rho"),
    (lambda: PriorSpec("uni", 64, 1, math.inf, 1.0), "sigma_sq"),
    (lambda: null_series(4, 1, math.inf, 0), "sigma_sq"),
    (lambda: variance_shrinkage(4, math.inf, 1.0), "rho"),
    (lambda: variance_shrinkage(4, 1.0, math.inf), "sigma_sq"),
])
def test_infinite_level_or_signal_rejected(call, name):
    # an infinite rho gave Sigma1 = [[nan]], an infinite sigma_sq a panel of +-inf
    with pytest.raises(InvalidInputError, match=rf"^{name} must be positive and finite, got inf$"):
        call()


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
            kappa = variance_shrinkage(d.delta, spec.rho, spec.sigma_sq)
            w = np.sort(np.linalg.eigvalsh(d.Sigma1))
            assert w[0] == pytest.approx(spec.sigma_sq - kappa, rel=1e-12)
            np.testing.assert_allclose(w[1:], spec.sigma_sq, rtol=1e-12)
            # the drawn direction attains the operator-norm change
            change = float(d.u @ (d.Sigma2 - d.Sigma1) @ d.u)
            assert change == pytest.approx(kappa, rel=1e-12)
            assert operator_norm(d.Sigma1 - d.Sigma2) == pytest.approx(kappa, rel=1e-12)

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

    def test_gap_equals_the_bit_length_rule(self):
        # Reference: 2**l with l drawn by the same generator call from
        # range((n // 2).bit_length()), written without dyadic_grid.
        for n in (2, 3, 4, 5, 7, 8, 63, 64, 65, 1000, 4096):
            for kind, p, s in (("uni", 1, 1), ("multi", 5, 2)):
                spec = PriorSpec(kind, n=n, p=p, sigma_sq=1.0, rho=2.0, s=s)
                for r in range(60):
                    lmax = (n // 2).bit_length() - 1
                    want = 1 << int(simulate._rng([6, r]).integers(0, lmax + 1))
                    delta = sample_alternative(spec, [6, r]).delta
                    assert delta == want and type(delta) is int

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
        # the rank-one spike's law at p > 64, sampled through Sigma1 as at
        # every p
        spec = PriorSpec("multi", n=40_001, p=70, s=5, sigma_sq=2.0, rho=4.0)
        draw = sample_alternative(spec, 13, delta=40_000)
        X = sample_series(draw, 40_001, 70, 14)
        emp = X[:40_000].T @ X[:40_000] / 40_000
        assert np.abs(emp - draw.Sigma1).max() <= 0.1

    def test_rows_are_cholesky_factors_at_every_p(self):
        for p, s in ((1, 1), (5, 2), (64, 8), (65, 4), (65, 65)):
            kind = "uni" if p == 1 else "multi"
            spec = PriorSpec(kind, n=40, p=p, s=s, sigma_sq=1.5, rho=6.0)
            draw = sample_alternative(spec, [8, p])
            X = sample_series(draw, 40, p, [8, p, 1])
            Z = simulate._rng([8, p, 1]).standard_normal((40, p))
            d = draw.delta
            assert X[:d].tobytes() == (Z[:d] @ np.linalg.cholesky(draw.Sigma1).T).tobytes()
            assert X[d:].tobytes() == (Z[d:] @ np.linalg.cholesky(draw.Sigma2).T).tobytes()

    def test_sizes_must_be_integers(self):
        draw = sample_alternative(PriorSpec("multi", n=16, p=3, sigma_sq=1.0, rho=2.0), 0)
        with pytest.raises(InvalidInputError, match="n must be an integer"):
            sample_series(draw, 16.0, 3, 0)
        with pytest.raises(InvalidInputError, match="p must be an integer"):
            sample_series(draw, 16, 3.0, 0)

    def test_null_series_rejects_nonpositive_variance(self):
        for sigma_sq in (-1.0, 0.0, math.nan):
            with pytest.raises(InvalidInputError, match="sigma_sq must be positive"):
                null_series(16, 1, sigma_sq, 0)

    def test_negative_seed_rejected(self):
        for seed in (-3, [1, -3], [np.int64(-1)], [1, 2.5], 2.5, ["a"]):
            with pytest.raises(InvalidInputError, match="seed must be a nonnegative integer"):
                null_series(16, 1, 1.0, seed)
        with pytest.raises(InvalidInputError, match=r"got \[-1, 0, 4\] \(expected non-negative"):
            calibrate_lambda("uni", 64, reps=50, seed=-1)
        # a sequence seed may nest, as monte_carlo_errors' [seed, r, stream] does
        spec = PriorSpec("uni", n=16, p=1, sigma_sq=1.0, rho=2.0)
        assert monte_carlo_errors(lambda X: False, spec, 3, [3, 9]).reps == 3

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


def reference_pairs(n, sigma_sq, rho):
    """Every ordered pair of grid gaps, sorted within the pair, with its
    shrinkages."""
    deltas = dyadic_grid(n)
    kappas = {d: variance_shrinkage(d, rho, sigma_sq) for d in deltas}
    return [(min(di, dj), max(di, dj), kappas[min(di, dj)], kappas[max(di, dj)])
            for di in deltas for dj in deltas]


def reference_uni(n, sigma_sq, rho):
    """The univariate mixture chi-square as a loop of scalar cross terms."""
    pairs = reference_pairs(n, sigma_sq, rho)
    total = 0.0
    for d1, d2, k1, k2 in pairs:
        total += chisq_cross_term(d1, d2, k1, k2, sigma_sq, 1.0).value
    return total / len(pairs) - 1.0


def reference_pair_mean(n, sigma_sq, rho, inner):
    """Mean cross term over grid pairs, vectorized over an array of inner
    products, with the closed form written out pair by pair."""
    inner = np.asarray(inner, dtype=float)
    pairs = reference_pairs(n, sigma_sq, rho)
    acc = np.zeros_like(inner)
    for d1, d2, k1, k2 in pairs:
        a1 = k1 / (sigma_sq - k1)
        a2 = k2 / (sigma_sq - k2)
        num = (1.0 + a1) * (1.0 + a2)
        den = 1.0 + a1 + a2 + a1 * a2 * (1.0 - inner * inner)
        acc += np.exp(0.5 * d1 * np.log(num / den))
    return acc / len(pairs)


def reference_multi_exact(p, n, s, sigma_sq, rho):
    """The multivariate mixture chi-square, one pair mean per overlap
    ``h`` and sign agreement count ``k``."""
    value = 0.0
    for h in range(s + 1):
        p_h = math.comb(s, h) * math.comb(p - s, s - h) / math.comb(p, s)
        if p_h == 0.0:
            continue
        for k in range(h + 1):
            p_g = math.comb(h, k) / 2.0 ** h
            inner = (2.0 * k - h) / s
            value += p_h * p_g * float(reference_pair_mean(n, sigma_sq, rho, inner))
    return value - 1.0


def sampled_multi_chisq(p, n, s, sigma_sq, rho, reps, seed):
    """Monte Carlo over the overlap of the two sparse directions: a +-1
    walk stopped at a Hypergeometric(p, s, s) step count. Returns
    ``(estimate, standard_error)``."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed])))
    h = rng.hypergeometric(ngood=s, nbad=p - s, nsample=s, size=reps)
    g = 2.0 * rng.binomial(h, 0.5) - h
    values = reference_pair_mean(n, sigma_sq, rho, g / s)
    return float(values.mean()) - 1.0, float(values.std(ddof=1) / math.sqrt(reps))


def assert_close(value, reference):
    if abs(reference) < 1e-3:
        assert value == pytest.approx(reference, rel=0, abs=1e-14)
    else:
        assert value == pytest.approx(reference, rel=1e-12)


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
        # p = s = 1 forces |inner| = 1, the univariate alignment
        for n, sigma_sq, rho in ((2, 1.0, 0.5), (64, 1.0, 2.0), (1024, 7.0, 6.0)):
            assert mixture_chisq_multi_exact(1, n, 1, sigma_sq, rho) == (
                mixture_chisq_uni(n, sigma_sq, rho)
            )

    def test_multi_monte_carlo_matches_exact_enumeration(self):
        for (p, s) in ((4, 2), (10, 3), (6, 1)):
            exact = mixture_chisq_multi_exact(p, 128, s, 1.0, 4.0)
            est, se = sampled_multi_chisq(p, 128, s, 1.0, 4.0, reps=40_000, seed=3)
            assert abs(est - exact) <= 3.0 * max(se, 1e-12)

    def test_matches_pinned_references(self):
        for n in (2, 3, 64, 1024, 2**20):
            for rho in (1e-10, 0.5, 6.0):
                for sigma_sq in (0.3, 1.0, 7.0):
                    assert_close(mixture_chisq_uni(n, sigma_sq, rho),
                                 reference_uni(n, sigma_sq, rho))
                    for p, s in ((1, 1), (4, 2), (10, 3), (16, 8)):
                        assert_close(mixture_chisq_multi_exact(p, n, s, sigma_sq, rho),
                                     reference_multi_exact(p, n, s, sigma_sq, rho))

    def test_overflow_gives_inf(self):
        # at p = s the overlap law skips every other |g|; those impossible
        # inner products also overflow and must not turn inf into nan
        for p in (1, 2, 3):
            assert mixture_chisq_multi_exact(p, 2**20, min(p, 2), 1.0, 1e4) == math.inf
        assert mixture_chisq_uni(2**20, 1.0, 1e4) == math.inf

    def test_sparse_overlap_shrinks_divergence(self):
        # with p >> s^2 the two supports rarely overlap, inner ~ 0, and the
        # divergence drops well below the fully aligned univariate value
        uni = mixture_chisq_uni(128, 1.0, 6.0)
        multi = mixture_chisq_multi_exact(64, 128, 2, 1.0, 6.0)
        assert multi < 0.25 * uni

    def test_proof_bound_overflow_gives_inf(self):
        exact = mixture_chisq_uni(64, 1.0, 2000.0)
        assert math.isfinite(exact)
        assert mixture_chisq_uni_proof_bound(64, 1.0, 2000.0) == math.inf >= exact

    def test_exact_finite_for_sparsity_beyond_1023(self):
        # 2.0 ** s overflows a float from s = 1024 on
        for s in (1024, 1030):
            assert math.isfinite(mixture_chisq_multi_exact(s, 64, s, 1.0, 1.0))

    def test_exact_rejects_fractional_sparsity(self):
        with pytest.raises(InvalidInputError, match="s must be an integer"):
            mixture_chisq_multi_exact(4, 64, 2.0, 1.0, 2.0)
        with pytest.raises(InvalidInputError, match="p must be an integer"):
            mixture_chisq_multi_exact(4.0, 64, 2, 1.0, 2.0)
        with pytest.raises(InvalidInputError, match=r"^s must be >= 1, got 0$"):
            mixture_chisq_multi_exact(4, 64, 0, 1.0, 2.0)
        with pytest.raises(InvalidInputError, match=r"^s must be in \[1, p\]=4, got 5$"):
            mixture_chisq_multi_exact(4, 64, 5, 1.0, 2.0)


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

    def test_seed_recorded_as_given(self):
        spec = PriorSpec("uni", n=64, p=1, sigma_sq=1.0, rho=4.0)
        test = lambda X: variance_test(X[:, 0], 5.0).reject
        recorded = {}
        for seed in (9, np.int64(9), [3, 9], (3, 10), np.array([3, 9])):
            out = monte_carlo_errors(test, spec, 40, seed)
            assert monte_carlo_errors(test, spec, 40, out.seed) == out
            recorded[out.seed] = type(out.seed)  # a record is hashable
        assert recorded == {9: int, (3, 9): tuple, (3, 10): tuple}

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

    def test_uni_family_requires_p_one(self):
        # the univariate test's own rule, raised on the first null replicate
        with pytest.raises(InvalidInputError, match=r"^univariate test requires p=1, got p=4$"):
            calibrate_lambda("uni", 64, p=4, reps=50)

    def test_reps_none_rejected(self):
        with pytest.raises(InvalidInputError, match=r"^reps must be an integer, got None$"):
            calibrate_lambda("uni", 64, reps=None)

    def test_non_number_delta_rejected(self):
        with pytest.raises(InvalidInputError, match=r"^delta must lie in \(0, 1\], got a$"):
            calibrate_lambda("uni", 64, delta="a")

    @pytest.mark.parametrize("family", ["bogus", ["uni"]])
    def test_unknown_family_rejected(self, family):
        message = r"^unknown test family .* choose from \('uni', 'oracle'"
        with pytest.raises(InvalidInputError, match=message):
            run_test(family, np.ones(8), 1.0)
        with pytest.raises(InvalidInputError, match=message):
            calibrate_lambda(family, 64, reps=50)

    def test_multi_families_return_positive(self):
        for fam, p, kw in (("uni", 1, {}), ("oracle", 4, {"s": 2}), ("adaptive", 4, {}),
                           ("adaptive_sdp", 4, {})):
            lam = calibrate_lambda(fam, 64, p=p, delta=0.2, reps=60, seed=1, **kw)
            assert lam > 0 and math.isfinite(lam)
            # the same order statistic of the full reports' maxima
            maxima = [
                max(c.stat / c.threshold
                    for c in run_test(fam, null_series(64, p, 1.0, [1, r, 4]), 1.0, **kw).cells)
                for r in range(60)
            ]
            assert lam == float(np.quantile(maxima, 0.8, method="higher"))


    def test_every_family_calibrates_through_run_test(self, monkeypatch):
        calls = []

        def counting(family, X, lam, **kwargs):
            calls.append(family)
            return run_test(family, X, lam, **kwargs)

        monkeypatch.setattr(simulate, "run_test", counting)
        for fam, p, kw in (("uni", 1, {}), ("oracle", 4, {"s": 2}), ("adaptive", 4, {}),
                           ("adaptive_sdp", 4, {})):
            calibrate_lambda(fam, 64, p=p, delta=1.0, reps=5, seed=1, **kw)
        assert calls == [f for f in FAMILIES for _ in range(5)]


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

    def test_power_estimate_count(self, monkeypatch):
        # one estimate at the bracket's upper end, one per fourfold
        # expansion of it, and one per bisection step (12)
        power_uni = simulate._power_uni
        for lam, expansions in ((2.0, 0), (20.0, 1), (200.0, 3)):
            rhos = []

            def counting(n, lam, rho, reps, seed):
                rhos.append(rho)
                return power_uni(n, lam, rho, reps, seed)

            monkeypatch.setattr(simulate, "_power_uni", counting)
            rec = detection_boundary_uni(64, lam, reps=40, seed=3)
            base = loglog8n(64)
            assert rhos[:expansions + 1] == [4.0 ** (k + 1) * base for k in range(expansions + 1)]
            assert len(rhos) == 13 + expansions
            assert rec["target"] == 0.5

    def test_bad_reps_rejected(self):
        with pytest.raises(InvalidInputError, match=r"^reps must be >= 1, got 0$"):
            detection_boundary_uni(64, 2.0, reps=0)
        with pytest.raises(InvalidInputError, match="reps must be an integer"):
            detection_boundary_uni(64, 2.0, reps=2.5)

    def test_power_never_reached_is_invalid_input(self):
        with pytest.raises(InvalidInputError, match="power never reached 0.5"):
            detection_boundary_uni(64, 1e9, reps=10)

    def test_deterministic(self):
        rec1 = detection_boundary_uni(64, 20.0, reps=100, seed=7)
        rec2 = detection_boundary_uni(64, 20.0, reps=100, seed=7)
        assert rec1 == rec2
