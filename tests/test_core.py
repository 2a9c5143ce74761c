"""Grids, rates, moments, and signal strengths."""

import math

import numpy as np
import pytest

from covshift import (
    CovarianceScan,
    InvalidInputError,
    SignalDomainError,
    dyadic_grid,
    loglog8n,
    scan_rate,
    scan_rate_relaxed,
    signal_strength_multi,
    signal_strength_uni,
    sparsity_grid,
    minimax_rate,
)
from covshift.core import sym_matrix

from conftest import rand_psd, rand_sym

# Frozen by arbitrary-precision evaluation (mpmath, 40 digits).
LNLN16 = 1.0197814405382263
LNLN8000 = 2.1958009890330584


class TestGrids:
    def test_dyadic_examples(self):
        assert dyadic_grid(2) == [1]
        assert dyadic_grid(16) == [1, 2, 4, 8]
        assert dyadic_grid(17) == [1, 2, 4, 8]

    def test_dyadic_rejects_small_n(self):
        with pytest.raises(InvalidInputError):
            dyadic_grid(1)

    def test_dyadic_max_at_most_half(self):
        for n in range(2, 2000):
            grid = dyadic_grid(n)
            assert grid == sorted(set(grid))
            assert 2 * grid[-1] <= n

    def test_dyadic_covers_every_location(self):
        # for every t0 <= n/2 some grid element lies in [t0/2, t0]
        for n in range(2, 4097):
            grid = set(dyadic_grid(n))
            t0s = np.arange(1, n // 2 + 1)
            pow2 = 1 << (np.floor(np.log2(t0s)).astype(int))
            assert np.all(pow2 * 2 > t0s)
            assert all(int(v) in grid for v in np.unique(pow2))

    def test_sparsity_examples(self):
        assert sparsity_grid(1) == [1]
        assert sparsity_grid(10) == [1, 2, 4, 8]
        assert sparsity_grid(8) == [1, 2, 4, 8]
        with pytest.raises(InvalidInputError):
            sparsity_grid(0)


class TestRates:
    def test_loglog8n_frozen_values(self):
        assert loglog8n(2) == pytest.approx(LNLN16, rel=1e-14)
        assert loglog8n(1000) == pytest.approx(LNLN8000, rel=1e-14)
        with pytest.raises(InvalidInputError):
            loglog8n(1)

    def test_loglog8n_increasing(self):
        vals = [loglog8n(n) for n in range(2, 500)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[0] > 1.0

    def test_testing_rate_examples(self):
        # s = p makes the log factor exactly s
        assert minimax_rate(4, 16, 4) == pytest.approx(4.0, rel=1e-14)
        assert minimax_rate(8, 2, 2) == pytest.approx(4.772588722239781, rel=1e-12)
        assert minimax_rate(1, 2, 1) == pytest.approx(LNLN16, rel=1e-12)
        with pytest.raises(InvalidInputError):
            minimax_rate(4, 16, 5)
        with pytest.raises(InvalidInputError):
            minimax_rate(4, 16, 0)

    def test_scan_rate_hand_values(self):
        # p=s=4, n=16 gives g=4 exactly
        assert scan_rate(4, 16, 4, 16) == pytest.approx(0.5, rel=1e-14)
        assert scan_rate(4, 16, 4, 1) == pytest.approx(4.0, rel=1e-14)
        assert scan_rate(4, 16, 4, 4) == pytest.approx(1.0, rel=1e-14)
        with pytest.raises(InvalidInputError):
            scan_rate(4, 16, 4, 0)

    def test_scan_rate_relaxed_matches_formula(self, rng):
        for _ in range(200):
            p = int(rng.integers(1, 30))
            n = int(rng.integers(2, 10000))
            s = int(rng.integers(1, p + 1))
            t = int(rng.integers(1, 512))
            ell = max(math.log(math.e * p), math.log(math.log(8 * n)))
            expect = s * max(math.sqrt(ell / t), ell / t)
            assert scan_rate_relaxed(p, n, s, t) == pytest.approx(expect, rel=1e-13)

    def test_rates_bit_for_bit(self):
        # each rate written out in full, independently of the shared shape
        def exact(p, n, s, t):
            g = max(s * math.log(math.e * p / s), math.log(math.log(8.0 * n)))
            return max(math.sqrt(g / t), g / t)

        def relaxed(p, n, s, t):
            ell = max(math.log(math.e * p), math.log(math.log(8.0 * n)))
            return s * max(math.sqrt(ell / t), ell / t)

        for p in (1, 2, 3, 5, 8, 13, 16, 33, 64, 100):
            for n in (2, 3, 16, 100, 1000, 8192, 10**6):
                for t in (1, 2, 3, 7, 16, 100, 1000, 4096):
                    for s in range(1, p + 1):
                        assert scan_rate(p, n, s, t) == exact(p, n, s, t)
                        assert scan_rate_relaxed(p, n, s, t) == relaxed(p, n, s, t)

    def test_relaxed_rate_s1_matches_exact_form(self):
        # at s=1 the relaxed rate is the plain rate with log(e*p) in place
        # of s*log(ep/s); the two coincide since both equal log(e*p)
        for p in (1, 3, 8):
            for t in (1, 4, 64):
                assert scan_rate_relaxed(p, 300, 1, t) == pytest.approx(
                    scan_rate(p, 300, 1, t), rel=1e-13
                )

    def test_relaxed_dominates_exact(self, rng):
        for _ in range(500):
            p = int(rng.integers(1, 40))
            n = int(rng.integers(2, 100000))
            s = int(rng.integers(1, p + 1))
            t = int(rng.integers(1, 1000))
            assert scan_rate_relaxed(p, n, s, t) >= scan_rate(p, n, s, t) - 1e-12

    def test_rates_monotone_in_t_and_s(self, rng):
        for _ in range(200):
            p = int(rng.integers(2, 30))
            n = int(rng.integers(2, 5000))
            s = int(rng.integers(1, p))
            t = int(rng.integers(1, 400))
            assert scan_rate(p, n, s, t + 1) <= scan_rate(p, n, s, t) + 1e-12
            assert scan_rate(p, n, s + 1, t) >= scan_rate(p, n, s, t) - 1e-12
            assert scan_rate_relaxed(p, n, s, t + 1) <= scan_rate_relaxed(p, n, s, t) + 1e-12
            assert scan_rate_relaxed(p, n, s + 1, t) >= scan_rate_relaxed(p, n, s, t) - 1e-12


def window(X, t):
    """Prefix and suffix second moments of window ``t`` of the dyadic scan."""
    scan = CovarianceScan(X)
    return scan.prefix(t), scan.suffix(t)


def direct_window(X, t):
    """``head.T @ head / t`` and ``tail.T @ tail / t`` of the outer ``t`` rows."""
    head, tail = X[:t], X[len(X) - t:]
    return head.T @ head / t, tail.T @ tail / t


class TestMoments:
    def test_unit_direction_rows(self):
        X = np.zeros((10, 3))
        X[:, 0] = 1.0
        for t in (1, 2, 4):
            expect = np.zeros((3, 3))
            expect[0, 0] = 1.0
            pre, suf = window(X, t)
            np.testing.assert_allclose(pre, expect)
            np.testing.assert_allclose(suf, expect)

    def test_t_equals_one_is_outer_product(self, rng):
        X = rng.standard_normal((6, 4))
        pre, suf = window(X, 1)
        np.testing.assert_allclose(pre, np.outer(X[0], X[0]))
        np.testing.assert_allclose(suf, np.outer(X[-1], X[-1]))

    def test_scalar_case_is_mean_square(self, rng):
        x = rng.standard_normal(20)
        for t in (1, 4, 8):
            pre, suf = window(x, t)
            assert pre[0, 0] == pytest.approx(np.mean(x[:t] ** 2))
            assert suf[0, 0] == pytest.approx(np.mean(x[-t:] ** 2))

    def test_one_window_equals_numpy_formula(self, rng):
        # Window t adds the rows that the window before it lacks, so each
        # matrix is the running sum of the dyadic blocks' products over t;
        # the first window, t = 1, is the direct formula itself.
        for _ in range(50):
            n = int(rng.integers(2, 60))
            X = rng.standard_normal((n, int(rng.integers(1, 9))))
            scan = CovarianceScan(X)
            acc_pre = acc_suf = np.zeros((X.shape[1],) * 2)
            prev = 0
            for t in dyadic_grid(n):
                head, tail = X[prev:t], X[n - t:n - prev]
                acc_pre = acc_pre + head.T @ head
                acc_suf = acc_suf + tail.T @ tail
                prev = t
                pre, suf = acc_pre / t, acc_suf / t
                assert np.array_equal(scan.prefix(t), (pre + pre.T) / 2.0)
                assert np.array_equal(scan.suffix(t), (suf + suf.T) / 2.0)
            pre, suf = direct_window(X, 1)
            assert np.array_equal(scan.prefix(1), pre)
            assert np.array_equal(scan.suffix(1), suf)

    def test_psd_invariant(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 40))
            p = int(rng.integers(1, 6))
            X = rng.standard_normal((n, p)) * rng.uniform(0.1, 10)
            scan = CovarianceScan(X)
            for t in scan.grid:
                M = scan.prefix(t)
                w = np.linalg.eigvalsh(M)
                assert w[0] >= -1e-10 * max(np.trace(M), 1e-300)

    def test_window_bounds(self, rng):
        scan = CovarianceScan(rng.standard_normal((9, 2)))
        assert scan.grid == dyadic_grid(9) == [1, 2, 4]  # floor(9/2) = 4
        for t in (0, 5, 8):
            with pytest.raises(InvalidInputError, match="grid"):
                scan.prefix(t)

    def test_off_grid_window_raises(self, rng):
        scan = CovarianceScan(rng.standard_normal((37, 3)))
        for t in (3, 17, 32):
            with pytest.raises(InvalidInputError, match="grid"):
                scan.prefix(t)
            with pytest.raises(InvalidInputError, match="grid"):
                scan.suffix(t)

    def test_scan_table_matches_direct(self, rng):
        X = rng.standard_normal((37, 3))
        scan = CovarianceScan(X)
        for t in scan.grid:
            pre, suf = direct_window(X, t)
            np.testing.assert_allclose(scan.prefix(t), pre, atol=1e-12)
            np.testing.assert_allclose(scan.suffix(t), suf, atol=1e-12)
            np.testing.assert_allclose(scan.difference(t), pre - suf, atol=1e-12)


class TestSignalStrength:
    def test_uni_examples(self):
        assert signal_strength_uni(2, 4, 1.0, 1.0) == 0.0
        assert signal_strength_uni(2, 4, 1.0, 2.0) == pytest.approx(2.0, rel=1e-14)
        assert signal_strength_uni(1, 4, 1.0, 1.5) == pytest.approx(0.25, rel=1e-14)
        with pytest.raises(InvalidInputError):
            signal_strength_uni(1, 4, 0.0, 1.0)
        with pytest.raises(InvalidInputError):
            signal_strength_uni(4, 4, 1.0, 2.0)

    def test_uni_rejects_nan_variance(self):
        for variances in ((math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(InvalidInputError):
                signal_strength_uni(3, 12, *variances)

    def test_multi_examples(self):
        I = np.eye(3)
        assert signal_strength_multi(2, 8, I, I) == 0.0
        u = np.array([1.0, 0.0, 0.0])
        S1 = I - 0.5 * np.outer(u, u)
        for t0 in (1, 2, 4, 6):
            assert signal_strength_multi(t0, 8, S1, I) == pytest.approx(
                min(t0, 8 - t0), rel=1e-12
            )

    def test_multi_domain_error(self):
        # positive definite pairs can never trip the domain error, so an
        # indefinite input is needed to exercise it
        with pytest.raises(SignalDomainError):
            signal_strength_multi(1, 4, np.diag([1.0, 1.0]), np.diag([-1.0, 1.0]))

    def test_multi_reduces_to_uni_in_one_dimension(self, rng):
        for _ in range(100):
            s1 = float(rng.uniform(0.1, 5.0))
            s2 = float(rng.uniform(0.1, 5.0))
            if s1 == s2:
                continue
            n = int(rng.integers(2, 100))
            t0 = int(rng.integers(1, n))
            lo, hi = min(s1, s2), max(s1, s2)
            # operator-norm parameterization with sigma^2 = hi matches the
            # variance-ratio parameterization exactly in one dimension
            expect = signal_strength_uni(t0, n, lo, hi)
            got = signal_strength_multi(t0, n, np.array([[s1]]), np.array([[s2]]))
            assert got == pytest.approx(expect, rel=1e-12)

    def test_scale_invariance(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 50))
            t0 = int(rng.integers(1, n))
            s1, s2 = rng.uniform(0.1, 4.0, size=2)
            c = float(rng.uniform(0.01, 100))
            a = signal_strength_uni(t0, n, s1, s2)
            b = signal_strength_uni(t0, n, c * s1, c * s2)
            assert b == pytest.approx(a, rel=1e-10, abs=1e-12)
        for _ in range(50):
            p = int(rng.integers(1, 5))
            S2 = rand_psd(rng, p) + np.eye(p)
            S1 = S2 - 0.3 * min(np.linalg.eigvalsh(S2)) * np.eye(p)
            c = float(rng.uniform(0.01, 100))
            a = signal_strength_multi(3, 10, S1, S2)
            b = signal_strength_multi(3, 10, c * S1, c * S2)
            assert b == pytest.approx(a, rel=1e-10, abs=1e-12)


class TestSymMatrix:
    def test_accepts_and_symmetrizes(self, rng):
        A = rand_sym(rng, 4)
        B = A + 5e-11 * np.triu(np.ones((4, 4)), 1)
        out = sym_matrix(B)
        np.testing.assert_allclose(out, out.T)

    def test_rejects_asymmetric(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InvalidInputError):
            sym_matrix(A)
