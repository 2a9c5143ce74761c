"""Covariance changepoint scans: oracle, adaptive, and SDP variants."""

import math

import numpy as np
import pytest

from covshift import (
    EnumerationBudgetError,
    InvalidInputError,
    UndecidableInputError,
    adaptive_sdp_test,
    adaptive_test,
    covariance_test,
    dyadic_grid,
    entrywise_noise_level,
    minimax_rate,
    operator_norm,
    sparse_noise_level,
    sparsity_grid,
    variance_test,
)
from covshift.core import CovarianceScan
from covshift.simulate import null_series

from conftest import rand_sym


def cell_stats(X, s, **kwargs):
    """Oracle-scan statistic per window ``t``."""
    return {c.t: c.stat for c in covariance_test(X, 1.0, s, 1.0, **kwargs).cells}


class TestStatistic:
    def test_identical_end_blocks_give_zero(self, rng):
        block = rng.standard_normal((4, 3))
        middle = rng.standard_normal((8, 3))
        X = np.vstack([block, middle, block])
        for s in (1, 2, 3):
            assert cell_stats(X, s)[4] == pytest.approx(0.0, abs=1e-12)

    def test_scalar_case_is_absolute_difference(self, rng):
        x = rng.standard_normal(30)
        stats = cell_stats(x, 1)
        for t in (1, 4, 8):
            expect = abs(np.mean(x[:t] ** 2) - np.mean(x[-t:] ** 2))
            assert stats[t] == pytest.approx(expect, rel=1e-12)

    def test_full_sparsity_matches_operator_norm(self, rng):
        X = rng.standard_normal((40, 5))
        scan = CovarianceScan(X)
        stats = cell_stats(X, 5)
        for t in (2, 8, 16):
            assert stats[t] == pytest.approx(operator_norm(scan.difference(t)), rel=1e-12)

    def test_budget_error_names_relaxation(self):
        X = np.random.default_rng(0).standard_normal((60, 25))
        with pytest.raises(EnumerationBudgetError, match="relaxation"):
            cell_stats(X, 12)


class TestNoiseEstimates:
    def test_unit_direction_rows(self):
        X = np.zeros((64, 4))
        X[:, 0] = 1.0
        assert sparse_noise_level(X, 1) == pytest.approx(1.0)
        assert entrywise_noise_level(X) == pytest.approx(1.0)

    def test_symmetric_data_gives_equal_windows(self, rng):
        from covshift import sparse_abs_eigmax

        half = rng.standard_normal((32, 3))
        X = np.vstack([half, half[::-1]])
        w = math.ceil(minimax_rate(3, 64, 2))
        window = CovarianceScan(X, [w])
        pre, suf = window.prefix(w), window.suffix(w)
        np.testing.assert_allclose(pre, suf, atol=1e-12)
        # the min over two identical windows is either window's value
        assert sparse_noise_level(X, 2) == pytest.approx(
            sparse_abs_eigmax(pre, 2).value, rel=1e-12
        )

    def test_scaling_is_quadratic(self, rng):
        X = rng.standard_normal((128, 5))
        base_s = sparse_noise_level(X, 2)
        base_e = entrywise_noise_level(X)
        for c in (0.5, 3.0):
            assert sparse_noise_level(c * X, 2) == pytest.approx(c * c * base_s, rel=1e-10)
            assert entrywise_noise_level(c * X) == pytest.approx(c * c * base_e, rel=1e-10)

    def test_window_does_not_fit(self):
        # p=8 gives gamma(1) ~ 3.08, so n=7 leaves no room for two windows
        X = np.zeros((7, 8)) + np.eye(8)[:7]
        from covshift import NoiseWindowError

        with pytest.raises(NoiseWindowError):
            sparse_noise_level(X, 1)
        with pytest.raises(NoiseWindowError):
            entrywise_noise_level(X)

    def test_sparse_coverage_band(self):
        # Monte Carlo oracle for N(0, I), p=4, s=1, n=256: the window is
        # only ceil(2.386)=3 samples, so the honest 95% band is much wider
        # than [0.5, 2]; these bounds were frozen from a 4000-rep run
        # (coverage of [0.5, 2.0] itself is only ~0.84).
        hits = 0
        reps = 400
        for r in range(reps):
            X = null_series(256, 4, 1.0, [999, r, 1])
            hits += 0.4 <= sparse_noise_level(X, 1) <= 3.2
        assert hits / reps >= 0.95

    def test_entrywise_coverage_band(self):
        # frozen from a 4000-rep oracle run; [0.5, 2.0] coverage is ~0.72
        hits = 0
        reps = 400
        for r in range(reps):
            X = null_series(512, 8, 1.0, [998, r, 1])
            hits += 0.8 <= entrywise_noise_level(X) <= 3.3
        assert hits / reps >= 0.95


class TestOracleScan:
    def test_lambda_inf_never_rejects(self, rng):
        X = rng.standard_normal((64, 4))
        assert not covariance_test(X, math.inf, 2, 1.0).reject

    def test_threshold_structure_and_cells(self, rng):
        X = rng.standard_normal((32, 3))
        report = covariance_test(X, 1.5, 2, 2.0)
        assert report.variant == "oracle"
        assert [c.t for c in report.cells] == dyadic_grid(32)
        for c in report.cells:
            assert c.s == 2
            assert c.noise_scale == 2.0
            assert c.triggered == (c.stat > c.threshold)
        assert report.reject == any(c.triggered for c in report.cells)

    def test_doubling_noise_shrinks_trigger_set(self, rng):
        X = rng.standard_normal((64, 4))
        X[32:] *= 3.0
        lo = covariance_test(X, 1.0, 2, 1.0)
        hi = covariance_test(X, 1.0, 2, 2.0)
        trig_lo = {c.t for c in lo.cells if c.triggered}
        trig_hi = {c.t for c in hi.cells if c.triggered}
        assert trig_hi <= trig_lo

    def test_strong_spike_rejects(self, rng):
        X = rng.standard_normal((128, 4))
        X[64:, 0] *= 6.0
        assert covariance_test(X, 3.0, 1, 1.0).reject


class TestAdaptiveScan:
    def test_cell_bookkeeping_is_complete(self, rng):
        X = rng.standard_normal((12, 8))
        report = adaptive_test(X, 2.0)
        seen = {(c.t, c.s) for c in report.cells} | {(t, s) for t, s, _ in report.skipped}
        expect = {(t, s) for t in dyadic_grid(12) for s in sparsity_grid(8)}
        assert seen == expect
        assert len(report.cells) + len(report.skipped) == len(expect)
        skipped_s = {s for _, s, _ in report.skipped}
        assert skipped_s == {4, 8}  # noise windows don't fit in n=12

    def test_all_cells_skipped_is_undecidable(self, rng):
        X = rng.standard_normal((6, 8))
        with pytest.raises(UndecidableInputError):
            adaptive_test(X, 2.0)

    def test_scalar_data_matches_oracle_at_estimated_noise(self, rng):
        for r in range(20):
            X = np.random.default_rng([51, r]).standard_normal((64, 1))
            noise = sparse_noise_level(X, 1)
            adaptive = adaptive_test(X, 2.5)
            oracle = covariance_test(X, 2.5, 1, noise)
            assert adaptive.reject == oracle.reject
            for a, b in zip(adaptive.cells, oracle.cells):
                assert a.stat == pytest.approx(b.stat, rel=1e-12)
                assert a.threshold == pytest.approx(b.threshold, rel=1e-12)

    def test_reversing_time_preserves_statistics(self, rng):
        X = rng.standard_normal((48, 4))
        a = adaptive_test(X, 2.0)
        b = adaptive_test(X[::-1], 2.0)
        for ca, cb in zip(a.cells, b.cells):
            assert (ca.t, ca.s) == (cb.t, cb.s)
            assert ca.stat == pytest.approx(cb.stat, rel=1e-10)
            assert ca.noise_scale == pytest.approx(cb.noise_scale, rel=1e-10)

    def test_coordinate_permutation_preserves_statistics(self, rng):
        X = rng.standard_normal((48, 5))
        perm = rng.permutation(5)
        a = adaptive_test(X, 2.0)
        b = adaptive_test(X[:, perm], 2.0)
        for ca, cb in zip(a.cells, b.cells):
            assert ca.stat == pytest.approx(cb.stat, rel=1e-10)


class TestSdpScan:
    def test_relaxed_cells_sandwich_exact(self, rng):
        X = rng.standard_normal((64, 6))
        tol = 1e-3
        report = adaptive_sdp_test(X, 2.0, tol=tol)
        from covshift import CovarianceScan, sparse_abs_eigmax

        scan = CovarianceScan(X)
        for c in report.cells:
            diff = scan.difference(c.t)
            exact = sparse_abs_eigmax(diff, c.s).value
            slack = tol * max(1.0, c.s * float(np.abs(diff).max()))
            assert c.stat >= exact - slack
            assert c.stat <= c.s * float(np.abs(diff).max()) + slack

    def test_matches_structure(self, rng):
        X = rng.standard_normal((32, 4))
        report = adaptive_sdp_test(X, 2.0)
        assert report.variant == "adaptive_sdp"
        expect = [(t, s) for t in dyadic_grid(32) for s in sparsity_grid(4)]
        assert [(c.t, c.s) for c in report.cells] == expect
        assert all(c.converged for c in report.cells)

    def test_noise_window_infeasible_is_undecidable(self, rng):
        X = rng.standard_normal((7, 8))
        with pytest.raises(UndecidableInputError):
            adaptive_sdp_test(X, 2.0)

    def test_strong_spike_rejects(self, rng):
        X = rng.standard_normal((256, 6))
        X[128:, 2] *= 5.0
        assert adaptive_sdp_test(X, 3.0).reject

    def test_null_does_not_reject_at_moderate_lambda(self):
        X = null_series(128, 6, 1.0, [321, 0, 1])
        assert not adaptive_sdp_test(X, 8.0).reject


class TestValidation:
    def test_bad_lambda(self, rng):
        X = rng.standard_normal((16, 2))
        with pytest.raises(InvalidInputError):
            covariance_test(X, 0.0, 1, 1.0)
        with pytest.raises(InvalidInputError):
            adaptive_test(X, -2.0)

    def test_oracle_requires_positive_noise(self, rng):
        X = rng.standard_normal((16, 2))
        with pytest.raises(InvalidInputError):
            covariance_test(X, 1.0, 1, 0.0)
