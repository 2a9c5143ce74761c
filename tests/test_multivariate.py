"""Covariance changepoint scans: oracle, adaptive, and SDP variants."""

import json
import math
import pickle

import numpy as np
import pytest

from covshift import (
    EnumerationBudgetError,
    InvalidInputError,
    NoiseWindowError,
    UndecidableInputError,
    adaptive_sdp_test,
    adaptive_test,
    center_columns,
    covariance_test,
    dyadic_grid,
    entrywise_noise_level,
    minimax_rate,
    operator_norm,
    relaxed_sparse_eigmax,
    scan_rate,
    scan_rate_relaxed,
    sparse_abs_eigmax,
    sparse_noise_level,
    sparsity_grid,
    variance_test,
)
from covshift import multivariate
from covshift.core import CovarianceScan
from covshift.simulate import (
    _S_CAL,
    PriorSpec,
    calibrate_lambda,
    null_series,
    sample_alternative,
    sample_series,
)

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
        pre, suf = X[:w].T @ X[:w] / w, X[-w:].T @ X[-w:] / w
        np.testing.assert_allclose(pre, suf, atol=1e-12)
        # the min over two identical windows is either window's value
        assert sparse_noise_level(X, 2) == pytest.approx(
            sparse_abs_eigmax(pre, 2).value, rel=1e-12
        )

    def test_noise_levels_equal_the_direct_window_formula(self, rng):
        for _ in range(30):
            n, p = int(rng.integers(16, 200)), int(rng.integers(1, 9))
            X = rng.standard_normal((n, p)) * rng.uniform(0.1, 10)

            def windows(w):
                return X[:w].T @ X[:w] / w, X[n - w:].T @ X[n - w:] / w

            for s in sparsity_grid(p):
                w = math.ceil(minimax_rate(p, n, s))
                if w <= n // 2:
                    assert sparse_noise_level(X, s) == min(
                        sparse_abs_eigmax(M, s).value for M in windows(w))
            w = math.ceil(math.log(math.e * p))
            assert entrywise_noise_level(X) == min(float(np.abs(M).max()) for M in windows(w))

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

    def test_rate_exceeding_n_is_skipped(self, rng):
        # (8, 16): minimax_rate is 3.77 at s = 1, 6.16 at s = 2 (7-row noise
        # windows do not fit twice in 8 rows) and above 8 from s = 4 on.
        report = adaptive_test(rng.standard_normal((8, 16)), 2.0)
        reasons = {}
        for t, s, reason in report.skipped:
            reasons.setdefault(s, set()).add(reason)
        assert reasons == {2: {"noise window does not fit"}, 4: {"rate exceeds n"},
                           8: {"rate exceeds n"}, 16: {"rate exceeds n"}}
        seen = sorted([(c.t, c.s) for c in report.cells] + [(t, s) for t, s, _ in report.skipped])
        assert seen == [(t, s) for t in dyadic_grid(8) for s in sparsity_grid(16)]
        assert {c.s for c in report.cells} == {1}

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
        report = adaptive_sdp_test(X, 2.0)
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

    @pytest.mark.parametrize("call, message", [
        (lambda X: covariance_test(X, None, 1, 1.0), "lambda must be positive, got None"),
        (lambda X: covariance_test(X, 1.0, 1, None), "sigma_sq must be positive, got None"),
        (lambda X: covariance_test(X, 1.0, 1, "a"), "sigma_sq must be positive, got a"),
        (lambda X: adaptive_test(X, "a"), "lambda must be positive, got a"),
        (lambda X: adaptive_sdp_test(X, None), "lambda must be positive, got None"),
    ])
    def test_non_number_rejected(self, rng, call, message):
        with pytest.raises(InvalidInputError, match=rf"^{message}$"):
            call(rng.standard_normal((16, 2)))

    def test_oracle_requires_positive_noise(self, rng):
        X = rng.standard_normal((16, 2))
        with pytest.raises(InvalidInputError):
            covariance_test(X, 1.0, 1, 0.0)


def _max_scan(X):
    """The largest standardized ratio that calibrates the SDP family."""
    return adaptive_sdp_test(X, 1.0)._max_ratio()


def _panels():
    """Null, scaled, mean-shifted, alternative and integer-valued panels."""
    null = null_series(64, 6, 1.0, [71, 0, 1])
    spec = PriorSpec("multi", n=64, p=6, sigma_sq=1.0, rho=8.0, s=2)
    alt = sample_series(sample_alternative(spec, [71, 1, 2]), 64, 6, [71, 1, 3])
    ints = np.random.default_rng(72).integers(-2, 3, size=(64, 6)).astype(float)
    return {
        "null": null,
        "scaled": 40.0 * null,
        "shifted": null + np.array([3.0, -1.0, 0.0, 0.5, 2.0, -4.0]),
        "alternative": alt,
        "integer": ints,
        "integer-blocks": np.vstack([ints[:16], ints[16:48], ints[:16]]),
    }


class TestMaxMode:
    """An SDP report's ``_max_ratio()``, which calibration uses, returns the
    largest standardized ratio over its cells, bit for bit, while solving
    fewer cells."""

    @pytest.mark.parametrize("center", [False, True])
    def test_equals_report_maximum(self, center):
        for name, panel in _panels().items():
            X = center_columns(panel) if center else panel
            report = adaptive_sdp_test(X, 1.0)
            want = max(c.stat / c.threshold for c in report.cells)
            assert _max_scan(X) == want, name

    def test_calibration_nulls_equal_report_maximum(self):
        for r in range(5):
            X = null_series(256, 16, 1.0, [9, r, _S_CAL])
            report = adaptive_sdp_test(X, 1.0)
            want = max(c.stat / c.threshold for c in report.cells)
            assert _max_scan(X) == want

    def test_all_skipped_raises_like_report(self):
        X = np.random.default_rng(74).standard_normal((7, 8))
        with pytest.raises(UndecidableInputError) as report_error:
            adaptive_sdp_test(X, 1.0)
        with pytest.raises(UndecidableInputError) as max_error:
            _max_scan(X)
        assert str(max_error.value) == str(report_error.value)

    def test_calibration_skips_most_relaxations(self, monkeypatch):
        relax = multivariate.relaxed_sparse_eigmax
        sparsities = []

        def counting(A, s, **kwargs):
            sparsities.append(s)
            return relax(A, s, **kwargs)

        monkeypatch.setattr(multivariate, "relaxed_sparse_eigmax", counting)
        reps = 5
        calibrate_lambda("adaptive_sdp", 256, p=16, delta=1.0, reps=reps, seed=0)
        # (256, 16) scans 8 windows at s = 2, 4, 8 and 16 beside s = 1
        assert sparsities.count(1) == reps * 8
        assert sum(s >= 2 for s in sparsities) < reps * 8 * 4 / 4


def _eager_cells(family, s, X, lam, center):
    """Reference: every cell solved at call time, in scan order, as
    ``to_dict()`` lists them. ``family`` is "oracle" (sparsity ``s``, unit
    noise level), "adaptive" or "adaptive_sdp"."""
    X = center_columns(X) if center else np.array(X, dtype=float)
    n, p = X.shape
    if family == "adaptive_sdp":
        noise = dict.fromkeys(sparsity_grid(p), entrywise_noise_level(X))
        rate = scan_rate_relaxed

        def stat(diff, s):
            sol = relaxed_sparse_eigmax(diff, s)
            return sol.lower, sol.converged
    else:
        rate = scan_rate

        def stat(diff, s):
            return sparse_abs_eigmax(diff, s).value, True

        if family == "oracle":
            noise = {s: 1.0}
        else:
            noise = {}
            for k in sparsity_grid(p):
                try:
                    if minimax_rate(p, n, k) <= n:
                        noise[k] = sparse_noise_level(X, k)
                except NoiseWindowError:
                    pass
    scan = CovarianceScan(X)
    cells = []
    for t in scan.grid:
        diff = scan.difference(t)
        for k, scale in noise.items():
            threshold = lam * scale * rate(p, n, k, t)
            value, converged = stat(diff, k)
            cells.append({"t": t, "s": k, "stat": value, "noise_scale": scale,
                          "threshold": threshold, "triggered": value > threshold,
                          "converged": converged})
    return cells


def _decide(family, s, X, lam, center):
    if center:
        X = center_columns(X)
    if family == "oracle":
        return covariance_test(X, lam, s, 1.0)
    if family == "adaptive":
        return adaptive_test(X, lam)
    return adaptive_sdp_test(X, lam)


# The oracle at s = 1, 2 and p (every panel of ``_panels()`` has p = 6).
_DECISION_FAMILIES = [("oracle", 1), ("oracle", 2), ("oracle", 6), ("adaptive", None),
                      ("adaptive_sdp", None)]


class TestDecision:
    """``adaptive_sdp_test`` decides ``reject`` from the cheapest cells and
    builds the cells on first read, and the exact tests solve every cell at
    call time; every family equals solving every cell at call time."""

    @pytest.mark.parametrize("center", [False, True])
    @pytest.mark.parametrize("family,s", _DECISION_FAMILIES)
    def test_reject_and_cells_equal_eager(self, family, s, center):
        for name, panel in _panels().items():
            at_one = _eager_cells(family, s, panel, 1.0, center)
            # One multiplier puts the largest cell exactly at its threshold.
            edge = max(c["stat"] / c["threshold"] for c in at_one)
            for lam in (0.5, 1.0, 2.0, 4.0, edge):
                want = json.dumps(_eager_cells(family, s, panel, lam, center))
                X = panel.copy()
                reject_first = _decide(family, s, X, lam, center)
                reject = reject_first.reject
                cells_first = _decide(family, s, X, lam, center)
                built = json.dumps(cells_first.to_dict()["cells"])
                # reject_first builds its cells only after this.
                X *= 3.0
                X[0] = 99.0
                assert built == want, (name, lam)
                assert json.dumps(reject_first.to_dict()["cells"]) == want, (name, lam)
                assert reject == any(c.triggered for c in reject_first.cells), (name, lam)
                assert cells_first.reject == reject, (name, lam)
                assert reject_first == cells_first

    def test_budget_error_raises_from_the_call(self):
        X = np.random.default_rng(75).standard_normal((64, 40))
        with pytest.raises(EnumerationBudgetError) as eager:
            sparse_abs_eigmax(CovarianceScan(X).difference(1), 20)
        with pytest.raises(EnumerationBudgetError) as decided:
            covariance_test(X, 1e6, 20, 1.0)
        assert str(decided.value) == str(eager.value)

    def test_sparsity_above_p_raises_from_the_call(self, rng):
        X = rng.standard_normal((32, 3))
        with pytest.raises(InvalidInputError, match=r"s must be in \[1, p\]=3, got 4"):
            covariance_test(X, 1e6, 4, 1.0)

    def test_all_skipped_raises_from_the_call(self):
        X = np.random.default_rng(74).standard_normal((6, 8))
        with pytest.raises(UndecidableInputError, match="every \\(t, s\\) cell was skipped"):
            adaptive_test(X, 2.0)

    def test_overflowing_window_raises_after_an_early_trigger(self):
        # The t = 1 cell triggers; the t = 4 second moments overflow, which
        # solving that window's cells would reject.
        X = np.full((16, 2), 1e-3)
        X[:4] = 9e153
        with np.errstate(over="ignore"):
            with pytest.raises(InvalidInputError, match="non-finite"):
                sparse_abs_eigmax(CovarianceScan(X).difference(4), 1)
            for test in (lambda: covariance_test(X, 1.0, 1, 1.0),
                         lambda: adaptive_sdp_test(X, 1.0)):
                with pytest.raises(InvalidInputError, match="non-finite"):
                    test()

    def test_decision_solves_few_cells_and_build_solves_each_once(self, monkeypatch):
        relax = multivariate.relaxed_sparse_eigmax
        solves = []

        def counting(A, s, **kwargs):
            solves.append((id(A), s))
            return relax(A, s, **kwargs)

        monkeypatch.setattr(multivariate, "relaxed_sparse_eigmax", counting)
        # C6's lambda: calibrate_lambda("adaptive_sdp", 256, p=16, delta=0.1,
        # reps=2000, seed=1601)
        lam = 1.9049242341442176
        reps = 10
        reports = [adaptive_sdp_test(null_series(256, 16, 1.0, [1602, r, 1]), lam)
                   for r in range(reps)]
        decided = [r.reject for r in reports]
        # (256, 16) scans 8 windows at s = 2, 4, 8 and 16 beside s = 1
        assert sum(s >= 2 for _, s in solves) < reps * 8 * 4 / 10
        for report in reports:
            report.cells
        assert len(set(solves)) == len(solves) == reps * 8 * 5
        assert decided == [any(c.triggered for c in r.cells) for r in reports]


def _dense_panel():
    """A change along the all-ones direction: an s >= 2 cell sets the
    largest ratio of the SDP scan and of the exact scan over s = 1, 2, 4."""
    rng = np.random.default_rng(72)
    X = rng.standard_normal((64, 6))
    X[:32] += 3.0 * rng.standard_normal((32, 1)) * np.ones(6) / np.sqrt(6)
    return X


class TestOnePath:
    """Every covariance test runs one scan: ``reject`` is decided at call
    time, and ``_max_ratio()`` equals the maximum over the built cells."""

    @pytest.mark.parametrize("center", [False, True])
    @pytest.mark.parametrize("family,s", _DECISION_FAMILIES)
    def test_max_ratio_equals_cells_maximum(self, family, s, center):
        for name, panel in {**_panels(), "dense": _dense_panel()}.items():
            for lam in (0.5, 1.0, 4.0):
                report = _decide(family, s, panel, lam, center)
                first = report._max_ratio()
                assert first == max(c.stat / c.threshold for c in report.cells), (name, lam)
                assert report._max_ratio() == first

    def test_dense_panel_maximum_is_at_s_above_one(self):
        report = adaptive_sdp_test(_dense_panel(), 1.0)
        assert max(report.cells, key=lambda c: c.stat / c.threshold).s > 1

    @pytest.mark.parametrize("center", [False, True])
    def test_exact_walk_equals_cells_maximum(self, center):
        # The exact tests build their cells at call time; the scan's own
        # walk over exact statistics must give the same maximum.
        for name, panel in {**_panels(), "dense": _dense_panel()}.items():
            X = center_columns(panel) if center else panel
            report = multivariate._scan("oracle", X, 1.0, {1: 1.0, 2: 1.0, 4: 1.0},
                                        multivariate._exact_stat, scan_rate)
            first = report._max_ratio()
            assert callable(report._cells)
            assert first == max(c.stat / c.threshold for c in report.cells), name

    def test_sdp_max_ratio_leaves_cells_unbuilt(self):
        for panel in _panels().values():
            report = adaptive_sdp_test(panel, 1.0)
            report._max_ratio()
            assert callable(report._cells)

    def test_exact_tests_return_built_cells(self):
        panel = _panels()["null"]
        for report in (covariance_test(panel, 1.0, 2, 1.0), adaptive_test(panel, 1.0)):
            assert isinstance(report._cells, tuple)
        assert callable(adaptive_sdp_test(panel, 1.0)._cells)

    def test_decision_max_and_cells_solve_each_cell_once(self, monkeypatch):
        relax = multivariate.relaxed_sparse_eigmax
        solves = []

        def counting(A, s, **kwargs):
            solves.append((id(A), s))
            return relax(A, s, **kwargs)

        monkeypatch.setattr(multivariate, "relaxed_sparse_eigmax", counting)
        for r in range(4):
            solves.clear()
            report = adaptive_sdp_test(null_series(256, 16, 1.0, [9, r, _S_CAL]), 1.0)
            report._max_ratio()
            cells = report.cells
            assert len(set(solves)) == len(solves) == len(cells)

    @pytest.mark.parametrize("family,s", _DECISION_FAMILIES)
    def test_pickled_report_keeps_max_ratio(self, family, s):
        for panel in _panels().values():
            report = _decide(family, s, panel, 1.0, False)
            first = report._max_ratio()
            clone = pickle.loads(pickle.dumps(report))
            assert clone._max_ratio() == first
            assert clone == report and hash(clone) == hash(report)
            assert repr(clone) == repr(report)
