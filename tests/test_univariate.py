"""Univariate variance-ratio scan."""

import math

import numpy as np
import pytest

from covshift import (
    InvalidInputError,
    loglog8n,
    variance_test,
)
from covshift.simulate import calibrate_lambda, null_series, sample_alternative, sample_series
from covshift.simulate import PriorSpec
from covshift import univariate


def cell_stats(x):
    """Scan statistic per window ``t``."""
    return {c.t: c.stat for c in variance_test(x, 1.0).cells}


class TestStatistic:
    def test_equal_variances(self):
        assert cell_stats([1.0, -1.0, 1.0, -1.0]) == {1: 0.0, 2: 0.0}

    def test_hand_values(self):
        stats = cell_stats([1.0, 1.0, 2.0, 2.0])
        assert stats == {1: pytest.approx(3.0), 2: pytest.approx(3.0)}

    def test_degenerate(self):
        # one zero-variance side is an infinite ratio, not an error
        assert cell_stats([0.0, 0.0, 1.0, 1.0]) == {1: math.inf, 2: math.inf}

    def test_window_range(self):
        assert list(cell_stats([1.0, 2.0, 3.0])) == [1]  # floor(3/2) = 1


class TestScan:
    def test_hand_example_rejects(self):
        report = variance_test([1.0, 1.0, 2.0, 2.0], 0.1)
        assert report.reject
        assert [c.t for c in report.cells] == [1, 2]
        assert [c.stat for c in report.cells] == pytest.approx([3.0, 3.0])

    def test_threshold_formula(self):
        report = variance_test(np.arange(1.0, 33.0), 0.7)
        ell = loglog8n(32)
        for c in report.cells:
            assert c.threshold == pytest.approx(0.7 * max(math.sqrt(ell / c.t), ell / c.t))
        assert report.reject == any(c.triggered for c in report.cells)

    def test_lambda_inf_never_rejects(self, rng):
        x = rng.standard_normal(128)
        assert not variance_test(x, math.inf).reject
        # a zero-variance side makes the statistic infinite, which does not
        # pass an infinite threshold either
        report = variance_test([0.0, 1.0, 1.0, 1.0], math.inf)
        assert report.cells[0].stat == math.inf
        assert not report.reject

    def test_big_shift_rejects(self):
        x = np.r_[np.full(8, 1e-3), np.full(8, 1e3)]
        report = variance_test(x, 100.0)
        assert report.reject

    def test_scale_invariance(self, rng):
        x = rng.standard_normal(200)
        base = variance_test(x, 1.3)
        for c in (-7.0, 0.002, 31.0):
            scaled = variance_test(c * x, 1.3)
            assert scaled.reject == base.reject
            for a, b in zip(scaled.cells, base.cells):
                assert a.stat == pytest.approx(b.stat, rel=1e-10)

    def test_one_sided_zero_triggers(self):
        report = variance_test([0.0, 0.0, 1.0, -1.0], 5.0)
        assert report.reject
        assert all(math.isinf(c.stat) for c in report.cells)
        assert all(c.triggered for c in report.cells)

    def test_all_zero_cells_skipped(self):
        report = variance_test(np.zeros(8), 1.0)
        assert not report.reject
        assert not report.cells
        assert [t for t, _ in report.skipped] == [1, 2, 4]

    def test_bad_lambda(self, rng):
        x = rng.standard_normal(16)
        for lam in (0.0, -1.0, math.nan):
            with pytest.raises(InvalidInputError):
                variance_test(x, lam)

    def test_non_number_lambda_rejected(self, rng):
        x = rng.standard_normal(16)
        for lam in (None, "a"):
            with pytest.raises(InvalidInputError, match=rf"^lambda must be positive, got {lam}$"):
                variance_test(x, lam)
        # numpy scalars are numbers
        expected = variance_test(x, 2.0)
        assert variance_test(x, np.float32(2.0)) == expected
        assert variance_test(x, np.int64(2)) == expected

    def test_requires_univariate(self, rng):
        with pytest.raises(InvalidInputError):
            variance_test(rng.standard_normal((10, 2)), 1.0)


class TestCost:
    def test_scan_cost_grows_linearly(self, monkeypatch):
        accumulate = univariate._cumulative_squares
        elements = []

        def counting(x):
            elements.append(x.size)
            return accumulate(x)

        monkeypatch.setattr(univariate, "_cumulative_squares", counting)
        increments = {}
        for n in (512, 8192):
            x = np.sin(np.arange(n)) + 1.5
            before = sum(elements)
            variance_test(x, 1.0)
            increments[n] = sum(elements) - before
        # one forward and one backward accumulation pass, independent of
        # the grid size
        assert increments[512] == 2 * 512
        assert increments[8192] == 2 * 8192


class TestMonteCarlo:
    def test_null_rate_at_calibrated_lambda(self):
        n, delta = 256, 0.1
        lam = calibrate_lambda("uni", n, delta=delta, reps=1000, seed=11)
        rejections = 0
        reps = 2000
        for r in range(reps):
            x = null_series(n, 1, 1.0, [12, r, 1])[:, 0]
            rejections += variance_test(x, lam).reject
        assert rejections / reps <= 0.12

    def test_power_monotone_in_shift_size(self):
        n, lam, reps = 128, 3.0, 400
        t0 = n // 2
        powers = []
        for mult in (1.0, 2.0, 4.0, 8.0):
            rej = 0
            for r in range(reps):
                rng = np.random.default_rng([77, r])
                x = rng.standard_normal(n)
                x[t0:] *= math.sqrt(mult)
                rej += variance_test(x, lam).reject
            powers.append(rej / reps)
        se = 1.0 / math.sqrt(reps)
        assert all(b >= a - se for a, b in zip(powers, powers[1:]))

    def test_power_at_prior_alternative(self):
        # The prior mixes all dyadic gaps, including delta=1 whose single
        # pre-change observation is only detectable at enormous signal
        # strength under a level-0.1 calibration; 2000*loglog8n is the
        # empirically verified strong-signal regime for this end-to-end run
        # (a few tens of loglog8n is far too small here).
        n = 512
        spec = PriorSpec("uni", n=n, p=1, sigma_sq=1.0, rho=2000 * loglog8n(n))
        lam = calibrate_lambda("uni", n, delta=0.1, reps=500, seed=5)
        rej = 0
        for r in range(300):
            draw = sample_alternative(spec, [6, r, 1])
            x = sample_series(draw, n, 1, [6, r, 2])[:, 0]
            rej += variance_test(x, lam).reject
        assert rej / 300 >= 0.85
