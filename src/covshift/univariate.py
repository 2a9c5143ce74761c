"""Variance changepoint test for univariate series.

The variance-ratio statistic is scanned over the dyadic window grid and
compared against thresholds proportional to the ``log log(8n)`` rate. The
whole scan costs O(n): the prefix and suffix empirical variances at every
window come from one pass of cumulative sums of squares.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import _check_positive, _rate_shape, as_series, dyadic_grid, loglog8n
from .exceptions import InvalidInputError

__all__ = [
    "UniTestCell",
    "UniTestReport",
    "variance_test",
]


def _as_univariate(x) -> np.ndarray:
    X = as_series(x)
    if X.shape[1] != 1:
        raise InvalidInputError(f"univariate test requires p=1, got p={X.shape[1]}")
    return X[:, 0]


def _cumulative_squares(x: np.ndarray) -> np.ndarray:
    return np.cumsum(x * x)


@dataclass(frozen=True)
class UniTestCell:
    t: int
    stat: float
    threshold: float
    triggered: bool


@dataclass(frozen=True)
class UniTestReport:
    """Scan outcome: ``reject`` is the OR of ``triggered`` over cells.

    ``skipped`` lists windows where both empirical variances were zero and
    no statistic exists.
    """

    reject: bool
    lam: float
    n: int
    cells: tuple[UniTestCell, ...]
    skipped: tuple[tuple[int, str], ...]

    def _max_ratio(self) -> float:
        """``max(stat / threshold)`` over the cells."""
        return max(c.stat / c.threshold for c in self.cells)

    def to_dict(self) -> dict:
        return {
            "reject": self.reject,
            "lambda": self.lam,
            "n": self.n,
            "cells": [asdict(c) for c in self.cells],
            "skipped": [{"t": t, "reason": r} for t, r in self.skipped],
        }


def variance_test(x, lam) -> UniTestReport:
    """Scan the variance-ratio statistic over the dyadic grid.

    A window triggers when its statistic exceeds
    ``lam * max(sqrt(L/t), L/t)`` with ``L = loglog8n(n)``; ties at the
    threshold do not trigger. A window with exactly one zero-variance side
    has an infinite ratio, which triggers at every finite ``lam``; a window
    with both sides zero carries no information and is skipped.

    Parameters
    ----------
    lam : float
        Positive threshold multiplier, typically from
        ``covshift.simulate.calibrate_lambda``.
    """
    x = _as_univariate(x)
    lam = _check_positive(lam, "lambda")
    n = x.size
    # separate forward and backward sums: subtracting tail sums from the
    # total cancels catastrophically when a window is much smaller than
    # the rest, breaking exact scale invariance
    cs = _cumulative_squares(x)
    cs_rev = _cumulative_squares(x[::-1])
    ell = loglog8n(n)
    cells = []
    skipped = []
    for t in dyadic_grid(n):
        v1 = cs[t - 1] / t
        v2 = cs_rev[t - 1] / t
        threshold = lam * _rate_shape(ell, t)
        if v1 <= 0.0 and v2 <= 0.0:
            skipped.append((t, "zero variance on both sides"))
            continue
        stat = math.inf if v1 <= 0.0 or v2 <= 0.0 else float(max(v1 / v2, v2 / v1) - 1.0)
        cells.append(UniTestCell(t=t, stat=stat, threshold=threshold, triggered=stat > threshold))
    return UniTestReport(
        reject=any(c.triggered for c in cells),
        lam=lam,
        n=n,
        cells=tuple(cells),
        skipped=tuple(skipped),
    )
