"""Variance changepoint test for univariate series.

The variance-ratio statistic is scanned over the dyadic window grid and
compared against thresholds proportional to the ``log log(8n)`` rate. The
whole scan costs O(n): the prefix and suffix empirical variances at every
window come from one pass of cumulative sums of squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import as_series, center_columns, dyadic_grid, loglog8n
from .exceptions import DegenerateDataError, InvalidInputError

__all__ = [
    "UniTestCell",
    "UniTestReport",
    "variance_ratio_stat",
    "variance_test",
    "operation_count",
]

# Elementary accumulation counter backing the O(n) cost assertion in tests.
_ops = {"count": 0}


def operation_count() -> int:
    return _ops["count"]


def _as_univariate(x) -> np.ndarray:
    X = as_series(x)
    if X.shape[1] != 1:
        raise InvalidInputError(f"univariate test requires p=1, got p={X.shape[1]}")
    return X[:, 0]


def _cumulative_squares(x: np.ndarray) -> np.ndarray:
    _ops["count"] += x.size
    return np.cumsum(x * x)


def variance_ratio_stat(x, t) -> float:
    """Variance-ratio statistic at window ``t``.

    With ``v1`` and ``v2`` the empirical variances of the first and last
    ``t`` observations, returns ``max(v1/v2, v2/v1) - 1``. Raises
    ``DegenerateDataError`` if either window has zero empirical variance.
    """
    x = _as_univariate(x)
    n = x.size
    if not (1 <= t <= n // 2):
        raise InvalidInputError(f"t={t} must satisfy 1 <= t <= floor(n/2)={n // 2}")
    v1 = float(np.sum(x[:t] ** 2)) / t
    v2 = float(np.sum(x[n - t:] ** 2)) / t
    if v1 <= 0.0 or v2 <= 0.0:
        raise DegenerateDataError(
            f"zero empirical variance at window t={t} (prefix={v1}, suffix={v2})"
        )
    return max(v1 / v2, v2 / v1) - 1.0


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

    def to_dict(self) -> dict:
        return {
            "reject": self.reject,
            "lambda": self.lam,
            "n": self.n,
            "cells": [
                {"t": c.t, "stat": c.stat, "threshold": c.threshold, "triggered": c.triggered}
                for c in self.cells
            ],
            "skipped": [{"t": t, "reason": r} for t, r in self.skipped],
        }


def variance_test(x, lam, center: bool = False) -> UniTestReport:
    """Scan the variance-ratio statistic over the dyadic grid.

    A window triggers when its statistic exceeds
    ``lam * max(sqrt(L/t), L/t)`` with ``L = loglog8n(n)``; ties at the
    threshold do not trigger. A window with exactly one zero-variance side
    is treated as an infinite ratio and triggers; a window with both sides
    zero carries no information and is skipped.

    Parameters
    ----------
    lam : float
        Positive threshold multiplier, typically from
        ``covshift.simulate.calibrate_lambda``.
    center : bool
        Subtract the global mean first (the model itself assumes
        mean-zero data).
    """
    x = _as_univariate(x)
    if not (lam > 0) or math.isnan(lam):
        raise InvalidInputError(f"lambda must be positive, got {lam}")
    if center:
        x = center_columns(x)[:, 0]
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
        rate = max(math.sqrt(ell / t), ell / t)
        threshold = lam * rate
        if v1 <= 0.0 and v2 <= 0.0:
            skipped.append((t, "zero variance on both sides"))
            continue
        if v1 <= 0.0 or v2 <= 0.0:
            cells.append(UniTestCell(t=t, stat=math.inf, threshold=threshold, triggered=True))
            continue
        stat = float(max(v1 / v2, v2 / v1) - 1.0)
        cells.append(UniTestCell(t=t, stat=stat, threshold=threshold, triggered=stat > threshold))
    return UniTestReport(
        reject=any(c.triggered for c in cells),
        lam=float(lam),
        n=n,
        cells=tuple(cells),
        skipped=tuple(skipped),
    )
