"""Shared primitives: scan grids, rate functions, empirical second moments,
and signal-strength parameterizations.

All quantities use natural logarithms except the grid exponents, which are
base-2 as the grids are dyadic. Data series are time-major ``(n, p)`` arrays
and are assumed mean-zero; ``center_columns`` is available for data that are
not.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .exceptions import InvalidInputError, SignalDomainError

__all__ = [
    "center_columns",
    "dyadic_grid",
    "sparsity_grid",
    "loglog8n",
    "minimax_rate",
    "scan_rate",
    "scan_rate_relaxed",
    "CovarianceScan",
    "signal_strength_uni",
    "signal_strength_multi",
    "operator_norm",
]

SYM_TOL = 1e-10


def _check_count(value, name, minimum=1):
    if not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidInputError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _check_sparsity(s, p):
    s = _check_count(s, "s")
    if s > p:
        raise InvalidInputError(f"s must be in [1, p]={p}, got {s}")
    return s


def _in_range(value, low, high) -> bool:
    """``low < value <= high``, False for a value that is no number."""
    try:
        return bool(low < value <= high)
    except TypeError:
        return False


def _check_positive(value, name, finite=False):
    if not _in_range(value, 0, sys.float_info.max if finite else math.inf):
        rule = "positive and finite" if finite else "positive"
        raise InvalidInputError(f"{name} must be {rule}, got {value}")
    return float(value)


def as_series(values) -> np.ndarray:
    """Validate and return a time-major data panel of shape ``(n, p)``.

    One-dimensional input is treated as a univariate series and reshaped to
    a single column. Requires ``n >= 2``, ``p >= 1`` and finite entries.
    """
    try:
        X = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"series is not a numeric array: {exc}") from exc
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise InvalidInputError(f"series must be 1- or 2-dimensional, got ndim={X.ndim}")
    n, p = X.shape
    if n < 2:
        raise InvalidInputError(f"series needs at least 2 rows, got {n}")
    if p < 1:
        raise InvalidInputError("series needs at least 1 column")
    if not np.isfinite(X).all():
        raise InvalidInputError("series contains non-finite entries")
    return X


def sym_matrix(A) -> np.ndarray:
    """Validate a symmetric matrix and return its exact symmetrization.

    The input must be square and symmetric to within absolute tolerance
    ``SYM_TOL``; the returned matrix is ``(A + A.T) / 2``.
    """
    try:
        A = np.asarray(A, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"matrix is not a numeric array: {exc}") from exc
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise InvalidInputError("matrix contains non-finite entries")
    if np.abs(A - A.T).max(initial=0.0) > SYM_TOL:
        raise InvalidInputError(f"matrix is not symmetric within tolerance {SYM_TOL}")
    return (A + A.T) / 2.0


def center_columns(X) -> np.ndarray:
    """Subtract the global column mean from every row.

    The tests take their data as given and assume it mean-zero, so a panel
    with a nonzero mean goes through this function first (the command line
    does so under ``--center``).
    """
    X = as_series(X)
    return X - X.mean(axis=0)


def operator_norm(A) -> float:
    """Largest absolute eigenvalue of a symmetric matrix, which is
    ``sparse_abs_eigmax(A, p).value``, by one full eigendecomposition."""
    w = np.linalg.eigvalsh(sym_matrix(A))
    return float(max(abs(w[0]), abs(w[-1])))


def dyadic_grid(n) -> list[int]:
    """Candidate segment lengths ``{1, 2, 4, ..., 2^floor(log2(n/2))}``.

    Every changepoint location ``t0 <= n/2`` has a grid element within a
    factor two below it, so a scan over this grid loses at most half the
    effective sample size.
    """
    n = _check_count(n, "n", minimum=2)
    return [1 << j for j in range((n // 2).bit_length())]


def sparsity_grid(p) -> list[int]:
    """Candidate sparsities ``{1, 2, 4, ..., 2^floor(log2(p))}``."""
    p = _check_count(p, "p", minimum=1)
    return [1 << j for j in range(p.bit_length())]


def loglog8n(n) -> float:
    """``log(log(8n))``, the univariate detection-boundary scale.

    Always at least ``log(log(16)) > 1`` for ``n >= 2``.
    """
    n = _check_count(n, "n", minimum=2)
    return math.log(math.log(8.0 * n))


def minimax_rate(p, n, s) -> float:
    """Detection difficulty scale ``max(s*log(e*p/s), loglog8n(n))``.

    Grows with the sparsity ``s`` of the covariance change and never falls
    below the univariate ``log log(8n)`` floor.
    """
    p = _check_count(p, "p", minimum=1)
    s = _check_sparsity(s, p)
    return max(s * math.log(math.e * p / s), loglog8n(n))


def _rate_shape(g, t) -> float:
    """``max(sqrt(g/t), g/t)``: how a window of ``t`` rows scales a
    difficulty ``g``, the shape of every scan threshold."""
    return max(math.sqrt(g / t), g / t)


def scan_rate(p, n, s, t) -> float:
    """Threshold rate for the exact sparse-eigenvalue scan at window ``t``:
    ``max(sqrt(g/t), g/t)`` with ``g = minimax_rate(p, n, s)``."""
    t = _check_count(t, "t", minimum=1)
    return _rate_shape(minimax_rate(p, n, s), t)


def scan_rate_relaxed(p, n, s, t) -> float:
    """Threshold rate for the SDP-relaxed scan at window ``t``:
    ``s * scan_rate(p, n, 1, t)``, that is ``s * max(sqrt(L/t), L/t)`` with
    ``L = minimax_rate(p, n, 1) = max(log(e*p), loglog8n(n))``.

    Dominates ``scan_rate`` for every admissible input, which is the price
    of the polynomial-time statistic.
    """
    p = _check_count(p, "p", minimum=1)
    s = _check_sparsity(s, p)
    t = _check_count(t, "t", minimum=1)
    return s * _rate_shape(minimax_rate(p, n, 1), t)


class CovarianceScan:
    """Prefix and suffix second-moment matrices over the dyadic window grid.

    ``prefix(t)`` is ``(1/t) * sum_{i<=t} X_i X_i^T`` over the first ``t``
    rows and ``suffix(t)`` the same over the last ``t``; both are symmetric
    positive semidefinite. The unnormalized sums are accumulated
    incrementally across ``dyadic_grid(n)``, so evaluating every window costs
    ``O(n * p**2)`` in total rather than ``O(n * p**2)`` per window.
    """

    def __init__(self, X):
        X = as_series(X)
        n, p = X.shape
        self.grid = dyadic_grid(n)
        self._prefix = {}
        self._suffix = {}
        acc_pre = np.zeros((p, p))
        acc_suf = np.zeros_like(acc_pre)
        prev = 0
        for t in self.grid:
            pre_block = X[prev:t]
            suf_block = X[n - t:n - prev]
            acc_pre = acc_pre + pre_block.T @ pre_block
            acc_suf = acc_suf + suf_block.T @ suf_block
            M_pre, M_suf = acc_pre / t, acc_suf / t
            self._prefix[t] = (M_pre + M_pre.T) / 2.0
            self._suffix[t] = (M_suf + M_suf.T) / 2.0
            prev = t

    def _window(self, table, t):
        if t not in table:
            raise InvalidInputError(f"window t={t} is not on this scan's grid {self.grid}")
        return table[t]

    def prefix(self, t) -> np.ndarray:
        return self._window(self._prefix, t)

    def suffix(self, t) -> np.ndarray:
        return self._window(self._suffix, t)

    def difference(self, t) -> np.ndarray:
        """``prefix(t) - suffix(t)``, the scanned covariance change."""
        return self.prefix(t) - self.suffix(t)


def _shorter_side(t0, n):
    """``min(t0, n - t0)`` for a changepoint ``t0`` in ``[1, n - 1]``."""
    n = _check_count(n, "n", minimum=2)
    t0 = _check_count(t0, "t0", minimum=1)
    if t0 > n - 1:
        raise InvalidInputError(f"t0 must be in [1, n-1]=[1, {n - 1}], got {t0}")
    return min(t0, n - t0)


def signal_strength_uni(t0, n, sigma1_sq, sigma2_sq) -> float:
    """Signal strength of a variance change: ``min(t0, n-t0) * min(r, r**2)``
    with ``r = |sigma1_sq - sigma2_sq| / min(sigma1_sq, sigma2_sq)``."""
    side = _shorter_side(t0, n)
    sigma1_sq = _check_positive(sigma1_sq, "sigma1_sq")
    sigma2_sq = _check_positive(sigma2_sq, "sigma2_sq")
    ratio = abs(sigma1_sq - sigma2_sq) / min(sigma1_sq, sigma2_sq)
    return side * min(ratio, ratio * ratio)


def signal_strength_multi(t0, n, Sigma1, Sigma2) -> float:
    """Signal strength of a covariance change under the operator norm.

    With ``d = opnorm(Sigma1 - Sigma2)`` and nominal noise level
    ``sigma_sq = max(opnorm(Sigma1), opnorm(Sigma2))``, returns
    ``min(t0, n-t0) * min(r, r**2)`` where ``r = d / (sigma_sq - d)``.
    Undefined (raises) when ``d >= sigma_sq``.
    """
    side = _shorter_side(t0, n)
    S1 = sym_matrix(Sigma1)
    S2 = sym_matrix(Sigma2)
    if S1.shape != S2.shape:
        raise InvalidInputError("covariance matrices must share a dimension")
    diff = operator_norm(S1 - S2)
    sigma_sq = max(operator_norm(S1), operator_norm(S2))
    if diff == 0.0:
        return 0.0
    if diff >= sigma_sq:
        raise SignalDomainError(
            "operator norm of the change equals or exceeds the nominal noise "
            f"level ({diff} >= {sigma_sq}); signal strength is undefined"
        )
    r = diff / (sigma_sq - diff)
    return side * min(r, r * r)
