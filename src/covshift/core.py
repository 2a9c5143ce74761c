"""Shared primitives: scan grids, rate functions, empirical second moments,
and signal-strength parameterizations.

All quantities use natural logarithms except the grid exponents, which are
base-2 as the grids are dyadic. Data series are time-major ``(n, p)`` arrays
and are assumed mean-zero; ``center_columns`` is available for data that are
not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, SignalDomainError

__all__ = [
    "as_series",
    "sym_matrix",
    "center_columns",
    "dyadic_grid",
    "sparsity_grid",
    "loglog8n",
    "minimax_rate",
    "scan_rate",
    "scan_rate_relaxed",
    "prefix_covariance",
    "suffix_covariance",
    "CovarianceScan",
    "signal_strength_uni",
    "signal_strength_multi",
    "detectability_ratio_floor",
    "UniSignal",
    "MultiSignal",
    "operator_norm",
]

SYM_TOL = 1e-10


def _check_count(value, name, minimum=1):
    if not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidInputError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def as_series(values) -> np.ndarray:
    """Validate and return a time-major data panel of shape ``(n, p)``.

    One-dimensional input is treated as a univariate series and reshaped to
    a single column. Requires ``n >= 2``, ``p >= 1`` and finite entries.
    """
    X = np.asarray(values, dtype=float)
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


def sym_matrix(A, tol: float = SYM_TOL) -> np.ndarray:
    """Validate a symmetric matrix and return its exact symmetrization.

    The input must be square and symmetric to within absolute tolerance
    ``tol``; the returned matrix is ``(A + A.T) / 2``.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise InvalidInputError("matrix contains non-finite entries")
    if np.abs(A - A.T).max(initial=0.0) > tol:
        raise InvalidInputError(f"matrix is not symmetric within tolerance {tol}")
    return (A + A.T) / 2.0


def center_columns(X) -> np.ndarray:
    """Subtract the global column mean from every row."""
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
    s = _check_count(s, "s", minimum=1)
    if s > p:
        raise InvalidInputError(f"s must be in [1, p]={p}, got {s}")
    return max(s * math.log(math.e * p / s), loglog8n(n))


def scan_rate(p, n, s, t) -> float:
    """Threshold rate for the exact sparse-eigenvalue scan at window ``t``:
    ``max(sqrt(g/t), g/t)`` with ``g = minimax_rate(p, n, s)``."""
    t = _check_count(t, "t", minimum=1)
    g = minimax_rate(p, n, s)
    return max(math.sqrt(g / t), g / t)


def scan_rate_relaxed(p, n, s, t) -> float:
    """Threshold rate for the SDP-relaxed scan at window ``t``:
    ``s * max(sqrt(L/t), L/t)`` with ``L = max(log(e*p), loglog8n(n))``.

    Dominates ``scan_rate`` for every admissible input, which is the price
    of the polynomial-time statistic.
    """
    p = _check_count(p, "p", minimum=1)
    s = _check_count(s, "s", minimum=1)
    if s > p:
        raise InvalidInputError(f"s must be in [1, p]={p}, got {s}")
    t = _check_count(t, "t", minimum=1)
    ell = max(math.log(math.e * p), loglog8n(n))
    return s * max(math.sqrt(ell / t), ell / t)


def _check_window(t, n):
    t = _check_count(t, "t", minimum=1)
    if t > n // 2:
        raise InvalidInputError(f"window t={t} must satisfy 1 <= t <= floor(n/2)={n // 2}")
    return t


def prefix_covariance(X, t) -> np.ndarray:
    """Normalized second-moment matrix of the first ``t`` rows,
    ``(1/t) * sum_{i<=t} X_i X_i^T``. Symmetric positive semidefinite."""
    X = as_series(X)
    t = _check_window(t, X.shape[0])
    block = X[:t]
    M = block.T @ block / t
    return (M + M.T) / 2.0


def suffix_covariance(X, t) -> np.ndarray:
    """Normalized second-moment matrix of the last ``t`` rows."""
    X = as_series(X)
    t = _check_window(t, X.shape[0])
    block = X[X.shape[0] - t:]
    M = block.T @ block / t
    return (M + M.T) / 2.0


class CovarianceScan:
    """Prefix and suffix second-moment matrices over an increasing window grid.

    The unnormalized sums are accumulated incrementally across the grid, so
    evaluating every window in ``dyadic_grid(n)`` costs ``O(n * p**2)`` in
    total rather than ``O(n * p**2)`` per window.
    """

    def __init__(self, X, grid=None):
        self.X = as_series(X)
        n = self.X.shape[0]
        if grid is None:
            grid = dyadic_grid(n)
        grid = sorted({_check_window(t, n) for t in grid})
        self._prefix = {}
        self._suffix = {}
        acc_pre = np.zeros((self.X.shape[1], self.X.shape[1]))
        acc_suf = np.zeros_like(acc_pre)
        prev = 0
        for t in grid:
            pre_block = self.X[prev:t]
            suf_block = self.X[n - t:n - prev]
            acc_pre = acc_pre + pre_block.T @ pre_block
            acc_suf = acc_suf + suf_block.T @ suf_block
            self._prefix[t] = (acc_pre + acc_pre.T) / (2.0 * t)
            self._suffix[t] = (acc_suf + acc_suf.T) / (2.0 * t)
            prev = t
        self.grid = grid

    def prefix(self, t) -> np.ndarray:
        if t not in self._prefix:
            return prefix_covariance(self.X, t)
        return self._prefix[t]

    def suffix(self, t) -> np.ndarray:
        if t not in self._suffix:
            return suffix_covariance(self.X, t)
        return self._suffix[t]

    def difference(self, t) -> np.ndarray:
        """``prefix(t) - suffix(t)``, the scanned covariance change."""
        return self.prefix(t) - self.suffix(t)


def signal_strength_uni(t0, n, sigma1_sq, sigma2_sq) -> float:
    """Signal strength of a variance change: ``min(t0, n-t0) * min(r, r**2)``
    with ``r = |sigma1_sq - sigma2_sq| / min(sigma1_sq, sigma2_sq)``."""
    n = _check_count(n, "n", minimum=2)
    t0 = _check_count(t0, "t0", minimum=1)
    if t0 > n - 1:
        raise InvalidInputError(f"t0 must be in [1, n-1]=[1, {n - 1}], got {t0}")
    if sigma1_sq <= 0 or sigma2_sq <= 0:
        raise InvalidInputError("variances must be strictly positive")
    ratio = abs(sigma1_sq - sigma2_sq) / min(sigma1_sq, sigma2_sq)
    return min(t0, n - t0) * min(ratio, ratio * ratio)


def signal_strength_multi(t0, n, Sigma1, Sigma2) -> float:
    """Signal strength of a covariance change under the operator norm.

    With ``d = opnorm(Sigma1 - Sigma2)`` and nominal noise level
    ``sigma_sq = max(opnorm(Sigma1), opnorm(Sigma2))``, returns
    ``min(t0, n-t0) * min(r, r**2)`` where ``r = d / (sigma_sq - d)``.
    Undefined (raises) when ``d >= sigma_sq``.
    """
    n = _check_count(n, "n", minimum=2)
    t0 = _check_count(t0, "t0", minimum=1)
    if t0 > n - 1:
        raise InvalidInputError(f"t0 must be in [1, n-1]=[1, {n - 1}], got {t0}")
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
    return min(t0, n - t0) * min(r, r * r)


def detectability_ratio_floor(p, n, s, t0, c) -> float:
    """Necessary sparse variance-ratio floor ``1 + max(c*g/d, sqrt(c*g/d))``
    with ``g = minimax_rate(p, n, s)`` and ``d = min(t0, n - t0)``.

    Below this floor on the maximal s-sparse variance ratio, no test can
    detect the change at signal strength ``c * g``.
    """
    n = _check_count(n, "n", minimum=2)
    t0 = _check_count(t0, "t0", minimum=1)
    if t0 > n - 1:
        raise InvalidInputError(f"t0 must be in [1, n-1]=[1, {n - 1}], got {t0}")
    if not (c > 0):
        raise InvalidInputError(f"c must be positive, got {c}")
    g = minimax_rate(p, n, s)
    delta = min(t0, n - t0)
    x = c * g / delta
    return 1.0 + max(x, math.sqrt(x))


@dataclass(frozen=True)
class UniSignal:
    """A variance-change alternative: location, pre/post variances, and the
    derived signal strength ``rho``."""

    t0: int
    n: int
    sigma1_sq: float
    sigma2_sq: float

    def __post_init__(self):
        signal_strength_uni(self.t0, self.n, self.sigma1_sq, self.sigma2_sq)

    @property
    def rho(self) -> float:
        return signal_strength_uni(self.t0, self.n, self.sigma1_sq, self.sigma2_sq)


@dataclass(frozen=True)
class MultiSignal:
    """A covariance-change alternative with claimed sparsity ``s``.

    ``sigma_sq`` is the nominal noise level (the larger operator norm) and
    ``rho`` the derived signal strength.
    """

    t0: int
    n: int
    Sigma1: np.ndarray
    Sigma2: np.ndarray
    s: int

    def __post_init__(self):
        object.__setattr__(self, "Sigma1", sym_matrix(self.Sigma1))
        object.__setattr__(self, "Sigma2", sym_matrix(self.Sigma2))
        p = self.Sigma1.shape[0]
        s = _check_count(self.s, "s", minimum=1)
        if s > p:
            raise InvalidInputError(f"s must be in [1, p]={p}, got {s}")
        signal_strength_multi(self.t0, self.n, self.Sigma1, self.Sigma2)

    @property
    def sigma_sq(self) -> float:
        return max(operator_norm(self.Sigma1), operator_norm(self.Sigma2))

    @property
    def rho(self) -> float:
        return signal_strength_multi(self.t0, self.n, self.Sigma1, self.Sigma2)
