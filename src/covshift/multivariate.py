"""Covariance changepoint tests for multivariate series.

Three variants run one shared scan over the dyadic window grid and a
sparsity set. Each works out a noise scale per sparsity (or why that
sparsity is skipped), a cell statistic and a threshold rate, and the scan
evaluates every ``(t, s)`` cell in the same order:

* ``covariance_test``: both the sparsity ``s`` of the change and the
  nominal noise level ``sigma_sq`` are known.
* ``adaptive_test``: the noise level is estimated per sparsity from the
  outermost data windows and the sparsity is scanned over a dyadic grid.
* ``adaptive_sdp_test``: the exact sparse eigenvalue is replaced by its
  semidefinite relaxation, making every cell polynomial-time in ``p``.

Every scanned cell appears exactly once in a report, either with its
statistic or in the skipped list with a reason.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    CovarianceScan,
    _check_count,
    _check_positive,
    as_series,
    scan_rate,
    scan_rate_relaxed,
    sparsity_grid,
    minimax_rate,
    operator_norm,
    sym_matrix,
)
from .exceptions import NoiseWindowError, UndecidableInputError
from .sdp_relax import relaxed_sparse_eigmax
from .sparse_eig import sparse_abs_eigmax

__all__ = [
    "MultiTestCell",
    "MultiTestReport",
    "covariance_test",
    "adaptive_test",
    "adaptive_sdp_test",
    "sparse_noise_level",
    "entrywise_noise_level",
]


@dataclass(frozen=True)
class MultiTestCell:
    t: int
    s: int
    stat: float
    noise_scale: float
    threshold: float
    triggered: bool
    converged: bool = True


class MultiTestReport:
    """Scan outcome over the window/sparsity grid.

    ``reject`` is the OR of ``triggered`` over cells; ``skipped`` holds
    ``(t, s, reason)`` entries for cells that could not be evaluated.
    ``cells`` may be built when first read (``cells``, ``to_dict()``,
    ``==``, ``repr``), with the values that solving every cell at call time
    would give. A report is read-only.
    """

    __slots__ = ("reject", "variant", "lam", "n", "p", "_cells", "skipped", "_max")

    def __init__(self, reject, variant, lam, n, p, cells, skipped=()):
        # ``cells``: the tuple of cells, or a function that builds it once.
        # ``_max``: set by the scan; see ``_max_ratio``.
        for name, value in zip(self.__slots__, (reject, variant, lam, n, p, cells, skipped, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"MultiTestReport is read-only; cannot set {name!r}")

    @property
    def cells(self) -> tuple[MultiTestCell, ...]:
        if callable(self._cells):
            object.__setattr__(self, "_cells", self._cells())
        return self._cells

    def _max_ratio(self) -> float:
        """``max(stat / threshold)`` over the cells; unbuilt cells stay unbuilt."""
        if callable(self._cells) and self._max is not None:
            return self._max()
        return max(c.stat / c.threshold for c in self.cells)

    def _fields(self):
        """The values of ``__slots__`` but ``_max``, with the cells built."""
        return (self.reject, self.variant, self.lam, self.n, self.p, self.cells, self.skipped)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "MultiTestReport(" + ", ".join(
            f"{k.lstrip('_')}={v!r}" for k, v in zip(self.__slots__, self._fields())) + ")"

    def __reduce__(self):
        return (MultiTestReport, self._fields())

    def to_dict(self) -> dict:
        return {
            "reject": self.reject,
            "variant": self.variant,
            "lambda": self.lam,
            "n": self.n,
            "p": self.p,
            "cells": [asdict(c) for c in self.cells],
            "skipped": [{"t": t, "s": s, "reason": r} for t, s, r in self.skipped],
        }


def _outer_windows(X, w, label):
    """Second-moment matrices of the first and the last ``w`` rows of ``X``;
    ``label`` names ``w`` in the error raised when the two would overlap."""
    n = X.shape[0]
    if w > n // 2:
        raise NoiseWindowError(
            f"noise window {label}={w} does not fit twice in n={n}; "
            f"the estimator needs n >= {2 * w} samples"
        )
    head, tail = X[:w], X[n - w:]
    return head.T @ head / w, tail.T @ tail / w


def sparse_noise_level(X, s) -> float:
    """Noise-level estimate for sparsity ``s`` from the outermost windows.

    Uses the first and last ``ceil(minimax_rate(p, n, s))`` observations,
    the smallest windows on which an s-sparse change is detectable at all,
    and returns the smaller of the two s-sparse eigenvalues so that a
    changepoint inside one window cannot inflate the estimate. Raises
    ``NoiseWindowError`` when the two windows would overlap; the windows
    and that check are shared with ``entrywise_noise_level``.
    """
    X = as_series(X)
    n, p = X.shape
    w = math.ceil(minimax_rate(p, n, s))
    windows = _outer_windows(X, w, f"ceil(minimax_rate(p, n, {s}))")
    return min(sparse_abs_eigmax(M, s).value for M in windows)


def entrywise_noise_level(X) -> float:
    """Noise-level estimate for the SDP-relaxed scan.

    The relaxation of the 1-sparse eigenvalue of a PSD matrix is its
    largest absolute entry, so the estimate is the smaller entrywise
    max-abs of the two outermost windows of length ``ceil(log(e*p))``.
    """
    X = as_series(X)
    windows = _outer_windows(X, math.ceil(math.log(math.e * X.shape[1])), "ceil(log(e*p))")
    return min(float(np.abs(M).max()) for M in windows)


def _scan(variant, X, lam, noise, stat, rate):
    """The (t, s) scan that every covariance test runs.

    ``noise`` maps each sparsity, in scan order, to its noise scale or to
    the reason it is skipped; ``stat(diff, s)`` returns a cell's
    ``(statistic, converged)``. A cell triggers when its statistic exceeds
    ``lam * noise[s] * rate(p, n, s, t)``.

    ``reject`` is decided now. The s = 1 cells are solved first; every
    other cell is capped by ``min(operator_norm(diff), s * max|diff|)``,
    which bounds the exact and the relaxed statistic alike, plus a margin
    ``1e-9 * max(1, s * max|diff|)`` that exceeds any rounding by which a
    statistic can pass its cap. Unless an s = 1 cell triggers, the cells
    whose cap exceeds their threshold are solved in descending order of
    cap / threshold until one triggers. The report builds its cells on
    first read, reusing the window differences and every statistic solved
    so far and solving each remaining cell once, in scan order. Its
    ``_max_ratio()`` walks the same order while the cells are unbuilt,
    stopping at the first cap / threshold below the running maximum, so no
    unsolved cell could raise it.
    """
    n, p = X.shape
    scan = CovarianceScan(X)
    cells = []  # (t, s, noise scale, threshold, diff), in scan order
    skipped = []
    for t in scan.grid:
        diff = scan.difference(t)
        if not np.isfinite(diff).all():
            sym_matrix(diff)  # raises what solving any cell of this window would
        for s, scale in noise.items():
            if isinstance(scale, str):
                skipped.append((t, s, scale))
            else:
                cells.append((t, s, scale, lam * scale * rate(p, n, s, t), diff))
    if not cells:
        raise UndecidableInputError(
            "every (t, s) cell was skipped; the sample is too short for any "
            "sparsity in the scan"
        )
    solved = {}

    def value(i):
        if i not in solved:
            solved[i] = stat(cells[i][4], cells[i][1])
        return solved[i][0]

    @functools.cache
    def ranked():
        """``(cap / threshold, cap, i)`` for every cell with s >= 2, by
        descending ratio; a zero threshold (zero noise scale) ranks first."""
        norms, out = {}, []
        for i, (t, s, _, threshold, diff) in enumerate(cells):
            if s > 1:
                if t not in norms:
                    norms[t] = operator_norm(diff), float(np.abs(diff).max())
                op, amax = norms[t]
                cap = min(op, s * amax) + 1e-9 * max(1.0, s * amax)
                out.append((cap / threshold if threshold else math.inf, cap, i))
        return sorted(out, key=lambda c: c[0], reverse=True)

    singles = [i for i, c in enumerate(cells) if c[1] == 1]

    def max_ratio():
        best = max((value(i) / cells[i][3] for i in singles), default=-math.inf)
        for bound, _, i in ranked():
            if bound < best:
                break
            best = max(best, value(i) / cells[i][3])
        return best

    def build():
        return tuple(
            MultiTestCell(
                t=t,
                s=s,
                stat=value(i),
                noise_scale=scale,
                threshold=threshold,
                triggered=value(i) > threshold,
                converged=solved[i][1],
            )
            for i, (t, s, scale, threshold, _) in enumerate(cells)
        )

    report = MultiTestReport(
        reject=any(value(i) > cells[i][3] for i in singles) or any(
            value(i) > cells[i][3] for _, cap, i in ranked() if cap > cells[i][3]),
        variant=variant,
        lam=lam,
        n=n,
        p=p,
        cells=build,
        skipped=tuple(skipped),
    )
    object.__setattr__(report, "_max", max_ratio)
    return report


def _exact_stat(diff, s):
    return sparse_abs_eigmax(diff, s).value, True


def covariance_test(X, lam, s, sigma_sq) -> MultiTestReport:
    """Covariance changepoint scan with known sparsity and noise level.

    A window triggers when the s-sparse eigenvalue of the covariance
    difference exceeds ``lam * sigma_sq * scan_rate(p, n, s, t)``.
    """
    X = as_series(X)
    lam = _check_positive(lam, "lambda")
    sigma_sq = _check_positive(sigma_sq, "sigma_sq")
    s = _check_count(s, "s")
    report = _scan("oracle", X, lam, {s: sigma_sq}, _exact_stat, scan_rate)
    report.cells  # the exact tests solve every cell at call time (ROADMAP item 3)
    return report


def adaptive_test(X, lam) -> MultiTestReport:
    """Noise- and sparsity-adaptive covariance changepoint scan.

    Scans sparsities from the dyadic sparsity grid whose rate fits the
    sample (``minimax_rate(p, n, s) <= n``), standardizing each by its own
    windowed noise estimate. Sparsities whose noise window does not fit are
    recorded as skipped; if nothing remains, the input is undecidable.
    """
    X = as_series(X)
    lam = _check_positive(lam, "lambda")
    n, p = X.shape
    noise = {}
    for s in sparsity_grid(p):
        if minimax_rate(p, n, s) > n:
            noise[s] = "rate exceeds n"
            continue
        try:
            noise[s] = sparse_noise_level(X, s)
        except NoiseWindowError:
            noise[s] = "noise window does not fit"
    report = _scan("adaptive", X, lam, noise, _exact_stat, scan_rate)
    report.cells  # the exact tests solve every cell at call time (ROADMAP item 3)
    return report


def adaptive_sdp_test(X, lam) -> MultiTestReport:
    """Polynomial-time variant of the adaptive scan.

    Each cell statistic is the certified lower endpoint of the SDP
    relaxation of the sparse eigenvalue, compared against
    ``lam * noise * scan_rate_relaxed(p, n, s, t)``. Cells where the
    relaxation solver did not certify its gap are still evaluated and
    flagged via ``converged=False``.
    """
    X = as_series(X)
    lam = _check_positive(lam, "lambda")
    try:
        noise = entrywise_noise_level(X)
    except NoiseWindowError as exc:
        raise UndecidableInputError(str(exc)) from exc

    def stat(diff, s):
        sol = relaxed_sparse_eigmax(diff, s)
        return sol.lower, sol.converged

    noise = dict.fromkeys(sparsity_grid(X.shape[1]), noise)
    return _scan("adaptive_sdp", X, lam, noise, stat, scan_rate_relaxed)
