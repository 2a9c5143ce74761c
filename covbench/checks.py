"""Output checks that any correct covshift implementation passes.

Each check compares the program against a plain-numpy computation made
here, or against a property that the scans, the certified relaxation,
calibration and the CLI must have. A failed check is recorded in a
``Checker``; the run then reports ``correct: false``.
"""

from __future__ import annotations

import math

import numpy as np

# Relative tolerance for quantities that the program and the checks compute
# by different but equally exact routes (batched vs single eigvalsh, etc.).
REL = 1e-9


class Checker:
    def __init__(self):
        self.failures = []
        self.count = 0

    def expect(self, ok, what):
        self.count += 1
        if not ok and len(self.failures) < 50:
            self.failures.append(what)

    @property
    def ok(self):
        return not self.failures


def _close(a, b, rel=REL, scale=1.0):
    return abs(a - b) <= rel * max(scale, abs(a), abs(b))


def dyadic(n):
    out, t = [], 1
    while t <= n // 2:
        out.append(t)
        t *= 2
    return out


def opnorm(A):
    w = np.linalg.eigvalsh(A)
    return float(max(abs(w[0]), abs(w[-1])))


def window_difference(X, t):
    """Prefix minus suffix second-moment matrix at window ``t``."""
    head, tail = X[:t], X[X.shape[0] - t:]
    return head.T @ head / t - tail.T @ tail / t


# --- reports (library report objects or the CLI's JSON result) -------------

def _cells(report):
    """``(cells, skipped, reject)`` with cells as ``(t, s, stat, threshold,
    triggered)``; ``s`` is None for univariate reports."""
    if not isinstance(report, dict):
        report = report.to_dict()
    cells = [(c["t"], c.get("s"), c["stat"], c["threshold"], c["triggered"]) for c in report["cells"]]
    skipped = [(k["t"], k.get("s")) for k in report["skipped"]]
    return cells, skipped, report["reject"]


def check_report(chk, report, n, p, label):
    """Decision logic and grid coverage of one scan report."""
    cells, skipped, reject = _cells(report)
    for t, s, stat, thr, trig in cells:
        chk.expect(trig == (stat > thr), f"{label}: cell (t={t}, s={s}) triggered={trig} "
                   f"but stat={stat!r} vs threshold={thr!r}")
        chk.expect(math.isfinite(thr) and thr > 0, f"{label}: threshold {thr!r} at t={t}")
    chk.expect(reject == any(c[4] for c in cells), f"{label}: reject != any(triggered)")
    if p is None:
        grid = [(t, None) for t in dyadic(n)]
    else:
        grid = [(t, s) for t in dyadic(n) for s in dyadic(2 * p)]
    seen = sorted([(c[0], c[1]) for c in cells] + skipped, key=lambda k: (k[0], k[1] or 0))
    chk.expect(seen == grid, f"{label}: cells+skipped {seen[:6]}... != grid of {len(grid)}")


def check_uni_stats(chk, report, x, label):
    """Univariate window statistics against plain-numpy window variances."""
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    cells, skipped, _ = _cells(report)
    chk.expect(not skipped, f"{label}: unexpected skipped windows {skipped}")
    for t, _, stat, _, _ in cells:
        v1 = float(np.dot(x[:t], x[:t])) / t
        v2 = float(np.dot(x[n - t:], x[n - t:])) / t
        want = max(v1 / v2, v2 / v1) - 1.0
        chk.expect(_close(stat, want, rel=1e-10, scale=0.0),
                   f"{label}: t={t} stat {stat!r} != numpy {want!r}")


def check_multi_stats(chk, report, X, family, label):
    """Covariance-scan cells against bounds from plain-numpy matrices.

    Every cell statistic lies between the 1-sparse value ``max|diag D|`` and
    ``min(opnorm D, s * max|D_ij|)``; the exact scan meets the lower end at
    ``s = 1`` and the upper end at ``s = p``, and grows with ``s``.
    """
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    cells, _, _ = _cells(report)
    by_t = {}
    for t, s, stat, _, _ in cells:
        by_t.setdefault(t, []).append((s, stat))
    for t, row in by_t.items():
        D = window_difference(X, t)
        lo = float(np.abs(np.diag(D)).max())
        op = opnorm(D)
        amax = float(np.abs(D).max())
        prev = -math.inf
        for s, stat in sorted(row):
            hi = min(op, s * amax)
            chk.expect(lo * (1 - REL) <= stat <= hi * (1 + REL) + 1e-12,
                       f"{label}: t={t} s={s} stat {stat!r} outside [{lo!r}, {hi!r}]")
            if family == "adaptive":
                chk.expect(stat >= prev * (1 - REL), f"{label}: t={t} stat falls at s={s}")
                if s == 1:
                    chk.expect(_close(stat, lo), f"{label}: t={t} s=1 stat {stat!r} != {lo!r}")
                if s == p:
                    chk.expect(_close(stat, op), f"{label}: t={t} s=p stat {stat!r} != {op!r}")
            prev = stat
    if family == "adaptive_sdp":
        w = math.ceil(math.log(math.e * p))
        head, tail = X[:w], X[n - w:]
        want = min(float(np.abs(head.T @ head / w).max()), float(np.abs(tail.T @ tail / w).max()))
        for c in report.cells:
            chk.expect(_close(c.noise_scale, want), f"{label}: noise {c.noise_scale!r} != {want!r}")


def check_cli_matches(chk, payload, report, label):
    """The CLI report's decision and every cell statistic equal the library's
    report on the same panel; 17 significant digits round-trip exactly."""
    res = payload.get("result")
    chk.expect(res is not None, f"{label}: no result record")
    if res is None:
        return
    lib_cells, _, lib_reject = _cells(report)
    cli_cells, _, cli_reject = _cells(res)
    chk.expect(cli_reject == lib_reject, f"{label}: CLI reject differs from library")
    chk.expect([c[:3] for c in cli_cells] == [c[:3] for c in lib_cells],
               f"{label}: CLI cell statistics differ from library")


# --- layer results (traced run, every call) --------------------------------

def check_sparse_eig(chk, A, s, res):
    A = np.asarray(A, dtype=float)
    p = A.shape[0]
    v = np.asarray(res.vector, dtype=float)
    chk.expect(len(res.support) == s, f"sparse_eig: |support|={len(res.support)} != s={s}")
    off = np.ones(p, dtype=bool)
    off[list(res.support)] = False
    chk.expect(not np.any(v[off]), "sparse_eig: vector nonzero off its support")
    chk.expect(abs(float(v @ v) - 1.0) <= 1e-12, "sparse_eig: vector is not unit")
    q = abs(float(v @ A @ v))
    chk.expect(_close(q, res.value, scale=float(np.abs(A).max())), f"sparse_eig: |v'Av|={q!r} != value={res.value!r}")
    lo = float(np.abs(np.diag(A)).max())
    hi = min(opnorm(A), s * float(np.abs(A).max()))
    chk.expect(lo * (1 - REL) <= res.value <= hi * (1 + REL),
               f"sparse_eig: value {res.value!r} outside [{lo!r}, {hi!r}]")


def check_relaxation(chk, A, s, sol):
    A = np.asarray(A, dtype=float)
    Z, Y = np.asarray(sol.Z), np.asarray(sol.Y)
    scale = max(1.0, s * float(np.abs(A).max()))
    chk.expect(float(np.linalg.eigvalsh(Z)[0]) >= -1e-9, "sdp_relax: Z is not PSD")
    chk.expect(abs(float(np.trace(Z)) - 1.0) <= 1e-9, "sdp_relax: trace Z != 1")
    chk.expect(float(np.abs(Z).sum()) <= s * (1 + 1e-9), "sdp_relax: sum|Z| > s")
    chk.expect(_close(abs(float(np.sum(A * Z))), sol.lower, scale=scale),
               "sdp_relax: |<A, Z>| != lower")
    cert = float(np.linalg.eigvalsh(sol.dual_sign * A + Y)[-1]) + s * float(np.abs(Y).max(initial=0.0))
    chk.expect(_close(cert, sol.upper, scale=scale),
               f"sdp_relax: upper {sol.upper!r} != certificate {cert!r}")
    # Where the gap is zero (s = 1, or an l1-feasible leading eigenvector)
    # the two endpoints are one number computed two ways, so they may cross
    # by rounding.
    chk.expect(sol.lower <= sol.upper + REL * scale,
               f"sdp_relax: lower {sol.lower!r} > upper {sol.upper!r}")
    chk.expect(sol.upper >= float(np.abs(np.diag(A)).max()) * (1 - REL), "sdp_relax: upper < max|diag A|")


# --- calibration and Type I -------------------------------------------------

def _log_beta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def type1_band(cal_reps, delta, check_reps, tail=1e-7):
    """Acceptance band for the number of rejected nulls.

    ``calibrate_lambda`` returns an order statistic of ``cal_reps`` null
    maxima, so for a fresh null the rejection probability is Beta
    distributed, and the count among ``check_reps`` fresh nulls is
    beta-binomial. That law accounts for both sample sizes; the band keeps
    every count whose lower and upper tail probabilities both exceed
    ``tail``.
    """
    j = int(np.quantile(np.arange(cal_reps), 1.0 - delta, method="higher")) + 1
    a, b = cal_reps + 1 - j, j
    m = check_reps
    logs = [
        math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
        + _log_beta(k + a, m - k + b) - _log_beta(a, b)
        for k in range(m + 1)
    ]
    pmf = np.exp(np.array(logs))
    pmf /= pmf.sum()
    cdf = np.cumsum(pmf)
    sf = np.cumsum(pmf[::-1])[::-1]
    ok = np.nonzero((cdf > tail) & (sf > tail))[0]
    return int(ok[0]), int(ok[-1])
