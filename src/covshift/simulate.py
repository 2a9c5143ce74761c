"""Minimax simulation engine: lower-bound priors, chi-square divergence,
Monte Carlo error estimation, and threshold calibration.

Randomness policy: every sampler takes an explicit seed and derives a
counter-based Philox generator from it, so replicate ``r`` of a run with
seed ``seed`` is a pure function of ``(seed, r)`` and results cannot depend
on execution order or thread count.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    _check_count, _check_positive, _check_sparsity, _in_range, dyadic_grid, loglog8n, minimax_rate,
)
from .exceptions import CovshiftError, InvalidInputError, SignalDomainError
from .multivariate import adaptive_sdp_test, adaptive_test, covariance_test
from .univariate import variance_test

__all__ = [
    "PriorSpec",
    "AltDraw",
    "SimOutcome",
    "variance_shrinkage",
    "sample_alternative",
    "sample_series",
    "null_series",
    "ChisqCrossTerm",
    "chisq_cross_term",
    "mixture_chisq_uni",
    "mixture_chisq_uni_proof_bound",
    "mixture_chisq_multi_exact",
    "minimax_lower_bound",
    "monte_carlo_errors",
    "calibrate_lambda",
    "detection_boundary_uni",
    "FAMILIES",
    "run_test",
]

# Stream tags keep the null, prior, data, and calibration draws on disjoint
# Philox streams for the same user seed.
_S_NULL, _S_PRIOR, _S_DATA, _S_CAL = 1, 2, 3, 4

# How ``run_test`` calls each family's test. The tests are looked up in this
# module's globals at call time, not bound here, so a wrapper placed on
# ``covshift.simulate.<test>`` sees every call made through the table.
_FAMILY_TESTS = {
    "uni": lambda X, lam, **_: variance_test(X, lam),
    "oracle": lambda X, lam, s, sigma_sq: covariance_test(X, lam, s, sigma_sq),
    "adaptive": lambda X, lam, **_: adaptive_test(X, lam),
    "adaptive_sdp": lambda X, lam, **_: adaptive_sdp_test(X, lam),
}
FAMILIES = tuple(_FAMILY_TESTS)


def run_test(family, X, lam, s=None, sigma_sq=1.0):
    """Report of the ``family`` test (one of ``FAMILIES``) on ``X`` at
    threshold multiplier ``lam``. ``s`` and ``sigma_sq`` are the oracle's
    known sparsity and noise level; the other families ignore them."""
    if family not in FAMILIES:
        raise InvalidInputError(f"unknown test family {family!r}; choose from {FAMILIES}")
    return _FAMILY_TESTS[family](X, lam, s=s, sigma_sq=sigma_sq)


def _rng(entropy) -> np.random.Generator:
    try:
        words = [int(entropy)] if isinstance(entropy, (int, np.integer)) else list(entropy)
        seq = np.random.SeedSequence(words)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(
            f"seed must be a nonnegative integer or a sequence of them, got {entropy!r} ({exc})"
        ) from exc
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class PriorSpec:
    """Parameters of a least-favorable alternative prior.

    ``rho`` is the signal strength every draw reproduces exactly;
    ``sigma_sq`` is the post-change (nominal) noise level. ``s`` is only
    meaningful for ``kind='multi'``.
    """

    kind: str
    n: int
    p: int
    sigma_sq: float
    rho: float
    s: int = 1

    def __post_init__(self):
        if self.kind not in ("uni", "multi"):
            raise InvalidInputError(f"kind must be 'uni' or 'multi', got {self.kind!r}")
        _check_count(self.n, "n", minimum=2)
        _check_count(self.p, "p")
        if self.kind == "uni" and self.p != 1:
            raise InvalidInputError("kind='uni' requires p=1")
        _check_sparsity(self.s, self.p)
        _check_positive(self.sigma_sq, "sigma_sq", finite=True)
        _check_positive(self.rho, "rho", finite=True)


@dataclass(frozen=True)
class AltDraw:
    """One draw from the alternative prior.

    The changepoint sits at ``delta`` (pre-change rows ``1..delta``), with
    pre-change covariance ``Sigma1 = sigma_sq*I - kappa*u u^T`` and
    post-change covariance ``Sigma2 = sigma_sq*I``, where ``kappa`` is
    ``variance_shrinkage(delta, rho, sigma_sq)``. For univariate draws
    ``u`` is ``None`` and the covariances are 1x1.
    """

    delta: int
    u: np.ndarray | None
    Sigma1: np.ndarray
    Sigma2: np.ndarray


def variance_shrinkage(delta, rho, sigma_sq) -> float:
    """Shrinkage ``kappa`` making a pre-change variance drop of size
    ``kappa`` at gap ``delta`` have signal strength exactly ``rho``.

    Equals ``sigma_sq * rho / (delta + rho)`` when ``delta <= rho`` (linear
    branch) and ``sigma_sq * sqrt(rho) / (sqrt(delta) + sqrt(rho))``
    otherwise (quadratic branch); always in ``(0, sigma_sq)``.
    """
    _check_count(delta, "delta")
    _check_positive(rho, "rho", finite=True)
    _check_positive(sigma_sq, "sigma_sq", finite=True)
    if delta <= rho:
        return sigma_sq * rho / (delta + rho)
    return sigma_sq * math.sqrt(rho) / (math.sqrt(delta) + math.sqrt(rho))


def sample_alternative(spec: PriorSpec, seed, delta=None) -> AltDraw:
    """Draw an alternative from the prior.

    The gap is ``delta = 2**l`` with ``l`` uniform on
    ``{0, ..., floor(log2(n/2))}`` unless ``delta`` is supplied explicitly
    (for fixed-changepoint studies). Multivariate draws place the change
    along a uniformly chosen size-``s`` support with i.i.d. ``+-s**-0.5``
    entries.
    """
    rng = _rng(seed)
    if delta is None:
        grid = dyadic_grid(spec.n)
        delta = grid[rng.integers(0, len(grid))]
    else:
        delta = _check_count(delta, "delta")
        if delta > spec.n - 1:
            raise InvalidInputError(f"delta must be in [1, n-1], got {delta}")
    kap = variance_shrinkage(delta, spec.rho, spec.sigma_sq)
    if spec.kind == "uni":
        Sigma1 = np.array([[spec.sigma_sq - kap]])
        Sigma2 = np.array([[spec.sigma_sq]])
        return AltDraw(delta, None, Sigma1, Sigma2)
    support = np.sort(rng.choice(spec.p, size=spec.s, replace=False))
    signs = rng.integers(0, 2, size=spec.s) * 2 - 1
    u = np.zeros(spec.p)
    u[support] = signs / math.sqrt(spec.s)
    Sigma2 = spec.sigma_sq * np.eye(spec.p)
    Sigma1 = Sigma2 - kap * np.outer(u, u)
    return AltDraw(delta, u, Sigma1, Sigma2)


def sample_series(draw: AltDraw, n, p, seed) -> np.ndarray:
    """Generate ``n`` rows: the first ``delta`` i.i.d. N(0, Sigma1), the
    rest i.i.d. N(0, Sigma2), each a standard normal row times the
    transposed Cholesky factor of its covariance. Bit-identical for a fixed
    seed."""
    n, p = _check_count(n, "n"), _check_count(p, "p")
    if draw.Sigma1.shape != (p, p):
        raise InvalidInputError(
            f"draw has dimension {draw.Sigma1.shape[0]}, expected p={p}"
        )
    if not (1 <= draw.delta <= n - 1):
        raise InvalidInputError(f"draw.delta={draw.delta} outside [1, n-1]")
    rng = _rng(seed)
    Z = rng.standard_normal((n, p))
    d = draw.delta
    X = np.empty_like(Z)
    L1 = np.linalg.cholesky(draw.Sigma1)
    L2 = np.linalg.cholesky(draw.Sigma2)
    X[:d] = Z[:d] @ L1.T
    X[d:] = Z[d:] @ L2.T
    return X


def null_series(n, p, sigma_sq, seed) -> np.ndarray:
    """``n`` i.i.d. rows of N(0, sigma_sq * I_p)."""
    shape = (_check_count(n, "n"), _check_count(p, "p"))
    scale = math.sqrt(_check_positive(sigma_sq, "sigma_sq", finite=True))
    return scale * _rng(seed).standard_normal(shape)


@dataclass(frozen=True)
class ChisqCrossTerm:
    """Exact mixture cross-moment and its exponential upper bound."""

    value: float
    bound: float


def _log_cross_term(d1, a1, a2, inner):
    """Logarithm of the cross moment
    ``{(1+a1)(1+a2) / (1 + a1 + a2 + a1*a2*(1 - inner^2))} ** (d1/2)``,
    elementwise over broadcast arrays; symmetric in ``(a1, a2)``."""
    num = (1.0 + a1) * (1.0 + a2)
    den = 1.0 + a1 + a2 + a1 * a2 * (1.0 - inner * inner)
    return 0.5 * d1 * np.log(num / den)


def chisq_cross_term(delta1, delta2, kappa1, kappa2, sigma_sq, inner) -> ChisqCrossTerm:
    """Cross-moment of two alternative likelihood ratios under the null.

    For two rank-one shrinkage alternatives with gaps ``delta1 <= delta2``,
    shrinkages ``kappa1, kappa2`` and direction inner product ``inner``,
    the expectation of the product of their likelihood ratios against
    N(0, sigma_sq*I) has the closed form

        {(1+a1)(1+a2) / (1 + a1 + a2 + a1*a2*(1 - inner^2))} ** (delta1/2),

    with ``a_i = kappa_i / (sigma_sq - kappa_i)``. The returned ``bound``
    is the exponential envelope

        exp(inner^2/2 * min(sqrt(delta1/delta2) * sqrt(delta2*a2^2)
                            * sqrt(delta1*a1^2),  delta1*a1)),

    which always dominates the closed form.
    """
    if not (_in_range(delta1, 0, delta2) and delta1 >= 1):  # False for a non-number
        raise InvalidInputError(
            f"need 1 <= delta1 <= delta2, got ({delta1}, {delta2}); sort before calling"
        )
    _check_positive(sigma_sq, "sigma_sq")
    for k in (kappa1, kappa2):
        if not _check_positive(k, "kappa") < sigma_sq:
            raise SignalDomainError(f"kappa={k} must lie in (0, sigma_sq={sigma_sq})")
    if not (_in_range(inner, -1.0, 1.0) or inner == -1.0):
        raise InvalidInputError(f"inner must lie in [-1, 1], got {inner}")
    a1 = kappa1 / (sigma_sq - kappa1)
    a2 = kappa2 / (sigma_sq - kappa2)
    try:
        value = math.exp(float(_log_cross_term(delta1, a1, a2, inner)))
    except OverflowError:
        value = math.inf
    exponent = 0.5 * inner * inner * min(
        math.sqrt(delta1 / delta2)
        * math.sqrt(delta2 * a2 * a2)
        * math.sqrt(delta1 * a1 * a1),
        delta1 * a1,
    )
    try:
        bound = math.exp(exponent)
    except OverflowError:
        bound = math.inf
    if value > bound * (1.0 + 1e-9):
        raise RuntimeError(
            f"internal inconsistency: closed form {value} exceeds its bound {bound}"
        )
    return ChisqCrossTerm(value=value, bound=bound)


def _mixture_chisq(n, sigma_sq, rho, inner, weights) -> float:
    """Chi-square divergence between the null and the mixture alternative
    over the equiprobable gap grid, where the two directions' inner product
    takes the value ``inner[m]`` with probability ``weights[m]``:
    ``weights @ mean_ij(cross term at gaps i, j) - 1``, the pair's shorter
    gap setting the exponent."""
    grid = dyadic_grid(n)
    kappa = np.array([variance_shrinkage(d, rho, sigma_sq) for d in grid])
    a = kappa / (sigma_sq - kappa)
    inner = np.asarray(inner, dtype=float)[:, None, None]
    with np.errstate(over="ignore"):
        terms = np.exp(_log_cross_term(np.minimum.outer(grid, grid), a[:, None], a, inner))
    return float(np.asarray(weights) @ terms.mean(axis=(1, 2))) - 1.0


def mixture_chisq_uni(n, sigma_sq, rho) -> float:
    """Exact chi-square divergence between the univariate mixture
    alternative and the null, via the closed-form double sum over the
    equiprobable gap grid (directions are fully aligned: inner = 1)."""
    return _mixture_chisq(n, sigma_sq, rho, [1.0], [1.0])


def mixture_chisq_uni_proof_bound(n, sigma_sq, rho) -> float:
    """Upper bound on the univariate mixture chi-square using the split
    exponential envelope instead of the exact cross terms; always at least
    ``mixture_chisq_uni``, which it exists to check; ``inf`` once a term
    overflows."""
    _check_positive(rho, "rho", finite=True)
    _check_positive(sigma_sq, "sigma_sq", finite=True)
    deltas = dyadic_grid(n)
    total = 0.0
    try:
        for di in deltas:
            for dj in deltas:
                l1, l2 = int(math.log2(di)), int(math.log2(dj))
                term = math.exp(2.0 ** (-abs(l1 - l2) / 2.0 - 1.0) * rho)
                if min(di, dj) <= rho:
                    term += math.exp(rho / 2.0)
                total += term
    except OverflowError:
        return math.inf
    return total / len(deltas) ** 2 - 1.0


def mixture_chisq_multi_exact(p, n, s, sigma_sq, rho) -> float:
    """Exact chi-square divergence for the multivariate mixture alternative.

    The two sparse directions overlap in ``h ~ Hypergeometric(p, s, s)``
    coordinates and agree in sign on ``k ~ Binomial(h, 1/2)`` of them, so
    their inner product is ``g/s`` with ``g = 2k - h``. The cross term
    depends on ``g`` only through ``|g|``; its exact law on ``{0, ..., s}``
    weights one closed-form evaluation over the gap grid. At ``p = s = 1``
    this is ``mixture_chisq_uni``.
    """
    p = _check_count(p, "p")
    s = _check_sparsity(s, p)
    total_supports = math.comb(p, s)
    weights = np.zeros(s + 1)
    for h in range(s + 1):
        p_h = math.comb(s, h) * math.comb(p - s, s - h) / total_supports
        if p_h == 0.0:
            continue
        for k in range(h + 1):
            weights[abs(2 * k - h)] += p_h * (math.comb(h, k) / 2 ** h)
    keep = weights > 0.0
    return _mixture_chisq(n, sigma_sq, rho, np.arange(s + 1)[keep] / s, weights[keep])


def minimax_lower_bound(alpha) -> float:
    """Lower bound on the worst-case sum of Type I and II errors of any
    test, ``max(exp(-alpha)/2, 1 - sqrt(alpha/2))``, from a chi-square
    divergence ``alpha`` between null and alternative mixtures."""
    if not _in_range(0.0, -math.inf, alpha):  # 0 <= alpha, False for a non-number
        raise InvalidInputError(f"alpha must be nonnegative, got {alpha}")
    return max(0.5 * math.exp(-alpha), 1.0 - math.sqrt(alpha / 2.0))


@dataclass(frozen=True)
class SimOutcome:
    """Monte Carlo Type I/II estimates with binomial standard errors.

    Replicates whose test raised one of covshift's errors are tallied
    separately in ``failed_null`` / ``failed_alt`` and never silently dropped.
    ``seed`` is the run's seed as given, a sequence seed as a tuple, so
    passing it back reproduces the outcome.
    """

    type1: float
    type2: float
    se1: float
    se2: float
    reps: int
    seed: int | tuple[int, ...]
    failed_null: int = 0
    failed_alt: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def _binom_se(rate, reps):
    return math.sqrt(rate * (1.0 - rate) / reps)


def _alternative_panel(spec, seed, r):
    """Replicate ``r``'s data panel: a draw from the prior on stream
    ``[seed, r, _S_PRIOR]``, then its series on ``[seed, r, _S_DATA]``."""
    draw = sample_alternative(spec, [seed, r, _S_PRIOR])
    return sample_series(draw, spec.n, spec.p, [seed, r, _S_DATA])


def monte_carlo_errors(test, spec: PriorSpec, reps, seed) -> SimOutcome:
    """Estimate Type I and Type II error rates of a test callable.

    ``test`` maps an ``(n, p)`` array to a boolean rejection; a replicate
    raising ``CovshiftError`` counts as failed, other errors propagate. Nulls are
    i.i.d. N(0, sigma_sq*I); alternatives are drawn from the prior. Each
    replicate derives its own generators from ``(seed, replicate)``, so the
    outcome is independent of evaluation order.
    """
    reps = _check_count(reps, "reps")
    rejected_null = accepted_alt = failed_null = failed_alt = 0
    for r in range(reps):
        X0 = null_series(spec.n, spec.p, spec.sigma_sq, [seed, r, _S_NULL])
        try:
            if test(X0):
                rejected_null += 1
        except CovshiftError:
            failed_null += 1
        X1 = _alternative_panel(spec, seed, r)
        try:
            if not test(X1):
                accepted_alt += 1
        except CovshiftError:
            failed_alt += 1
    type1 = rejected_null / reps
    type2 = accepted_alt / reps
    return SimOutcome(
        type1=type1,
        type2=type2,
        se1=_binom_se(type1, reps),
        se2=_binom_se(type2, reps),
        reps=int(reps),
        seed=int(seed) if isinstance(seed, (int, np.integer)) else tuple(map(int, seed)),
        failed_null=failed_null,
        failed_alt=failed_alt,
    )


def calibrate_lambda(family, n, p=1, s=None, delta: float = 0.1, reps: int = 1000,
                     seed=0) -> float:
    """Empirical null quantile of the maximal standardized scan statistic.

    Simulates ``reps`` null datasets (i.i.d. N(0, I)), computes for each
    the maximum of ``statistic / (noise_scale * rate)`` over its scan
    cells, and returns the empirical ``1 - delta`` quantile (upper order
    statistic, hence monotone in ``delta``; ``delta=1`` degenerates to the
    minimum). The result is the threshold multiplier ``lam`` giving the
    corresponding test an approximate level of ``delta``. A covariance
    report finds its maximum without building its cells, so a scan solves
    only the cells that can set it. The family's test checks ``family``,
    ``p`` and ``s`` itself, on the first null replicate; the exact families
    raise ``EnumerationBudgetError`` beyond ``sparse_abs_eigmax``'s cap of
    2,000,000 supports.
    """
    reps = _check_count(reps, "reps")
    if not _in_range(delta, 0, 1):
        raise InvalidInputError(f"delta must lie in (0, 1], got {delta}")
    if reps * delta < 5:
        raise InvalidInputError(
            f"reps*delta = {reps * delta} < 5: too few replicates to place "
            f"the 1-delta quantile"
        )
    stats = np.empty(reps)
    for r in range(reps):
        X = null_series(n, p, 1.0, [seed, r, _S_CAL])
        stats[r] = run_test(family, X, 1.0, s=s)._max_ratio()
    return float(np.quantile(stats, 1.0 - delta, method="higher"))


def _power_uni(n, lam, rho, reps, seed):
    """Rejection rate of the univariate test against the prior at signal
    strength rho and unit noise level. Common random numbers across rho
    values: replicate r uses the same streams regardless of rho."""
    spec = PriorSpec("uni", n=n, p=1, sigma_sq=1.0, rho=rho)
    rejected = sum(run_test("uni", _alternative_panel(spec, seed, r), lam).reject
                   for r in range(reps))
    return rejected / reps


# Power that ``detection_boundary_uni`` locates, and its bisection steps.
_TARGET_POWER = 0.5
_BISECT_STEPS = 12


def detection_boundary_uni(n, lam, reps: int = 400, seed=0) -> dict:
    """Bisect the signal strength at which the univariate test reaches
    power 0.5 against the prior, holding ``lam`` fixed.

    The bracket starts at ``[0.01, 4] * loglog8n(n)``; its upper end grows
    fourfold (at most 12 times) until the power there reaches 0.5, and 12
    bisection steps follow, so the search makes ``13 + expansions`` power
    estimates of ``reps`` replicates each. Returns a record with the final
    bracket and the located boundary ``rho_star``, its geometric midpoint.
    The ratio ``rho_star / loglog8n(n)`` is the quantity whose boundedness
    across ``n`` reflects the detection-boundary scaling.
    """
    reps = _check_count(reps, "reps")
    base = loglog8n(n)
    lo, hi = 0.01 * base, 4.0 * base
    p_hi = _power_uni(n, lam, hi, reps, seed)
    expansions = 0
    while p_hi < _TARGET_POWER and expansions < 12:
        lo = hi
        hi *= 4.0
        p_hi = _power_uni(n, lam, hi, reps, seed)
        expansions += 1
    if p_hi < _TARGET_POWER:
        raise InvalidInputError(
            f"power never reached {_TARGET_POWER} up to rho={hi}; lambda may be too large"
        )
    for _ in range(_BISECT_STEPS):
        mid = math.sqrt(lo * hi)
        if _power_uni(n, lam, mid, reps, seed) < _TARGET_POWER:
            lo = mid
        else:
            hi = mid
    rho_star = math.sqrt(lo * hi)
    return {
        "n": n,
        "loglog8n": base,
        "lam": lam,
        "rho_star": rho_star,
        "rho_star_over_loglog8n": rho_star / base,
        "bracket": [lo, hi],
        "reps": reps,
        "target": _TARGET_POWER,
    }
