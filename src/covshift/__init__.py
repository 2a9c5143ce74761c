"""Variance and covariance changepoint testing.

A univariate variance-ratio scan, an exact sparse-eigenvalue covariance
scan with oracle and adaptive thresholds, a polynomial-time variant built
on a certified semidefinite relaxation, and a simulation engine for
least-favorable priors, chi-square divergences, Monte Carlo calibration,
and detection-boundary experiments.
"""

__version__ = "0.1.0"

from .core import (
    CovarianceScan,
    MultiSignal,
    UniSignal,
    center_columns,
    detectability_ratio_floor,
    dyadic_grid,
    loglog8n,
    scan_rate,
    scan_rate_relaxed,
    signal_strength_multi,
    signal_strength_uni,
    sparsity_grid,
    minimax_rate,
)
from .exceptions import (
    DegenerateDataError,
    EnumerationBudgetError,
    InvalidInputError,
    NoiseWindowError,
    SignalDomainError,
    UndecidableInputError,
)
from .multivariate import (
    MultiTestCell,
    MultiTestReport,
    adaptive_sdp_test,
    adaptive_test,
    covariance_test,
    entrywise_noise_level,
    sparse_noise_level,
)
from .sdp_relax import RelaxSolution, dual_upper_bound, relaxed_sparse_eigmax
from .simulate import (
    AltDraw,
    PriorSpec,
    SimOutcome,
    calibrate_lambda,
    chisq_cross_term,
    detection_boundary_uni,
    minimax_lower_bound,
    mixture_chisq_multi,
    mixture_chisq_multi_exact,
    mixture_chisq_uni,
    mixture_chisq_uni_proof_bound,
    monte_carlo_errors,
    null_series,
    sample_alternative,
    sample_series,
    variance_shrinkage,
)
from .sparse_eig import SparseEigResult, operator_norm, sparse_abs_eigmax
from .univariate import UniTestReport, variance_test

__all__ = [
    "__version__",
    "dyadic_grid",
    "sparsity_grid",
    "loglog8n",
    "minimax_rate",
    "scan_rate",
    "scan_rate_relaxed",
    "CovarianceScan",
    "signal_strength_uni",
    "signal_strength_multi",
    "detectability_ratio_floor",
    "center_columns",
    "UniSignal",
    "MultiSignal",
    "SparseEigResult",
    "sparse_abs_eigmax",
    "operator_norm",
    "RelaxSolution",
    "relaxed_sparse_eigmax",
    "dual_upper_bound",
    "UniTestReport",
    "variance_test",
    "MultiTestCell",
    "MultiTestReport",
    "covariance_test",
    "adaptive_test",
    "adaptive_sdp_test",
    "sparse_noise_level",
    "entrywise_noise_level",
    "PriorSpec",
    "AltDraw",
    "SimOutcome",
    "variance_shrinkage",
    "sample_alternative",
    "sample_series",
    "null_series",
    "chisq_cross_term",
    "mixture_chisq_uni",
    "mixture_chisq_uni_proof_bound",
    "mixture_chisq_multi",
    "mixture_chisq_multi_exact",
    "minimax_lower_bound",
    "monte_carlo_errors",
    "calibrate_lambda",
    "detection_boundary_uni",
    "InvalidInputError",
    "SignalDomainError",
    "DegenerateDataError",
    "EnumerationBudgetError",
    "NoiseWindowError",
    "UndecidableInputError",
]
