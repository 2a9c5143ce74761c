"""Exception types shared across the package."""

__all__ = [
    "CovshiftError",
    "InvalidInputError",
    "SignalDomainError",
    "EnumerationBudgetError",
    "NoiseWindowError",
    "UndecidableInputError",
]


class CovshiftError(Exception):
    """Base of every exception type covshift raises on purpose."""


class InvalidInputError(CovshiftError, ValueError):
    """An argument is outside its documented domain."""


class SignalDomainError(CovshiftError, ValueError):
    """A signal-strength or shrinkage parameterization is undefined
    (e.g. the covariance change is as large as the nominal noise level)."""


class EnumerationBudgetError(CovshiftError, RuntimeError):
    """The exact sparse-eigenvalue search has more supports than its budget.

    The SDP relaxation (:mod:`covshift.sdp_relax`) handles these sizes in
    polynomial time.
    """


class NoiseWindowError(InvalidInputError):
    """The prefix/suffix window of a noise estimator does not fit in the
    sample. Scanning tests treat this as a skip signal."""


class UndecidableInputError(CovshiftError, RuntimeError):
    """Every scan cell was skipped, so a test cannot reach a decision."""
