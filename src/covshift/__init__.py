"""Variance and covariance changepoint testing.

A univariate variance-ratio scan, an exact sparse-eigenvalue covariance
scan with oracle and adaptive thresholds, a polynomial-time variant built
on a certified semidefinite relaxation, and a simulation engine for
least-favorable priors, chi-square divergences, Monte Carlo calibration,
and detection-boundary experiments.

Each public name is declared once, in its module's ``__all__``; the
package re-exports every module's list.
"""

__version__ = "0.1.0"

from . import core, exceptions, multivariate, sdp_relax, simulate, sparse_eig, univariate
from .core import *
from .exceptions import *
from .multivariate import *
from .sdp_relax import *
from .simulate import *
from .sparse_eig import *
from .univariate import *

__all__ = ["__version__"] + [
    name
    for module in (core, sparse_eig, sdp_relax, univariate, multivariate, simulate, exceptions)
    for name in module.__all__
]
