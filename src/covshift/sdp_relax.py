"""Convex relaxation of the largest absolute s-sparse eigenvalue.

For a symmetric matrix ``A`` the relaxation is the semidefinite program

    sup |trace(A Z)|  over  Z >= 0, trace(Z) = 1, ||Z||_1 <= s,

whose value always lies between the exact s-sparse eigenvalue and
``s * max|A_ij|``. The absolute value is handled as the maximum of the two
one-sided linear SDPs for ``+A`` and ``-A``, each solved by an operator
splitting between the spectraplex ``{Z >= 0, trace = 1}`` (eigenvalue
projection onto the probability simplex) and the entrywise l1 ball
(soft-clipping with symmetry restoration). Every answer is returned as a
certified interval: the lower endpoint is the value of an explicitly
feasible ``Z``, the upper endpoint comes from a dual certificate ``Y`` via

    value <= lambda_max(+-A + Y) + s * max|Y_ij|,

which holds for every symmetric ``Y``. The splitting multiplier supplies
the certificate at each checkpoint.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import _check_count, sym_matrix
from .exceptions import InvalidInputError

__all__ = ["RelaxSolution", "relaxed_sparse_eigmax", "dual_upper_bound"]

# Over-relaxation factor for the splitting iteration and the geometric
# growth of the certification checkpoints (first check after 10 steps).
_RELAX = 1.7
_FIRST_CHECK = 10
_CHECK_GROWTH = 1.35


@dataclass(frozen=True)
class RelaxSolution:
    """Certified value interval for the relaxed sparse eigenvalue.

    ``lower`` is ``|trace(A Z)|`` for the feasible primal point ``Z``, clamped
    to ``upper`` where a zero gap lets rounding cross the two;
    ``upper`` is the dual certificate value
    ``lambda_max(dual_sign * A + Y) + s * max|Y|``. ``converged`` records
    whether the gap closed within ``tol * max(1, s * max|A|)`` before the
    iteration budget ran out; the interval is valid either way.
    """

    lower: float
    upper: float
    Z: np.ndarray
    Y: np.ndarray
    dual_sign: int
    iterations: int
    tol: float
    converged: bool

    @property
    def gap(self) -> float:
        return self.upper - self.lower


@functools.lru_cache(maxsize=None)
def _ranks(n):
    """``1.0, 2.0, ..., n``: the ranks of the l1-ball projection's sorted entries."""
    k = np.arange(1.0, n + 1.0)
    k.flags.writeable = False
    return k


def _inner(A, B):
    """``trace(A B)`` for symmetric ``A``, ``B``: the row-by-column product
    ``np.tensordot(A, B)`` forms, without its axis bookkeeping."""
    return float(np.dot(A.reshape(1, -1), B.reshape(-1, 1))[0, 0])


def _proj_simplex(v):
    """Projection of ascending ``v`` (as ``eigh`` returns it) onto the
    probability simplex; the threshold comes from the last rank ``k`` whose
    ``k``-th largest entry exceeds ``(sum of the k largest - 1) / k``.
    A plain loop is cheaper than array calls at these sizes."""
    css = theta = 0.0
    for k, x in enumerate(v.tolist()[::-1], 1):
        css += x
        if x * k > css - 1.0:
            theta = (css - 1.0) / k
    return np.maximum(v - theta, 0.0)


def _proj_spectraplex(M):
    w, Q = np.linalg.eigh(M)
    w = _proj_simplex(w)
    Z = (Q * w) @ Q.T
    return (Z + Z.T) / 2.0


def _proj_l1_ball(M, s):
    a = np.abs(M)
    if a.sum() <= s:
        return M
    u = np.sort(a, axis=None)[::-1]
    css = u.cumsum()
    rho = int((u * _ranks(u.size) > css - s).nonzero()[0][-1])
    theta = (css.item(rho) - s) / (rho + 1)
    W = np.sign(M) * np.maximum(a - theta, 0.0)
    return (W + W.T) / 2.0


def dual_upper_bound(A, s, Y) -> float:
    """Dual certificate value ``lambda_max(A + Y) + s * max|Y_ij|``.

    A valid upper bound on ``sup trace(A Z)`` over the relaxation's feasible
    set for every symmetric ``Y``.
    """
    A = sym_matrix(A)
    s = _check_count(s, "s", minimum=1)
    Y = sym_matrix(Y)
    if Y.shape != A.shape:
        raise InvalidInputError(f"Y has shape {Y.shape}, expected {A.shape}")
    lam = float(np.linalg.eigvalsh(A + Y)[-1])
    return lam + s * float(np.abs(Y).max(initial=0.0))


def _feasible_polish(M, s, vertex):
    """Project M onto the spectraplex, then pull toward a diagonal vertex
    until the l1 constraint holds."""
    Z = _proj_spectraplex(M)
    l1 = np.abs(Z).sum()
    if l1 > s:
        theta = min(max((l1 - s) / (l1 - 1.0), 0.0), 1.0)
        Z = (1.0 - theta) * Z + theta * vertex
    return Z


def _one_sided(B, s, tol_abs, max_iter, stop_below=-np.inf):
    """Certified interval for ``sup trace(B Z)`` over the feasible set.

    Returns ``(lower, Z, upper, Y, iterations, converged)``. ``stop_below``
    allows an early exit once the upper bound proves this side irrelevant.
    """
    p = B.shape[0]
    if s == 1:
        # The l1 constraint forces Z diagonal, so the program is linear over
        # the probability simplex and both certificates are closed-form.
        d = np.diag(B).copy()
        k = int(np.argmax(d))
        Z = np.zeros_like(B)
        Z[k, k] = 1.0
        off = B - np.diag(d)
        m_off = float(np.abs(off).max(initial=0.0))
        Y = np.diag(d) - m_off * np.eye(p) - B
        return float(d[k]), Z, float(d[k]), Y, 0, True

    w, Q = np.linalg.eigh(B)
    lam_max = float(w[-1])
    lead = Q[:, -1]
    if np.abs(lead).sum() ** 2 <= s:
        # The unconstrained maximizer is already l1-feasible: zero gap.
        Z = np.outer(lead, lead)
        return lam_max, (Z + Z.T) / 2.0, lam_max, np.zeros_like(B), 0, True

    scale = max(float(np.abs(w).max()), 1e-12)
    k_diag = int(np.argmax(np.diag(B)))
    vertex = np.zeros_like(B)
    vertex[k_diag, k_diag] = 1.0

    # Rank-one starting candidates: best diagonal vertex and the leading
    # eigenvector truncated to its s largest entries.
    order = np.argsort(-np.abs(lead))[:s]
    v_trunc = np.zeros(p)
    v_trunc[order] = lead[order]
    v_trunc /= np.linalg.norm(v_trunc)
    cand = np.outer(v_trunc, v_trunc)
    cand = (cand + cand.T) / 2.0
    if np.abs(cand).sum() > s:
        cand = _feasible_polish(cand, s, vertex)

    best_lower, best_Z = float(np.diag(B)[k_diag]), vertex
    c_val = _inner(B, cand)
    if c_val > best_lower:
        best_lower, best_Z = c_val, cand
    best_upper, best_Y = lam_max, np.zeros_like(B)

    rho = scale
    Z = np.eye(p) / p
    W = Z.copy()
    U = np.zeros_like(B)
    Bstep = B / rho
    it = 0
    next_check = _FIRST_CHECK
    converged = best_upper - best_lower <= tol_abs
    while it < max_iter and not converged and best_upper > stop_below:
        stop_at = min(next_check, max_iter)
        while it < stop_at:
            Z = _proj_spectraplex(W - U + Bstep)
            Zr = _RELAX * Z + (1.0 - _RELAX) * W
            W = _proj_l1_ball(Zr + U, s)
            U += Zr - W
            it += 1
        next_check = max(next_check + _FIRST_CHECK, int(next_check * _CHECK_GROWTH))
        Zf = _feasible_polish((Z + W) / 2.0, s, vertex)
        lo = _inner(B, Zf)
        if lo > best_lower:
            best_lower, best_Z = lo, Zf
        Y = -rho * U
        up = float(np.linalg.eigvalsh(B + Y)[-1]) + s * float(np.abs(Y).max())
        if up < best_upper:
            best_upper, best_Y = up, Y
        converged = best_upper - best_lower <= tol_abs

    return best_lower, best_Z, best_upper, best_Y, it, converged


def relaxed_sparse_eigmax(A, s, tol: float = 1e-3, max_iter: int = 5000) -> RelaxSolution:
    """Certified interval for the relaxed largest absolute s-sparse eigenvalue.

    Solves ``sup |trace(A Z)|`` over ``{Z >= 0, trace(Z) = 1, ||Z||_1 <= s}``
    as the larger of the two one-sided programs for ``+A`` and ``-A``. The
    returned interval always contains the true relaxation value, which in
    turn lies between the exact s-sparse eigenvalue and ``s * max|A_ij|``.

    Parameters
    ----------
    tol : float
        Relative gap target; convergence means
        ``upper - lower <= tol * max(1, s * max|A_ij|)``.
    max_iter : int
        Iteration budget per one-sided program. On exhaustion the best
        certified interval is returned with ``converged=False``.
    """
    A = sym_matrix(A)
    p = A.shape[0]
    s = _check_count(s, "s", minimum=1)
    if s > p:
        raise InvalidInputError(f"s must be in [1, p]={p}, got {s}")
    if not (tol > 0) or not math.isfinite(tol):
        raise InvalidInputError(f"tol must be a positive finite real, got {tol}")
    max_iter = _check_count(max_iter, "max_iter", minimum=1)

    tol_abs = tol * max(1.0, s * float(np.abs(A).max(initial=0.0)))

    w = np.linalg.eigvalsh(A)
    sides = [1.0, -1.0] if w[-1] >= -w[0] else [-1.0, 1.0]

    results = {}
    first_lower = -np.inf
    for sign in sides:
        # Interval halves so the combined gap stays within tol_abs; the
        # second side may stop once provably below the first side's value.
        results[sign] = _one_sided(
            sign * A, s, tol_abs / 2.0, max_iter, stop_below=first_lower
        )
        first_lower = results[sign][0]

    lower_sign = max((1.0, -1.0), key=lambda sg: results[sg][0])
    upper_sign = max((1.0, -1.0), key=lambda sg: results[sg][2])
    lower, Z = results[lower_sign][0], results[lower_sign][1]
    upper, Y = results[upper_sign][2], results[upper_sign][3]
    iterations = results[1.0][4] + results[-1.0][4]
    minor = -lower_sign
    side_done = results[minor][5] or results[minor][2] <= lower
    converged = (upper - lower <= tol_abs) and results[lower_sign][5] and side_done

    return RelaxSolution(
        lower=min(abs(_inner(A, Z)), float(upper)),
        upper=float(upper),
        Z=Z,
        Y=Y,
        dual_sign=int(upper_sign),
        iterations=iterations,
        tol=tol,
        converged=bool(converged),
    )
