"""Exact largest absolute s-sparse eigenvalue by branch-and-bound.

A depth-first search includes or excludes one coordinate at a time. By
Cauchy interlacing, ``max|eig(A[U, U])|`` over the coordinates ``U`` not yet
excluded caps every support below a node (Moghaddam, Weiss & Avidan, 2006).
Prunes keep a rounding margin, so the result equals exhaustive enumeration
bit for bit. More than 2,000,000 supports (``comb(p, s)``) are refused
before any work; when every support ties (``np.eye(16)``, ``s = 8``) nothing
is pruned and the search costs about what full enumeration does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import _check_sparsity, sym_matrix
from .exceptions import EnumerationBudgetError

__all__ = ["SparseEigResult", "sparse_abs_eigmax"]

# Largest ``comb(p, s)`` the search accepts.
_BUDGET = 2_000_000

# A subtree of at most _BATCH_WORK // s**3 supports (128 at s = 8) is
# evaluated in one batched eigvalsh instead of being searched further.
_BATCH_WORK = 128 * 8**3


@dataclass(frozen=True)
class SparseEigResult:
    """Largest absolute s-sparse eigenvalue with its certifying direction.

    ``vector`` is a unit vector supported on ``support`` whose quadratic
    form reproduces ``value`` in absolute value; its first nonzero entry is
    positive.
    """

    value: float
    support: tuple[int, ...]
    vector: np.ndarray


def _abs_extreme(A, idx):
    w = np.linalg.eigvalsh(A[idx[..., :, None], idx[..., None, :]])
    return np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1]))


def sparse_abs_eigmax(A, s) -> SparseEigResult:
    """Maximize ``|v' A v|`` over unit vectors with at most ``s`` nonzeros.

    Takes the size-``s`` support whose principal submatrix has the largest
    absolute eigenvalue; ties in value resolve to the lexicographically
    smallest support. With ``s = p`` this is the operator norm.

    Raises
    ------
    EnumerationBudgetError
        If ``comb(p, s)`` exceeds 2,000,000.
    """
    A = sym_matrix(A)
    p = A.shape[0]
    s = _check_sparsity(s, p)
    if math.comb(p, s) > _BUDGET:
        raise EnumerationBudgetError(
            f"{math.comb(p, s)} supports exceed the enumeration budget ({_BUDGET}); "
            "use the SDP relaxation (covshift.sdp_relax.relaxed_sparse_eigmax) "
            "for this size"
        )

    if s == 1:
        k = int(np.argmax(np.abs(np.diag(A))))
        return SparseEigResult(value=float(abs(A[k, k])), support=(k,), vector=np.eye(1, p, k)[0])

    absA = np.abs(A)
    # eigvalsh rounds far below this, so no support that could tie is pruned.
    margin = 1e-10 * max(1.0, float(absA.max())) * s
    best_val, best_support = -1.0, None
    # Node (F, R, cap, shrunk): F included, R candidates, U = F + R. Excluding
    # R[0] shrinks U; its cap is recomputed if cheaper than its leaves (~n**3).
    stack = [([], np.argsort(-absA.sum(axis=1), kind="stable").tolist(), math.inf, False)]
    while stack:
        F, R, cap, shrunk = stack.pop()
        leaves = math.comb(len(R), s - len(F))
        if shrunk and cap >= best_val - margin and leaves * s**3 > (len(F) + len(R)) ** 3:
            cap = float(_abs_extreme(A, np.array(sorted(F + R))))
        if cap < best_val - margin:
            continue
        if leaves * s**3 > max(_BATCH_WORK, s**3):
            stack += [(F, R[1:], cap, True), (F + R[:1], R[1:], cap, False)]
            continue
        idx = np.empty((leaves, s), dtype=np.intp)
        idx[:, :len(F)] = F
        # Combinations of sorted R keep the rows in lexicographic order, so
        # argmax picks the smallest of the batch's tied supports.
        idx[:, len(F):] = list(itertools.combinations(sorted(R), s - len(F)))
        idx.sort(axis=1)
        vals = _abs_extreme(A, idx)
        k = int(np.argmax(vals))
        support = tuple(idx[k].tolist())
        if vals[k] > best_val or (vals[k] == best_val and support < best_support):
            best_val, best_support = float(vals[k]), support

    w, Q = np.linalg.eigh(A[np.ix_(best_support, best_support)])
    # Prefer the positive extreme on exact |min| == |max| ties.
    j = 0 if abs(w[0]) > abs(w[-1]) else len(w) - 1
    vec = np.zeros(p)
    vec[list(best_support)] = Q[:, j]
    if vec[np.flatnonzero(vec)[0]] < 0:
        vec = -vec
    return SparseEigResult(value=best_val, support=best_support, vector=vec)
