"""Exact sparse eigenvalues against independent oracles and the
monotonicity/doubling/difference structure they must satisfy."""

import itertools
import math

import numpy as np
import pytest

import covshift.multivariate
from covshift import (
    CovarianceScan,
    EnumerationBudgetError,
    InvalidInputError,
    SparseEigResult,
    adaptive_test,
    minimax_rate,
    operator_norm,
    sparse_abs_eigmax,
    sparsity_grid,
)
from covshift.core import sym_matrix
from covshift.simulate import PriorSpec, null_series, sample_alternative, sample_series

from conftest import rand_psd, rand_sym


def enumerate_sparse_eig(A, s):
    """Exhaustive reference the branch-and-bound must reproduce bit for bit.

    Every size-s support in lexicographic order, evaluated by batched
    eigvalsh in chunks of 4096; ties in value go to the first support.
    """
    A = sym_matrix(A)
    p = A.shape[0]
    it = itertools.combinations(range(p), s)
    best_val, best_support = -1.0, None
    while chunk := list(itertools.islice(it, 4096)):
        idx = np.asarray(chunk, dtype=np.intp)
        w = np.linalg.eigvalsh(A[idx[:, :, None], idx[:, None, :]])
        vals = np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_support = tuple(int(i) for i in idx[k])
    w, Q = np.linalg.eigh(A[np.ix_(best_support, best_support)])
    j = 0 if abs(w[0]) > abs(w[-1]) else len(w) - 1
    vec = np.zeros(p)
    vec[list(best_support)] = Q[:, j]
    nz = np.nonzero(vec)[0]
    if nz.size and vec[nz[0]] < 0:
        vec = -vec
    return SparseEigResult(value=best_val, support=best_support, vector=vec)


def assert_matches_enumeration(A, s):
    res = sparse_abs_eigmax(A, s)
    ref = enumerate_sparse_eig(A, s)
    assert res.value == ref.value
    assert res.support == ref.support
    assert np.array_equal(res.vector, ref.vector)


def oracle_sparse_eig(A, s):
    """Independent support enumeration using the general (non-symmetric)
    eigenvalue driver, scanning all supports of size at most s."""
    p = A.shape[0]
    best = 0.0
    for size in range(1, s + 1):
        for sup in itertools.combinations(range(p), size):
            sub = np.asarray([[A[i, j] for j in sup] for i in sup])
            ev = np.linalg.eigvals(sub)
            best = max(best, float(np.max(np.abs(ev.real))))
    return best


def power_iteration_abs_max(A, iters=20000):
    """|lambda|_max via power iteration on A @ A (PSD, so unambiguous)."""
    M = A @ A
    v = np.full(A.shape[0], 1.0 / np.sqrt(A.shape[0]))
    for _ in range(iters):
        w = M @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return float(np.sqrt(v @ M @ v))


class TestExamples:
    def test_one_sparse_diagonal(self):
        res = sparse_abs_eigmax(np.diag([3.0, -5.0, 1.0]), 1)
        assert res.value == 5.0
        assert res.support == (1,)

    def test_off_diagonal_two_by_two(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert sparse_abs_eigmax(A, 1).value == 0.0
        assert sparse_abs_eigmax(A, 2).value == pytest.approx(1.0, rel=1e-12)

    def test_rank_one_recovers_support(self, rng):
        p, s = 7, 3
        v = np.zeros(p)
        idx = (1, 4, 5)
        v[list(idx)] = rng.standard_normal(s)
        v /= np.linalg.norm(v)
        res = sparse_abs_eigmax(np.outer(v, v), s)
        assert res.value == pytest.approx(1.0, rel=1e-12)
        assert res.support == idx

    def test_ties_break_to_lexicographic_support(self):
        res = sparse_abs_eigmax(np.eye(4), 1)
        assert res.support == (0,)
        res = sparse_abs_eigmax(np.eye(4), 2)
        assert res.support == (0, 1)


class TestResultInvariants:
    def test_vector_certifies_value(self, rng):
        for _ in range(50):
            p = int(rng.integers(2, 8))
            s = int(rng.integers(1, p + 1))
            A = rand_sym(rng, p)
            res = sparse_abs_eigmax(A, s)
            assert abs(res.vector @ A @ res.vector) == pytest.approx(
                res.value, rel=1e-10
            )
            assert np.linalg.norm(res.vector) == pytest.approx(1.0, abs=1e-12)
            assert np.count_nonzero(res.vector) <= s
            nz = np.nonzero(res.vector)[0]
            assert res.vector[nz[0]] > 0

    def test_full_sparsity_is_operator_norm(self, rng):
        for _ in range(25):
            p = int(rng.integers(2, 7))
            A = rand_sym(rng, p)
            assert sparse_abs_eigmax(A, p).value == pytest.approx(
                operator_norm(A), rel=1e-12
            )


class TestOracles:
    def test_matches_independent_enumeration(self, rng):
        for _ in range(60):
            p = int(rng.integers(2, 8))
            s = int(rng.integers(1, p + 1))
            A = rand_sym(rng, p, scale=float(rng.uniform(0.5, 3.0)))
            assert sparse_abs_eigmax(A, s).value == pytest.approx(
                oracle_sparse_eig(A, s), rel=1e-10, abs=1e-12
            )

    def test_random_search_never_beats_enumeration(self, rng):
        p, s = 6, 2
        A = rand_sym(rng, p)
        enumerated = sparse_abs_eigmax(A, s).value
        supports = rng.integers(0, p, size=(100_000, s))
        coeffs = rng.standard_normal((100_000, s))
        best = 0.0
        for chunk in range(0, 100_000, 10_000):
            sup = supports[chunk:chunk + 10_000]
            cf = coeffs[chunk:chunk + 10_000]
            V = np.zeros((10_000, p))
            np.put_along_axis(V, sup, cf, axis=1)
            V /= np.linalg.norm(V, axis=1, keepdims=True)
            vals = np.abs(np.einsum("ij,jk,ik->i", V, A, V))
            best = max(best, float(vals.max()))
        assert best <= enumerated + 1e-10

    def test_operator_norm_examples_and_power_iteration(self, rng):
        assert operator_norm(np.eye(5)) == 1.0
        assert operator_norm(np.diag([3.0, -5.0, 1.0])) == 5.0
        for _ in range(10):
            A = rand_sym(rng, int(rng.integers(2, 9)))
            assert operator_norm(A) == pytest.approx(
                power_iteration_abs_max(A), abs=1e-8
            )


class TestMatchesEnumeration:
    """The search prunes supports, yet every result equals exhaustive
    enumeration exactly: value, tie-broken support and signed vector."""

    def test_random_symmetric(self, rng):
        for _ in range(40):
            p = int(rng.integers(2, 13))
            s = int(rng.integers(1, min(p, 8) + 1))
            assert_matches_enumeration(rand_sym(rng, p, scale=float(rng.uniform(0.1, 10.0))), s)
        for s in (2, 4, 6, 8):
            assert_matches_enumeration(rand_sym(rng, 16), s)

    def test_sizes_far_from_the_scan_grid(self, rng):
        # Wide p with small s evaluates long subtrees in one stack; s > 40
        # evaluates one support at a time.
        assert_matches_enumeration(rand_sym(rng, 300), 2)
        assert_matches_enumeration(rand_sym(rng, 40), 3)
        assert_matches_enumeration(rand_sym(rng, 45), 45)
        assert_matches_enumeration(rand_sym(rng, 45), 44)

    def test_integer_matrices_with_ties(self, rng):
        for _ in range(40):
            p = int(rng.integers(2, 11))
            s = int(rng.integers(1, p + 1))
            assert_matches_enumeration(np.round(2.0 * rand_sym(rng, p)), s)

    def test_all_supports_tie(self):
        assert_matches_enumeration(np.eye(16), 8)
        assert_matches_enumeration(np.ones((16, 16)), 8)
        assert_matches_enumeration(-np.eye(9), 4)

    def test_rank_deficient_prefix_windows(self):
        # Most noise-level windows of sparse_noise_level hold fewer rows than
        # columns, so their second-moment matrices are singular.
        X = null_series(256, 16, 1.0, [5, 0, 1])
        for s in sparsity_grid(16)[1:]:
            for w in (math.ceil(minimax_rate(16, 256, s)), 3):
                assert_matches_enumeration(X[:w].T @ X[:w] / w, s)

    def test_covariance_scan_differences(self):
        spec = PriorSpec("multi", n=256, p=16, sigma_sq=1.0, rho=40.0, s=4)
        X = sample_series(sample_alternative(spec, [3, 0, 2]), 256, 16, [3, 0, 3])
        scan = CovarianceScan(X)
        for t in scan.grid:
            for s in (2, 4, 8):
                assert_matches_enumeration(scan.difference(t), s)

    def test_search_prunes_generic_matrices(self, rng, monkeypatch):
        # Supports are evaluated in stacks; bounds are single matrices.
        evaluated = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            if a.ndim == 3:
                evaluated.append(a.shape[0])
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        sparse_abs_eigmax(rand_sym(rng, 16), 8)
        assert sum(evaluated) < math.comb(16, 8) / 4

    def test_adaptive_reports_match_enumeration(self, monkeypatch):
        spec = PriorSpec("multi", n=256, p=16, sigma_sq=1.0, rho=40.0, s=4)
        panels = [
            null_series(256, 16, 1.0, [11, 0, 1]),
            sample_series(sample_alternative(spec, [12, 0, 2]), 256, 16, [12, 0, 3]),
        ]
        reports = [adaptive_test(X, 2.0) for X in panels]
        monkeypatch.setattr(
            covshift.multivariate, "sparse_abs_eigmax",
            lambda A, s, budget=None: enumerate_sparse_eig(A, s),
        )
        assert reports == [adaptive_test(X, 2.0) for X in panels]


class TestStructure:
    def test_monotone_in_s(self, rng):
        for _ in range(60):
            p = int(rng.integers(2, 9))
            A = rand_sym(rng, p)
            vals = [sparse_abs_eigmax(A, s).value for s in range(1, p + 1)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_doubling_for_psd(self, rng):
        for _ in range(60):
            p = int(rng.integers(2, 9))
            S = rand_psd(rng, p)
            for s0 in range(2, p + 1):
                v0 = sparse_abs_eigmax(S, s0).value
                for s in range((s0 + 1) // 2, s0 + 1):
                    assert v0 <= 4.0 * sparse_abs_eigmax(S, s).value + 1e-12

    def test_difference_bounded_by_max_for_psd_pairs(self, rng):
        for _ in range(60):
            p = int(rng.integers(2, 9))
            S1 = rand_psd(rng, p)
            S2 = rand_psd(rng, p)
            for s in range(1, p + 1):
                diff = sparse_abs_eigmax(S1 - S2, s).value
                cap = max(sparse_abs_eigmax(S1, s).value, sparse_abs_eigmax(S2, s).value)
                assert diff <= cap + 1e-12


class TestErrors:
    def test_budget(self):
        A = np.eye(50)
        with pytest.raises(EnumerationBudgetError, match="SDP relaxation"):
            sparse_abs_eigmax(A, 10)

    def test_s_out_of_range(self):
        with pytest.raises(InvalidInputError):
            sparse_abs_eigmax(np.eye(3), 4)
        with pytest.raises(InvalidInputError):
            sparse_abs_eigmax(np.eye(3), 0)
