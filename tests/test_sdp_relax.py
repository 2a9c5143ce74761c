"""Certified interval solver for the relaxed sparse eigenvalue."""

import numpy as np
import pytest

from covshift import (
    InvalidInputError,
    dual_upper_bound,
    relaxed_sparse_eigmax,
    sparse_abs_eigmax,
)
from covshift import sdp_relax

from conftest import rand_psd, rand_sym


def interval_scale(A, s):
    return max(1.0, s * float(np.abs(A).max()))


class TestExamples:
    def test_identity_any_s(self):
        for p in (1, 2, 5):
            for s in range(1, p + 1):
                sol = relaxed_sparse_eigmax(np.eye(p), s)
                assert sol.lower == pytest.approx(1.0, abs=1e-9)
                assert sol.upper == pytest.approx(1.0, abs=1e-9)
                assert sol.converged

    def test_two_by_two_stated_certificates(self):
        # the stated primal point and dual certificate close the gap at 1
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        Z0 = np.full((2, 2), 0.5)
        w = np.linalg.eigvalsh(Z0)
        assert w[0] >= -1e-15 and np.trace(Z0) == pytest.approx(1.0)
        assert np.abs(Z0).sum() <= 2.0
        assert float(np.tensordot(A, Z0)) == pytest.approx(1.0)
        assert dual_upper_bound(A, 2, np.zeros((2, 2))) == pytest.approx(1.0)
        sol = relaxed_sparse_eigmax(A, 2)
        assert sol.lower == pytest.approx(1.0, abs=1e-9)
        assert sol.upper == pytest.approx(1.0, abs=1e-9)

    def test_one_sparse_relaxation_is_max_abs_entry_for_psd(self, rng):
        for _ in range(30):
            p = int(rng.integers(1, 10))
            S = rand_psd(rng, p, scale=float(rng.uniform(0.3, 3.0)))
            sol = relaxed_sparse_eigmax(S, 1)
            target = float(np.abs(S).max())
            assert sol.lower == pytest.approx(target, abs=1e-8 * max(1, target))
            assert sol.upper == pytest.approx(target, abs=1e-8 * max(1, target))


class TestDualBound:
    def test_zero_certificate_is_lambda_max(self, rng):
        A = rand_sym(rng, 5)
        assert dual_upper_bound(A, 3, np.zeros((5, 5))) == pytest.approx(
            float(np.linalg.eigvalsh(A)[-1])
        )

    def test_hand_example(self):
        A = np.diag([2.0, 0.0])
        Y = np.array([[-1.0, 0.0], [0.0, 0.0]])
        bound = dual_upper_bound(A, 1, Y)
        assert bound == pytest.approx(2.0)
        sol = relaxed_sparse_eigmax(A, 1)
        assert bound >= sol.lower - 1e-8

    def test_two_sided_bound_dominates_lower(self, rng):
        # the certificate is one-sided; the larger of the two one-sided
        # bounds must dominate the certified two-sided value
        for _ in range(500):
            p = int(rng.integers(2, 7))
            s = int(rng.integers(1, p + 1))
            A = rand_sym(rng, p)
            Y = rand_sym(rng, p, scale=float(rng.uniform(0.0, 2.0)))
            sol = relaxed_sparse_eigmax(A, s)
            two_sided = max(dual_upper_bound(A, s, Y), dual_upper_bound(-A, s, Y))
            assert two_sided >= sol.lower - 1e-8

    def test_bounds_every_feasible_point(self, rng):
        # direct content of the duality lemma, one-sided
        for _ in range(200):
            p = int(rng.integers(2, 7))
            s = int(rng.integers(1, p + 1))
            A = rand_sym(rng, p)
            Y = rand_sym(rng, p, scale=float(rng.uniform(0.0, 2.0)))
            idx = rng.choice(p, size=s, replace=False)
            v = np.zeros(p)
            v[idx] = rng.standard_normal(s)
            v /= np.linalg.norm(v)
            Z = np.outer(v, v)
            assert dual_upper_bound(A, s, Y) >= float(np.tensordot(A, Z)) - 1e-10

    def test_dimension_mismatch(self, rng):
        with pytest.raises(InvalidInputError):
            dual_upper_bound(np.eye(3), 1, np.zeros((2, 2)))


class TestCertificates:
    def test_solution_invariants_recompute(self, rng):
        for _ in range(60):
            p = int(rng.integers(2, 10))
            s = min(int(rng.choice([1, 2, 4])), p)
            A = rand_sym(rng, p, scale=float(rng.uniform(0.2, 5.0)))
            sol = relaxed_sparse_eigmax(A, s)
            w = np.linalg.eigvalsh(sol.Z)
            assert w[0] >= -1e-8
            assert np.trace(sol.Z) == pytest.approx(1.0, abs=1e-8)
            assert np.abs(sol.Z).sum() <= s + 1e-6
            assert sol.lower == pytest.approx(
                abs(float(np.tensordot(A, sol.Z))), abs=1e-10
            )
            recomputed = dual_upper_bound(sol.dual_sign * A, s, sol.Y)
            assert sol.upper == pytest.approx(recomputed, abs=1e-10)
            assert sol.lower <= sol.upper + 1e-12

    def test_sandwich_against_exact(self, rng):
        for _ in range(100):
            p = int(rng.integers(2, 8))
            s = int(rng.integers(1, p + 1))
            A = rand_sym(rng, p)
            sol = relaxed_sparse_eigmax(A, s)
            exact = sparse_abs_eigmax(A, s).value
            assert exact - 1e-8 <= sol.upper
            assert sol.lower <= s * float(np.abs(A).max()) + 1e-8

    def test_zero_gap_interval_is_ordered_exactly(self, rng):
        # At s = p the leading eigenvector is l1-feasible, so both endpoints
        # are the same number and rounding must not cross them.
        for _ in range(50):
            p = int(rng.integers(2, 9))
            A = rand_sym(rng, p)
            sol = relaxed_sparse_eigmax(A, p)
            assert sol.lower <= sol.upper
            assert sol.upper - sol.lower <= 1e-12 * max(1.0, p * float(np.abs(A).max()))

    def test_interval_valid_even_unconverged(self, rng):
        hit_unconverged = False
        for k in range(40):
            p = 12
            A = rand_sym(rng, p)
            sol = relaxed_sparse_eigmax(A, 3, tol=1e-10, max_iter=12)
            exact = sparse_abs_eigmax(A, 3).value
            assert sol.lower <= sol.upper + 1e-12
            assert exact - 1e-8 <= sol.upper
            assert sol.lower <= 3 * float(np.abs(A).max()) + 1e-8
            hit_unconverged = hit_unconverged or not sol.converged
        assert hit_unconverged


def sorted_simplex_projection(v):
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, v.size + 1) > css - 1.0)[0][-1]
    return np.maximum(v - (css[rho] - 1.0) / (rho + 1.0), 0.0)


def sorted_l1_projection(M, s):
    v = M.ravel()
    a = np.abs(v)
    if a.sum() <= s:
        return M
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, a.size + 1) > css - s)[0][-1]
    W = (np.sign(v) * np.maximum(a - (css[rho] - s) / (rho + 1.0), 0.0)).reshape(M.shape)
    return (W + W.T) / 2.0


class TestProjections:
    """The solver's projections and inner product equal the textbook
    sort-and-threshold formulas and ``np.tensordot`` bit for bit, so the
    iterates do not depend on how they are computed."""

    def test_match_sorted_formulas(self, rng):
        for _ in range(300):
            p = int(rng.integers(1, 33))
            M = rand_sym(rng, p, scale=float(rng.uniform(0.01, 5.0)))
            if rng.random() < 0.3:
                M = np.round(M)
            w = np.linalg.eigvalsh(M)
            assert np.array_equal(sdp_relax._proj_simplex(w), sorted_simplex_projection(w))
            s = int(rng.integers(1, p + 1))
            assert np.array_equal(sdp_relax._proj_l1_ball(M, s), sorted_l1_projection(M, s))
            Z = sdp_relax._proj_spectraplex(M)
            assert sdp_relax._inner(M, Z) == float(np.tensordot(M, Z))


class TestInvariances:
    def test_scaling_equivariance(self, rng):
        # instances kept away from the max(1, .) kink of the gap target so
        # the iteration schedule is exactly scale-equivariant
        count = 0
        while count < 25:
            p = int(rng.integers(2, 9))
            s = min(int(rng.choice([1, 2, 4])), p)
            A = rand_sym(rng, p)
            if 0.5 * s * np.abs(A).max() < 1.05:
                continue
            count += 1
            base = relaxed_sparse_eigmax(A, s)
            for c in (-2.0, 0.5, 10.0):
                sol = relaxed_sparse_eigmax(c * A, s)
                assert sol.lower == pytest.approx(abs(c) * base.lower, rel=1e-8)
                assert sol.upper == pytest.approx(abs(c) * base.upper, rel=1e-8)

    def test_permutation_invariance(self, rng):
        for _ in range(25):
            p = int(rng.integers(2, 9))
            s = min(int(rng.choice([1, 2, 4])), p)
            A = rand_sym(rng, p)
            base = relaxed_sparse_eigmax(A, s)
            perm = rng.permutation(p)
            P = np.eye(p)[perm]
            sol = relaxed_sparse_eigmax(P @ A @ P.T, s)
            scale = interval_scale(A, s)
            assert sol.lower == pytest.approx(base.lower, abs=1e-8 * scale)
            assert sol.upper == pytest.approx(base.upper, abs=1e-8 * scale)


class TestAgainstCvxpy:
    def test_matches_generic_solver(self, rng):
        cp = pytest.importorskip("cvxpy")
        for _ in range(10):
            p = int(rng.integers(3, 8))
            s = min(int(rng.choice([2, 3])), p)
            A = rand_sym(rng, p)
            values = []
            for sign in (1.0, -1.0):
                Z = cp.Variable((p, p), symmetric=True)
                prob = cp.Problem(
                    cp.Maximize(cp.trace((sign * A) @ Z)),
                    [Z >> 0, cp.trace(Z) == 1, cp.norm1(cp.vec(Z, order="F")) <= s],
                )
                prob.solve(solver=cp.SCS, eps=1e-8, max_iters=100_000)
                values.append(prob.value)
            opt = max(values)
            sol = relaxed_sparse_eigmax(A, s, tol=1e-5)
            slack = 1e-4 * interval_scale(A, s)
            assert sol.lower <= opt + slack
            assert sol.upper >= opt - slack
            assert sol.lower == pytest.approx(opt, abs=2e-4 * interval_scale(A, s))


class TestErrors:
    def test_bad_arguments(self):
        with pytest.raises(InvalidInputError):
            relaxed_sparse_eigmax(np.eye(3), 0)
        with pytest.raises(InvalidInputError):
            relaxed_sparse_eigmax(np.eye(3), 4)
        with pytest.raises(InvalidInputError):
            relaxed_sparse_eigmax(np.eye(3), 2, tol=0.0)
