import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import random_feasible_point, random_instance, random_pd
from covpath.barrier import (
    Problem,
    barrier_objective,
    dual_objective,
    feasible,
    gap_bound,
    initial_point,
    multipliers,
    primal_objective,
    residual,
    scaling_warm_start,
    slacks,
)
from covpath.corrector import CorrectorConfig
from covpath.exceptions import DegenerateInstance, Infeasible
from covpath.path import solve_at
from covpath.reference import OracleConfig, central_point
from covpath.symmat import pd_factor


class TestProblem:
    def test_sigma_is_stored_symmetric_and_validated(self):
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        p = Problem(sigma=sigma, rho=0.1)
        sigma[0, 1] = sigma[1, 0] = 9.0
        assert p.sigma[0, 1] == p.sigma[1, 0] == 0.5

        near = np.array([[2.0, 0.5 + 1e-13], [0.5, 1.0]])
        q = Problem(sigma=near, rho=0.1)
        assert q.sigma[0, 1] == q.sigma[1, 0] == 0.5 * (near[0, 1] + near[1, 0])

        with pytest.raises(ValueError, match="symmetric"):
            Problem(sigma=np.array([[2.0, 0.5], [0.4, 1.0]]), rho=0.1)

    @pytest.mark.parametrize(
        "solve, message",
        [
            (lambda: Problem(sigma=[[1, np.inf], [np.inf, 1]], rho=0.5), "sigma must be finite"),
            # NaN != NaN, so a symmetrically placed NaN also fails the
            # exact symmetry test; it is still reported as non-finite.
            (lambda: Problem(sigma=[[2, np.nan], [np.nan, 1]], rho=0.1), "sigma must be finite"),
            (lambda: Problem(sigma=np.diag([1.0, 2.0]), rho=np.inf), "rho must be finite"),
            (lambda: solve_at(np.diag([1.0, 2.0]), np.inf, 1e-4), "rho must be finite"),
            (lambda: solve_at([[np.inf, 0.1], [0.1, 1.0]], 0.5, 1e-4), "sigma must be finite"),
        ],
        ids=["problem-sigma", "problem-sigma-nan", "problem-rho", "solve_at-rho", "solve_at-sigma"],
    )
    def test_non_finite_instance_is_an_input_error(self, solve, message):
        # Rejected up front, not as a numerical failure (Infeasible,
        # LineSearchFailure) after RuntimeWarnings.
        with pytest.raises(ValueError, match=message):
            solve()


class TestFeasible:
    def test_diagonal_margin(self):
        p = Problem(sigma=np.diag([1.0, 2.0]), rho=0.5)
        assert feasible(p, np.diag([1.4, 2.4]))

    def test_sigma_itself_and_boundary(self):
        sigma = np.array([[2.0, 0.3], [0.3, 1.5]])
        p = Problem(sigma=sigma, rho=0.5)
        assert feasible(p, sigma)
        with pytest.raises(Infeasible, match="U leaves the box"):
            feasible(p, sigma + 0.5 * np.ones((2, 2)))

    def test_constructed_feasible_points(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = random_instance(rng, 5)
            U = random_feasible_point(rng, p)
            assert feasible(p, U)

    def test_pd_failure_raises(self):
        p = Problem(sigma=np.diag([1.0, 1.0]), rho=2.0)
        U = np.array([[0.5, 1.0], [1.0, 0.5]])  # inside the box, indefinite
        with pytest.raises(Infeasible, match="U is not positive definite"):
            feasible(p, U)

    def test_asymmetric_point_is_infeasible(self):
        # Inside the box and PD, but U_01 != U_10: the Cholesky test reads
        # only one triangle, so the symmetry is tested on its own.
        p = Problem(sigma=np.diag([1.0, 2.0]), rho=0.5)
        U = np.array([[1.2, 0.1], [0.1, 2.1]])
        assert feasible(p, U)
        U[0, 1] += 1e-12
        with pytest.raises(Infeasible, match="U is not exactly symmetric"):
            feasible(p, U)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_infeasible(self, value):
        # NaN fails the exact-symmetry test (NaN != NaN), an infinity the box.
        condition = "U has a NaN entry" if np.isnan(value) else "U leaves the box"
        p = Problem(sigma=np.diag([1.0, 2.0]), rho=0.5)
        for i, j in ((0, 0), (0, 1)):
            U = np.diag([1.2, 2.1])
            U[i, j] = U[j, i] = value
            with pytest.raises(Infeasible, match=condition):
                feasible(p, U)
            with pytest.raises(Infeasible, match="U leaves the box"):
                slacks(p, U)

    @pytest.mark.parametrize(
        "U, condition",
        [
            (np.eye(3), r"has shape \(3, 3\), not \(2, 2\)"),
            (np.array([[1.2, 0.1], [0.1 + 1e-12, 1.1]]), "is not exactly symmetric"),
            (np.array([[1.2, np.nan], [np.nan, 1.1]]), "has a NaN entry"),
            (np.diag([3.5, 1.1]), "leaves the box: a box slack is non-positive"),
            (np.array([[0.5, 1.0], [1.0, 0.5]]), "is not positive definite: Cholesky"),
        ],
        ids=["shape", "asymmetry", "nan", "box", "indefinite"],
    )
    def test_message_names_the_failed_condition(self, U, condition):
        # Each matrix passes every test before the one it fails.
        p = Problem(sigma=np.diag([1.0, 1.0]), rho=2.0)
        with pytest.raises(Infeasible, match=f"^start {condition}"):
            feasible(p, U, "start")


class TestMultipliers:
    def test_centered_box(self):
        sigma = random_pd(np.random.default_rng(1), 3)
        p = Problem(sigma=sigma, rho=1.0)
        L, M = multipliers(0.5, slacks(p, sigma))
        assert np.allclose(L, 0.5, rtol=1e-14)
        assert np.allclose(M, 0.5, rtol=1e-14)

    def test_linearity_in_t(self):
        rng = np.random.default_rng(2)
        p = random_instance(rng, 4)
        U = random_feasible_point(rng, p)
        L1, M1 = multipliers(0.3, slacks(p, U))
        L2, M2 = multipliers(0.6, slacks(p, U))
        assert np.allclose(L2, 2.0 * L1, rtol=1e-15)
        assert np.allclose(M2, 2.0 * M1, rtol=1e-15)

    def test_direct_formula_n2(self):
        sigma = np.array([[1.0, 0.2], [0.2, 2.0]])
        U = np.array([[1.3, 0.1], [0.1, 2.2]])
        p = Problem(sigma=sigma, rho=0.6)
        L, M = multipliers(0.01, slacks(p, U))
        for i in range(2):
            for j in range(2):
                assert L[i, j] == 0.01 / (0.6 + sigma[i, j] - U[i, j])
                assert M[i, j] == 0.01 / (0.6 - sigma[i, j] + U[i, j])

    def test_stacked_faces_match_the_box(self):
        # Axis 0 of the slacks and multipliers holds the upper face
        # sigma + rho, then the lower face sigma - rho.
        rng = np.random.default_rng(3)
        p = random_instance(rng, 4)
        U = random_feasible_point(rng, p)
        slack = slacks(p, U)
        assert np.array_equal(slack[0], p.sigma + p.rho - U)
        assert np.array_equal(slack[1], U - (p.sigma - p.rho))
        assert np.array_equal(multipliers(0.3, slacks(p, U)), 0.3 / slack)

    def test_infeasible_raises(self):
        p = Problem(sigma=np.diag([1.0, 1.0]), rho=0.1)
        with pytest.raises(Infeasible):
            slacks(p, np.diag([2.0, 2.0]))

    @pytest.mark.parametrize("t", [0.0, -0.1, np.nan])
    def test_non_positive_t_raises(self, t):
        p = Problem(sigma=np.diag([1.0, 1.0]), rho=0.5)
        with pytest.raises(ValueError, match="t must be positive"):
            multipliers(t, slacks(p, np.eye(2)))

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_reciprocal_slack_identity(self, seed):
        # 1/L + 1/M = 2 rho / t: the two box gaps sum to the box width.
        rng = np.random.default_rng(seed)
        p = random_instance(rng, 3)
        U = random_feasible_point(rng, p)
        t = 10.0 ** rng.uniform(-6, 0)
        L, M = multipliers(t, slacks(p, U))
        assert np.allclose(1.0 / L + 1.0 / M, 2.0 * p.rho / t, rtol=1e-12)


class TestResidual:
    def test_scalar_instance_bisection_oracle(self):
        # 1/(3-U) - 1/(U-1) = 1/U on (1, 3) for sigma=[2], rho=1, t=1
        root = brentq(lambda u: 1.0 / (3.0 - u) - 1.0 / (u - 1.0) - 1.0 / u, 1.5, 2.9, xtol=1e-14)
        assert root == pytest.approx((4.0 + np.sqrt(7.0)) / 3.0, abs=1e-12)
        p = Problem(sigma=np.array([[2.0]]), rho=1.0)
        U = pd_factor(np.array([[root]]))
        H = residual(multipliers(1.0, slacks(p, U.matrix)), U.inverse)
        assert np.linalg.norm(H) < 1e-10

    def test_zero_at_central_point_positive_off_path(self):
        rng = np.random.default_rng(3)
        p = random_instance(rng, 4)
        t = 1e-3
        factor = central_point(p, t, OracleConfig(tol=1e-10))
        assert np.linalg.norm(
            residual(multipliers(t, slacks(p, factor.matrix)), factor.inverse)
        ) < 1e-8
        bumped = factor.matrix.copy()
        bumped[0, 0] += 1e-4 * p.rho
        assert np.linalg.norm(
            residual(multipliers(t, slacks(p, bumped)), pd_factor(bumped).inverse)
        ) > 0.0


class TestObjectives:
    def test_dual_identity(self):
        assert dual_objective(pd_factor(np.eye(5))) == pytest.approx(-5.0, abs=1e-13)

    def test_dual_diag_e(self):
        f = pd_factor(np.diag([np.e, np.e]))
        assert dual_objective(f) == pytest.approx(-4.0, abs=1e-12)

    def test_dual_matches_recomputation(self):
        m = random_pd(np.random.default_rng(4), 3)
        f = pd_factor(m)
        assert dual_objective(f) == pytest.approx(-np.linalg.slogdet(m)[1] - 3, rel=1e-12)

    def test_primal_identity_small_rho(self):
        p = Problem(sigma=np.eye(3), rho=1e-12)
        assert primal_objective(p, np.eye(3), 0.0) == pytest.approx(-3.0, abs=1e-9)

    def test_primal_scalar(self):
        p = Problem(sigma=np.array([[2.0]]), rho=1.0)
        val = primal_objective(p, np.array([[1.0 / 3.0]]), -np.log(3.0))
        assert val == pytest.approx(-np.log(3.0) - 1.0, rel=1e-12)

    def test_gap_at_converged_point(self):
        rng = np.random.default_rng(5)
        p = random_instance(rng, 4)
        t = 1e-3 / (2 * 16)
        factor = solve_at(p.sigma, p.rho, t, CorrectorConfig(tol_residual=1e-9))
        gap = dual_objective(factor) - primal_objective(p, factor.inverse, -factor.logdet)
        assert 0.0 <= gap <= gap_bound(4, t) + 10 * 1e-9


class TestBarrierObjective:
    def test_scalar_minimizer_closed_form(self):
        # sigma=[0], rho=1: minimizer of -log x - t log(1-x) - t log(1+x)
        # solves x^2 = 1/(1+2t); golden-section confirms, t=0.5 gives 1/sqrt(2).
        from covpath.reference import golden_section

        p = Problem(sigma=np.array([[1e-300]]), rho=1.0)
        t = 0.5

        def f(x):
            return -np.log(x) - t * (np.log(1.0 - x) + np.log(1.0 + x))

        xstar = golden_section(f, 1e-9, 1.0 - 1e-9, tol=1e-12)
        assert xstar == pytest.approx(2**-0.5, abs=1e-7)
        U = pd_factor(np.array([[xstar]]))
        val = barrier_objective(U, t, slacks(p, U.matrix))
        assert val == pytest.approx(f(xstar), rel=1e-12)

    def test_t_zero_limit(self):
        rng = np.random.default_rng(6)
        p = random_instance(rng, 3)
        U = pd_factor(random_feasible_point(rng, p))
        assert barrier_objective(U, 1e-15, slacks(p, U.matrix)) == (
            pytest.approx(-U.logdet, abs=1e-10)
        )

    def test_gradient_matches_finite_differences(self):
        # d(barrier)/dU_ij equals H_ij under single-entry perturbations.
        rng = np.random.default_rng(7)
        p = random_instance(rng, 4)
        U = random_feasible_point(rng, p)
        t = 1e-2
        L, M = multipliers(t, slacks(p, U))
        H = L - M - np.linalg.inv(U)

        def phi(mat):
            sign, logdet = np.linalg.slogdet(mat)
            assert sign > 0
            return -logdet - t * (
                np.sum(np.log(p.rho + p.sigma - mat)) + np.sum(np.log(p.rho - p.sigma + mat))
            )

        step = 1e-5
        for i in range(4):
            for j in range(4):
                E = np.zeros((4, 4))
                E[i, j] = step
                fd = (phi(U + E) - phi(U - E)) / (2 * step)
                assert fd == pytest.approx(H[i, j], rel=1e-6, abs=1e-8)


class TestGapBound:
    def test_values(self):
        assert gap_bound(10, 1e-4) == pytest.approx(0.02)
        assert gap_bound(1, 0.5) == 1.0

    def test_surrogate_gap_against_reference(self):
        rng = np.random.default_rng(8)
        p = random_instance(rng, 4)
        proxy = dual_objective(central_point(p, 1e-8, OracleConfig(tol=1e-7)))
        for t in (1e-2, 1e-3):
            f_t = dual_objective(central_point(p, t, OracleConfig(tol=1e-10)))
            assert f_t - proxy <= gap_bound(4, t)
            assert f_t - proxy >= -1e-8


class TestInitialPoint:
    def test_direct_formula(self):
        p = Problem(sigma=np.diag([1.0, 2.0]), rho=2.0)
        U = initial_point(p)
        assert np.allclose(np.diag(U), [1.0 + 1.98, 2.0 + 1.98], rtol=1e-15)
        assert np.array_equal(U, np.diag(np.diag(U)))

    def test_feasible_at_rho_max(self):
        rng = np.random.default_rng(9)
        p = random_instance(rng, 6, rho_frac=1.0)
        U = initial_point(p)
        assert feasible(Problem(sigma=p.sigma, rho=p.rho_max), U)

    def test_generated_instances_satisfy_cauchy_schwarz_margin(self):
        # |sigma_ij| <= sqrt(sigma_ii sigma_jj) <= rho_max for PSD input.
        rng = np.random.default_rng(10)
        for _ in range(5):
            p = random_instance(rng, 8, density=0.4)
            d = np.diagonal(p.sigma)
            bound = np.sqrt(np.outer(d, d))
            assert np.all(np.abs(p.sigma) <= bound + 1e-12)
            initial_point(Problem(sigma=p.sigma, rho=p.rho_max))

    def test_below_rho_max_is_the_rescaled_diagonal_start(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            p = random_instance(rng, 8, density=0.4, rho_frac=float(rng.uniform(0.01, 0.95)))
            diagonal = np.diag(np.diagonal(p.sigma) + 0.99 * p.rho_max)
            U = initial_point(p)
            assert np.array_equal(U, scaling_warm_start(p.sigma, diagonal, p.rho_max, p.rho))
            assert feasible(p, U)

    def test_degenerate_raises(self):
        sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(DegenerateInstance):
            initial_point(Problem(sigma=sigma, rho=1.0))


class TestScalingWarmStart:
    def test_identity_at_equal_penalty(self):
        rng = np.random.default_rng(11)
        p = random_instance(rng, 4)
        U = random_feasible_point(rng, p)
        assert np.array_equal(scaling_warm_start(p.sigma, U, p.rho, p.rho), U)

    def test_limit_toward_sigma(self):
        rng = np.random.default_rng(12)
        p = random_instance(rng, 4)
        U = random_feasible_point(rng, p)
        out = scaling_warm_start(p.sigma, U, p.rho, 1e-14 * p.rho)
        assert np.allclose(out, p.sigma, atol=1e-10)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_feasibility_preserved_at_half_penalty(self, seed):
        rng = np.random.default_rng(seed)
        p = random_instance(rng, 4)
        U = random_feasible_point(rng, p)
        rho_next = 0.5 * p.rho
        out = scaling_warm_start(p.sigma, U, p.rho, rho_next)
        assert feasible(Problem(sigma=p.sigma, rho=rho_next), out)
