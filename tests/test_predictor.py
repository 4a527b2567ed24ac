import numpy as np
import pytest

from conftest import random_feasible_point, random_instance
from covpath.data import GeneratorSpec, generate_problem
from covpath import predictor
from covpath.barrier import STEP_FRAC, Problem, feasible, multipliers, slacks
from covpath.corrector import CorrectorConfig, corrector_run
from covpath.exceptions import NotPositiveDefinite
from covpath.path import scaling_warm_start, solve_at
from covpath.predictor import (
    CGResult,
    build_system,
    cg_solve,
    matvec,
    operator_diagonal,
    predictor_step_detail,
)
from covpath.reference import explicit_system
from covpath.symmat import cholesky_logdet, pd_factor, symmetrize


def h_of(p, U, t):
    """Residual map on arbitrary (possibly asymmetric) square matrices."""
    L = t / (p.rho + p.sigma - U)
    M = t / (p.rho - p.sigma + U)
    return L - M - np.linalg.inv(U)


class TestBuildSystem:
    def test_closed_forms(self):
        rng = np.random.default_rng(50)
        p = random_instance(rng, 4)
        U = pd_factor(random_feasible_point(rng, p))
        t = 1e-2
        D, rhs = build_system(t, slacks(p, U.matrix))
        L, M = multipliers(t, slacks(p, U.matrix))
        assert np.allclose(D, (L**2 + M**2) / t, rtol=1e-14)
        assert np.allclose(rhs, (L**2 - M**2) / t, rtol=1e-14)
        assert np.all(D > 0)

    def test_rhs_matches_finite_differences_in_rho(self):
        rng = np.random.default_rng(51)
        p = random_instance(rng, 4)
        U = random_feasible_point(rng, p)
        t = 1e-2
        _, rhs = build_system(t, slacks(p, U))
        d = 1e-5
        fd = (
            h_of(Problem(sigma=p.sigma, rho=p.rho + d), U, t)
            - h_of(Problem(sigma=p.sigma, rho=p.rho - d), U, t)
        ) / (2 * d)
        scale = max(1.0, np.abs(rhs).max())
        assert np.abs(fd - (-rhs)).max() <= 1e-6 * scale

    def test_jacobian_matches_finite_differences_in_u(self):
        rng = np.random.default_rng(52)
        p = random_instance(rng, 3)
        U = random_feasible_point(rng, p)
        t = 1e-2
        factor = pd_factor(U)
        D, _ = build_system(t, slacks(p, factor.matrix))
        d = 1e-5
        for i in range(3):
            for j in range(3):
                E = np.zeros((3, 3))
                E[i, j] = d
                fd = (h_of(p, U + E, t) - h_of(p, U - E, t)) / (2 * d)
                col = np.outer(factor.inverse[:, i], factor.inverse[j, :])
                col = col + D[i, j] * (np.arange(3)[:, None] == i) * (
                    np.arange(3)[None, :] == j
                )
                scale = max(1.0, np.abs(col).max())
                assert np.abs(fd - col).max() <= 1e-5 * scale


class TestMatvec:
    def test_identity_with_unit_diag(self):
        P = symmetrize(np.random.default_rng(53).standard_normal((3, 3)))
        assert np.allclose(matvec(np.eye(3), np.ones((3, 3)), P), 2.0 * P, rtol=1e-14)

    def test_zero_input(self):
        zero = np.zeros((3, 3))
        assert np.array_equal(matvec(np.eye(3), np.ones((3, 3)), zero), zero)

    def test_matches_explicit_kronecker(self):
        rng = np.random.default_rng(54)
        p = random_instance(rng, 5)
        U = pd_factor(random_feasible_point(rng, p))
        t = 1e-2
        D, _ = build_system(t, slacks(p, U.matrix))
        K = explicit_system(p, U, t)
        for _ in range(5):
            P = symmetrize(rng.standard_normal((5, 5)))
            direct = (K @ P.reshape(-1)).reshape(5, 5)
            assert np.abs(matvec(U.inverse, D, P) - direct).max() <= 1e-12 * max(1, np.abs(direct).max())

    def test_operator_is_self_adjoint(self):
        rng = np.random.default_rng(55)
        p = random_instance(rng, 4)
        U = pd_factor(random_feasible_point(rng, p))
        D, _ = build_system(1e-3, slacks(p, U.matrix))
        for _ in range(5):
            P = symmetrize(rng.standard_normal((4, 4)))
            Q = symmetrize(rng.standard_normal((4, 4)))
            lhs = np.sum(matvec(U.inverse, D, P) * Q)
            rhs = np.sum(P * matvec(U.inverse, D, Q))
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestCgSolve:
    def test_identity_system_single_iteration(self):
        rng = np.random.default_rng(56)
        rhs = symmetrize(rng.standard_normal((4, 4)))
        res = cg_solve(np.eye(4), np.ones((4, 4)), rhs, rel_drop=1e-10)
        assert res.iterations == 1
        assert res.converged
        assert np.allclose(res.direction, rhs / 2.0, atol=1e-12)

    def test_preconditioner_is_the_operator_diagonal(self):
        # Diagonal of criterion 5's explicit operator on symmetric matrices:
        # E_ii, and (E_ij + E_ji)/sqrt(2) off the diagonal.
        rng = np.random.default_rng(57)
        n = 5
        p = random_instance(rng, n)
        factor = pd_factor(random_feasible_point(rng, p))
        t = 1e-3
        K = explicit_system(p, factor, t)
        expected = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                B = np.zeros((n, n))
                B[i, j] = B[j, i] = 1.0 if i == j else 2**-0.5
                expected[i, j] = B.reshape(-1) @ K @ B.reshape(-1)
        got = operator_diagonal(factor.inverse, build_system(t, slacks(p, factor.matrix))[0])
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_zero_rhs(self):
        res = cg_solve(np.eye(3), np.ones((3, 3)), np.zeros((3, 3)))
        assert res.iterations == 0
        assert np.array_equal(res.direction, np.zeros((3, 3)))

    def test_matches_dense_solve_at_tight_tolerance(self):
        sigma, _ = generate_problem(GeneratorSpec(n=6, density=0.4, seed=3))
        rho = 0.4 * float(np.max(np.diag(sigma)))
        t = 1e-3 / 72
        p = Problem(sigma=sigma, rho=rho)
        factor = solve_at(sigma, rho, t, CorrectorConfig(tol_residual=1e-9))
        D, rhs = build_system(t, slacks(p, factor.matrix))
        res = cg_solve(factor.inverse, D, rhs, rel_drop=1e-10)
        K = explicit_system(p, factor, t)
        dense = np.linalg.solve(K, rhs.reshape(-1)).reshape(6, 6)
        rel = np.linalg.norm(res.direction - dense) / np.linalg.norm(dense)
        assert rel <= 1e-4

    def test_non_positive_curvature_at_once_gives_the_zero_direction(self):
        # With X = I and D = -10 the operator is -9 times the identity, so
        # the first direction already has negative curvature.
        rhs = symmetrize(np.random.default_rng(59).standard_normal((4, 4)))
        before = rhs.tobytes()
        res = cg_solve(np.eye(4), np.full((4, 4), -10.0), rhs)
        assert res.iterations == 0
        assert not res.converged
        assert np.array_equal(res.direction, np.zeros((4, 4)))
        assert np.array_equal(res.direction, res.direction.T)
        assert rhs.tobytes() == before

    def test_max_iters_flagged(self):
        rng = np.random.default_rng(58)
        p = random_instance(rng, 5)
        factor = pd_factor(random_feasible_point(rng, p))
        D, rhs = build_system(1e-4, slacks(p, factor.matrix))
        # A zero target is never met: CG runs to its n^2 cap.
        res = cg_solve(factor.inverse, D, rhs, rel_drop=0.0)
        assert res.iterations == 25
        assert not res.converged
        assert res.rel_residual > 0


class TestInPlaceUpdates:
    """matvec, operator_diagonal and cg_solve update only arrays of their
    own: X, D and rhs come back bitwise unchanged, and the operator image
    and the CG direction come back exactly symmetric."""

    @staticmethod
    def _system(seed):
        rng = np.random.default_rng(seed)
        p = random_instance(rng, 6)
        factor = pd_factor(random_feasible_point(rng, p))
        D, rhs = build_system(1e-3, slacks(p, factor.matrix))
        return factor.inverse, D, rhs, symmetrize(rng.standard_normal((6, 6)))

    @pytest.mark.parametrize("rel_drop", [1e-1, 1e-10, 0.0])
    def test_inputs_are_left_alone(self, rel_drop):
        X, D, rhs, P = inputs = self._system(61)
        before = [a.tobytes() for a in inputs]
        matvec(X, D, P)
        operator_diagonal(X, D)
        cg_solve(X, D, rhs, rel_drop)
        assert [a.tobytes() for a in inputs] == before

    @pytest.mark.parametrize("rel_drop", [1e-1, 1e-10, 0.0])
    def test_outputs_are_exactly_symmetric(self, rel_drop):
        X, D, rhs, P = self._system(62)
        image = matvec(X, D, P)
        assert np.array_equal(image, image.T)
        direction = cg_solve(X, D, rhs, rel_drop).direction
        assert np.array_equal(direction, direction.T)


class TestPredictorStep:
    def test_zero_step_returns_input(self):
        rng = np.random.default_rng(59)
        p = random_instance(rng, 4)
        factor = pd_factor(random_feasible_point(rng, p))
        out, h_used, _ = predictor_step_detail(p, factor, 1e-3, 0.0)
        assert h_used == 0.0
        assert np.array_equal(out, factor.matrix)

    def test_scalar_analytic_path_second_order_accuracy(self):
        # for a 1x1 instance the central path solves
        # (1+2t) u^2 - 2 sigma (1+t) u + sigma^2 - rho^2 = 0
        sigma_val, t = 2.0, 0.1

        def u_central(rho):
            a = 1.0 + 2.0 * t
            b = -2.0 * sigma_val * (1.0 + t)
            c = sigma_val**2 - rho**2
            return (-b + np.sqrt(b * b - 4 * a * c)) / (2 * a)

        errors = []
        for h in (-0.05, -0.025):
            rho0 = 1.0
            p = Problem(sigma=np.array([[sigma_val]]), rho=rho0)
            U = pd_factor(np.array([[u_central(rho0)]]))
            out, h_used, _ = predictor_step_detail(p, U, t, h)
            assert h_used == h
            errors.append(abs(out[0, 0] - u_central(rho0 + h)))
        ratio = errors[0] / errors[1]
        assert 2.5 <= ratio <= 6.5

    @staticmethod
    def _long_step():
        rng = np.random.default_rng(60)
        p = random_instance(rng, 5, density=0.5, rho_frac=0.4)
        t = 1e-3 / 50
        factor = solve_at(p.sigma, p.rho, t, CorrectorConfig(tol_residual=1e-9))
        h = -0.9 * p.rho  # aggressive move toward the dense end
        return p, factor, t, h

    def test_long_step_is_strictly_feasible(self):
        p, factor, t, h = self._long_step()
        out, h_used, _ = predictor_step_detail(p, factor, t, h)
        assert abs(h_used) <= abs(h)
        assert feasible(Problem(sigma=p.sigma, rho=p.rho + h_used), out)

    def test_box_limit_sets_the_step_length(self):
        # The box cuts the long step short, to STEP_FRAC of the way to its
        # nearest face: the tightest slack keeps 1 - STEP_FRAC of its value
        # at the start, and the endpoint is positive definite as it stands.
        p, factor, t, h = self._long_step()
        out, h_used, res = predictor_step_detail(p, factor, t, h)
        assert 0.0 < h_used / h < 1.0
        assert np.array_equal(out, factor.matrix + h_used * res.direction)
        before = slacks(p, factor.matrix)
        after = slacks(Problem(sigma=p.sigma, rho=p.rho + h_used), out)
        kept = min((a / b).min() for a, b in zip(after, before))
        assert kept == pytest.approx(1.0 - STEP_FRAC, rel=1e-6)

    def test_endpoint_is_limited_by_the_box_alone(self, monkeypatch):
        # sigma = I at rho = 3: the box around U = I reaches below the PD
        # cone. Along dU = 1.5 I the step h = -1 stays inside the box
        # (largest relative slack move 2.5/3 < STEP_FRAC), so it is taken
        # whole, to -0.5 I: the step tests no endpoint for positive
        # definiteness (the path driver tests the start it builds).
        p = Problem(sigma=np.eye(2), rho=3.0)
        factor = pd_factor(np.eye(2))
        tangent = CGResult(
            direction=1.5 * np.eye(2), iterations=1, converged=True, rel_residual=0.0
        )
        monkeypatch.setattr(predictor, "cg_solve", lambda X, D, rhs: tangent)
        out, h_used, _ = predictor_step_detail(p, factor, 1e-2, -1.0)
        assert h_used == -1.0
        assert np.array_equal(out, -0.5 * np.eye(2))
        slacks(Problem(sigma=p.sigma, rho=p.rho + h_used), out)  # inside the box
        with pytest.raises(NotPositiveDefinite, match="Cholesky factorization failed|pivot below"):
            cholesky_logdet(out)

    def test_predictor_warm_start_not_worse_than_scaling(self):
        sigma, _ = generate_problem(GeneratorSpec(n=20, density=0.15, seed=5))
        rho0 = 0.5 * float(np.max(np.diag(sigma)))
        t = 1e-3 / (2 * 400)
        factor = solve_at(sigma, rho0, t, CorrectorConfig(tol_residual=1e-8))
        p0 = Problem(sigma=sigma, rho=rho0)
        h = -0.05 * rho0
        rho1 = rho0 + h
        p1 = Problem(sigma=sigma, rho=rho1)
        U_pred, h_used, _ = predictor_step_detail(p0, factor, t, h)
        if h_used != h:
            U_pred = scaling_warm_start(sigma, U_pred, rho0 + h_used, rho1)
        U_scal = scaling_warm_start(sigma, factor.matrix, rho0, rho1)
        cfg = CorrectorConfig(tol_residual=1e-8)
        _, stats_pred = corrector_run(p1, U_pred, t, cfg)
        _, stats_scal = corrector_run(p1, U_scal, t, cfg)
        # diagnostic trend, deliberately slack: the tangent start should
        # not need meaningfully more correction than plain rescaling
        assert stats_pred.sweeps <= stats_scal.sweeps + 1
