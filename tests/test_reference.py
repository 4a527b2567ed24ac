import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import random_feasible_point, random_instance
from covpath.barrier import Problem, multipliers, residual, slacks
from covpath.corrector import CorrectorConfig, corrector_run
from covpath.exceptions import MaxItersExceeded
from covpath.reference import (
    OracleConfig,
    central_point,
    explicit_system,
    golden_section,
    newton_solve,
)
from covpath.symmat import pd_factor


class TestGoldenSection:
    def test_quadratic(self):
        x = golden_section(lambda z: (z - 0.3) ** 2, 0.0, 1.0, tol=1e-10)
        assert x == pytest.approx(0.3, abs=1e-7)

    def test_symmetric_block_objective(self):
        f = lambda z: -np.log(1.0 - z * z) - 0.5 * (np.log(1 - z) + np.log(1 + z))
        x = golden_section(f, -0.99, 0.99, tol=1e-10)
        assert x == pytest.approx(0.0, abs=1e-7)


class TestNewtonSolve:
    def test_scalar_closed_form(self):
        p = Problem(sigma=np.array([[1e-300]]), rho=1.0)
        out = newton_solve(p, np.array([[0.5]]), 0.5, OracleConfig(tol=1e-12))
        assert out.matrix[0, 0] == pytest.approx(2**-0.5, abs=1e-10)

    def test_diagonal_sigma_gives_separable_solution(self):
        sigma = np.diag([1.0, 3.0])
        rho, t = 0.6, 1e-2
        p = Problem(sigma=sigma, rho=rho)
        out = newton_solve(p, sigma + 0.3 * np.eye(2), t, OracleConfig(tol=1e-11))
        assert np.abs(out.matrix - np.diag(np.diag(out.matrix))).max() <= 1e-9
        for i in range(2):
            s_ii = sigma[i, i]
            root = brentq(
                lambda u: t / (rho + s_ii - u) - t / (rho - s_ii + u) - 1.0 / u,
                s_ii - rho + 1e-12,
                s_ii + rho - 1e-12,
                xtol=1e-14,
            )
            assert out.matrix[i, i] == pytest.approx(root, abs=1e-9)

    def test_agrees_with_corrector(self):
        rng = np.random.default_rng(70)
        p = random_instance(rng, 4, density=0.6)
        t = 1e-4
        U0 = random_feasible_point(rng, p)
        newton = newton_solve(p, U0, t, OracleConfig(tol=1e-11))
        cd = corrector_run(p, U0, t, CorrectorConfig(tol_residual=1e-10))[0]
        assert np.linalg.norm(newton.matrix - cd.matrix) <= 1e-5

    def test_max_iters_raises(self):
        rng = np.random.default_rng(71)
        p = random_instance(rng, 4, density=0.6)
        with pytest.raises(MaxItersExceeded):
            newton_solve(p, random_feasible_point(rng, p), 1e-6, OracleConfig(tol=1e-12, max_iters=2))


class TestCentralPoint:
    def test_residual_within_tolerance(self):
        rng = np.random.default_rng(72)
        p = random_instance(rng, 5, density=0.5)
        t = 1e-4
        factor = central_point(p, t, OracleConfig(tol=1e-9))
        assert np.linalg.norm(
            residual(multipliers(t, slacks(p, factor.matrix)), factor.inverse)
        ) <= 1e-9


class TestExplicitSystem:
    def test_identity_instance_is_twice_identity(self):
        # sigma = U = I with rho=1, t=1/2 makes D all ones
        p = Problem(sigma=np.eye(2), rho=1.0)
        K = explicit_system(p, pd_factor(np.eye(2)), 0.5)
        assert np.allclose(K, 2.0 * np.eye(4), atol=1e-14)

    def test_matches_matvec_on_full_basis(self):
        from covpath.predictor import build_system, matvec

        rng = np.random.default_rng(73)
        p = random_instance(rng, 6, density=0.4)
        U = pd_factor(random_feasible_point(rng, p))
        t = 1e-3
        K = explicit_system(p, U, t)
        D, _ = build_system(t, slacks(p, U.matrix))
        for i in range(6):
            for j in range(6):
                E = np.zeros((6, 6))
                E[i, j] = 1.0
                E[j, i] = 1.0
                direct = (K @ E.reshape(-1)).reshape(6, 6)
                assert np.abs(matvec(U.inverse, D, E) - direct).max() <= 1e-10

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(74)
        p = random_instance(rng, 4, density=0.5)
        t = 1e-3
        factor = central_point(p, t, OracleConfig(tol=1e-8))
        K = explicit_system(p, factor, t)
        assert np.allclose(K, K.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(K)) > 0
