import numpy as np
import pytest

from conftest import random_pd
from covpath import kernels
from covpath.barrier import Problem, initial_point
from covpath.data import GeneratorSpec, generate_problem
from covpath.exceptions import Infeasible, NumericalBreakdown
from covpath.kernels import sub_inverse
from covpath.reference import GUARD_FRAC, MAX_INNER_PASSES, TOL_BLOCK
from covpath.symmat import pd_factor


def _random_block(rng, m):
    """Feasible row-block data (V_inv, u, w, b, c, rho, t)."""
    V = random_pd(rng, m)
    V_inv = np.linalg.inv(V)
    V_inv = 0.5 * (V_inv + V_inv.T)
    b = rng.uniform(-0.4, 0.4, m)
    c = rng.uniform(0.5, 2.0)
    rho = rng.uniform(0.8, 1.5)
    u = b + rng.uniform(-0.6, 0.6, m) * rho
    s = float(u @ V_inv @ u)
    w = max(s, c - rho) + rng.uniform(0.1, 0.9) * ((c + rho) - max(s, c - rho))
    t = 10.0 ** rng.uniform(-5, -1)
    return V_inv, u, w, b, c, rho, t


def _assert_row_kernels_agree(reference, block, tol=1e-12, ref_passes=30):
    """The numpy Newton kernel and a CD reference reach the same block minimizer."""
    V_inv, u, w, b, c, rho, t = block
    u1, u2 = u.copy(), u.copy()
    w1, _ = reference(V_inv, u1, w, b, c, rho, t, tol, ref_passes, 1e-12 * rho)
    w2, _ = kernels.row_inner_numpy(V_inv, u2, w, b, c, rho, t, tol, 30, 1e-12 * rho)
    assert abs(w1 - w2) <= 1e-10 * (1.0 + abs(w1))
    assert np.allclose(u1, u2, atol=1e-10)


class TestBackendAgreement:
    """The Newton kernel and the coordinate-descent body solve the same block
    problem by different methods (damped Newton vs closed-form coordinate
    descent), so they agree on the minimizer, not on the number of passes."""

    @pytest.mark.parametrize("m", [0, 1, 2, 5, 12])
    def test_row_inner_matches_python_reference(self, m):
        block = _random_block(np.random.default_rng(40 + m), m)
        _assert_row_kernels_agree(kernels._row_inner_loops, block)

    def test_tiny_barrier_weight_matches_python_reference(self):
        # At tiny t the minimizer sits near a face of the box. From a start
        # too close to that face, Newton steps are tiny in absolute terms
        # while the slack is still far off, so a stop on the step length
        # alone would leave errors of order 1e-7 here.
        for seed in range(30):
            rng = np.random.default_rng(500 + seed)
            m = int(rng.integers(0, 13))
            V_inv, u, w, b, c, rho, _ = _random_block(rng, m)
            t = 10.0 ** rng.uniform(-10, -7)
            block = (V_inv, u, w, b, c, rho, t)
            _assert_row_kernels_agree(
                kernels._row_inner_loops, block, tol=1e-13, ref_passes=300
            )

    def test_rows_at_initial_point_take_few_newton_iterations(self):
        # barrier.initial_point leaves each diagonal slack at 1e-2 rho_max,
        # orders of magnitude off its optimum; the closed-form diagonal start
        # moves it there before Newton, which took 7 iterations on some rows
        # of this instance without it.
        sigma, _ = generate_problem(GeneratorSpec(n=30, density=0.1, seed=3))
        p = Problem(sigma=sigma, rho=float(np.max(np.diagonal(sigma))))
        t = 1e-3 / (2 * p.n**2)
        U = pd_factor(initial_point(p))
        for i in range(p.n):
            keep = np.arange(p.n) != i
            block = (
                sub_inverse(U.inverse, i), U.matrix[i, keep], U.matrix[i, i],
                p.sigma[i, keep], p.sigma[i, i], p.rho, t,
            )
            V_inv, u, w, b, c, rho, _ = block
            _, passes = kernels.row_inner_numpy(
                V_inv, u.copy(), w, b, c, rho, t, TOL_BLOCK,
                MAX_INNER_PASSES, GUARD_FRAC * rho,
            )
            assert passes <= 3
            _assert_row_kernels_agree(kernels._row_inner_loops, block)

    def test_infeasible_start_raises(self):
        u = np.zeros(2)
        # w = c + rho sits on the upper face of the diagonal box.
        with pytest.raises(Infeasible, match="row block left the box"):
            kernels.row_inner_numpy(np.eye(2), u, 1.0, np.zeros(2), 0.0, 1.0, 0.1, 1e-9, 5, 1e-12)
        assert np.array_equal(u, np.zeros(2))

    def test_indefinite_newton_system_raises(self):
        # An indefinite V_inv = -1000 with r = w - u^T V_inv u > 0 inside the
        # box: the block Hessian (2/r) V_inv + ... has a negative pivot.
        with pytest.raises(NumericalBreakdown, match="row Newton system is not PD"):
            kernels.row_inner_numpy(
                np.array([[-1e3]]), np.array([1e-4]), 1.0, np.zeros(1), 1.0, 1.0, 0.1, 1e-9, 5,
                1e-12,
            )


class TestDefaultBackend:
    def test_row_solver_is_the_newton_kernel(self):
        assert kernels.DEFAULT_BACKEND == "numpy"
        assert kernels.row_solver() is kernels.row_inner_numpy


class TestMiddleCubicRoot:
    def test_returns_middle_of_three_real_roots(self):
        rng = np.random.default_rng(44)
        for _ in range(500):
            r1, r2, r3 = np.sort(rng.uniform(-3, 3, 3))
            if min(r2 - r1, r3 - r2) < 0.05:
                continue  # clustered roots are ill-conditioned in any closed form
            lead = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1, 1)
            coeffs = lead * np.poly([r1, r2, r3])
            x = kernels._middle_cubic_root(*coeffs)
            assert abs(x - r2) <= 1e-9 * max(abs(r1), abs(r2), abs(r3))

    def test_zero_constant_term_deflates_exactly(self):
        assert kernels._middle_cubic_root(-4.0, 0.0, 4.0, 0.0) == 0.0

    def test_nonfinite_coefficients_give_nan(self):
        assert np.isnan(kernels._middle_cubic_root(np.nan, 0.0, 1.0, 0.0))


def test_coordinate_move_keeps_current_point_when_interval_is_inside_guard():
    # Box (-1, 1), guard 0.1; the quadratic is positive only on
    # (-0.98, -0.95), inside the guard band. The minimizer clamped to the
    # guarded box, -0.9, would make the quadratic negative, so x stays put.
    r1, r2 = -0.98, -0.95
    alpha, beta, gamma = -1.0, r1 + r2, -r1 * r2
    x = kernels._solve_coordinate(alpha, beta, gamma, 0.0, 1.0, 1e-3, -0.965, 0.1)
    assert x == -0.965
