import numpy as np
import pytest

from conftest import random_pd
from covpath import corrector, kernels
from covpath.barrier import Problem, initial_point
from covpath.data import GeneratorSpec, generate_problem
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


needs_numba = pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba unavailable")


def _assert_row_kernels_agree(reference, block, tol=1e-12, ref_passes=30):
    """The numpy Newton kernel and a CD reference reach the same block minimizer."""
    V_inv, u, w, b, c, rho, t = block
    u1, u2 = u.copy(), u.copy()
    out1 = reference(V_inv, u1, w, b, c, rho, t, tol, ref_passes, 1e-12 * rho)
    out2 = kernels.row_inner_numpy(V_inv, u2, w, b, c, rho, t, tol, 30, 1e-12 * rho)
    assert out1[2] == out2[2] == kernels.STATUS_OK
    assert abs(out1[0] - out2[0]) <= 1e-10 * (1.0 + abs(out1[0]))
    assert np.allclose(u1, u2, atol=1e-10)


class TestBackendAgreement:
    """Both backends solve the same block problem by different methods (closed-form
    coordinate descent vs damped Newton), so they agree on the minimizer, not on
    the number of passes."""

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

    @needs_numba
    @pytest.mark.parametrize("m", [0, 1, 2, 5, 12])
    def test_row_inner_matches_across_backends(self, m):
        block = _random_block(np.random.default_rng(40 + m), m)
        _assert_row_kernels_agree(kernels.row_inner_numba, block)

    @needs_numba
    def test_solver_registry(self):
        assert kernels.row_solver("numpy") is kernels.row_inner_numpy
        assert kernels.row_solver("numba") is kernels.row_inner_numba
        with pytest.raises(ValueError):
            kernels.row_solver("cython")

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
            bp = corrector.make_partition(p, U, i)
            _, passes, status = kernels.row_inner_numpy(
                bp.V_inv, bp.u.copy(), bp.w, bp.b, bp.c, p.rho, t, corrector.TOL_BLOCK,
                corrector.MAX_INNER_PASSES, corrector.GUARD_FRAC * p.rho,
            )
            assert status == kernels.STATUS_OK
            assert passes <= 3
            block = (bp.V_inv, bp.u, bp.w, bp.b, bp.c, p.rho, t)
            _assert_row_kernels_agree(kernels._row_inner_loops, block)

    def test_infeasible_start_returns_status(self):
        u = np.zeros(2)
        # w = c + rho sits on the upper face of the diagonal box.
        out = kernels.row_inner_numpy(
            np.eye(2), u, 1.0, np.zeros(2), 0.0, 1.0, 0.1, 1e-9, 5, 1e-12
        )
        assert out == (1.0, 0, kernels.STATUS_INFEASIBLE)
        assert np.array_equal(u, np.zeros(2))


class TestDefaultBackend:
    def test_default_follows_numba_import(self):
        assert kernels.DEFAULT_BACKEND == ("numba" if kernels.HAVE_NUMBA else "numpy")
        assert kernels.row_solver() is kernels.row_solver(kernels.DEFAULT_BACKEND)
        if not kernels.HAVE_NUMBA:
            assert kernels.row_solver() is kernels.row_inner_numpy
            with pytest.raises(ValueError, match="not installed"):
                kernels.row_solver("numba")


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
    x, status = kernels._solve_coordinate(alpha, beta, gamma, 0.0, 1.0, 1e-3, -0.965, 0.1)
    assert (x, status) == (-0.965, kernels.STATUS_OK)


def test_warm_up_all_backends():
    for backend in kernels.available_backends():
        kernels.warm_up(backend)
