import numpy as np
import pytest

from conftest import random_pd
from covpath import kernels


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


class TestCubicRoots:
    def test_against_numpy_roots(self):
        rng = np.random.default_rng(44)
        buf = np.empty(3)
        for _ in range(500):
            coeffs = rng.uniform(-3, 3, 4)
            coeffs[0] = coeffs[0] if abs(coeffs[0]) > 0.1 else 1.0
            count = kernels._real_cubic_roots(*coeffs, buf)
            mine = sorted(buf[:count].tolist())
            ref = np.roots(coeffs)
            ref = sorted(float(r.real) for r in ref if abs(r.imag) < 1e-9 * max(1, abs(r)))
            assert len(mine) >= len(ref) - 0  # same multiset up to double-root merging
            for r in ref:
                assert min(abs(r - x) for x in mine) <= 1e-7 * (1 + abs(r))

    def test_zero_constant_term_deflates_exactly(self):
        buf = np.empty(3)
        count = kernels._real_cubic_roots(-4.0, 0.0, 4.0, 0.0, buf)
        assert 0.0 in buf[:count].tolist()
        roots = sorted(buf[:count].tolist())
        assert np.allclose(roots, [-1.0, 0.0, 1.0])

    def test_nonfinite_coefficients_flagged(self):
        buf = np.empty(3)
        assert kernels._real_cubic_roots(np.nan, 0.0, 1.0, 0.0, buf) == -1


def test_warm_up_all_backends():
    for backend in kernels.available_backends():
        kernels.warm_up(backend)
