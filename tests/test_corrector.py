import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import random_feasible_point, random_instance
from covpath import kernels
from covpath.barrier import Problem, barrier_objective, feasible, initial_point
from covpath.corrector import CorrectorConfig, corrector_run
from covpath.exceptions import Infeasible, MaxSweepsExceeded, NumericalBreakdown
from covpath.kernels import sub_inverse
from covpath.reference import GUARD_FRAC, OracleConfig, block_cd_run, central_point, golden_section
from covpath.symmat import pd_factor


def coord_objective(x, quad, b_j, rho, t):
    alpha, beta, gamma = quad
    return -np.log(alpha * x * x + beta * x + gamma) - 2 * t * (
        np.log(rho + b_j - x) + np.log(rho - b_j + x)
    )


def diag_objective(w, s, c, rho, t):
    return -np.log(w - s) - t * (np.log(rho + c - w) + np.log(rho - c + w))


def feasible_coord_interval(quad, b_j, rho):
    """Open interval where the box holds and the Schur quadratic is positive."""
    alpha, beta, gamma = quad
    disc = beta**2 - 4 * alpha * gamma
    lo, hi = b_j - rho, b_j + rho
    if disc > 0:
        r1 = (-beta + np.sqrt(disc)) / (2 * alpha)
        r2 = (-beta - np.sqrt(disc)) / (2 * alpha)
        lo = max(lo, min(r1, r2))
        hi = min(hi, max(r1, r2))
    return lo, hi


def random_coord_case(rng, log_t_min=-5.0):
    """Quadratic coefficients (alpha, beta, gamma) with a non-empty feasible
    interval containing x_cur."""
    while True:
        alpha = -(10.0 ** rng.uniform(-2, 1))
        beta = rng.uniform(-2, 2)
        b_j = rng.uniform(-0.8, 0.8)
        rho = 10.0 ** rng.uniform(-1, 0.5)
        t = 10.0 ** rng.uniform(log_t_min, 0)
        x0 = b_j + rng.uniform(-0.9, 0.9) * rho
        # choose gamma so the quadratic is comfortably positive at x0
        gamma = rng.uniform(0.1, 2.0) - alpha * x0**2 - beta * x0
        quad = (alpha, beta, gamma)
        lo, hi = feasible_coord_interval(quad, b_j, rho)
        if hi - lo > 1e-6 and lo < x0 < hi:
            return quad, b_j, rho, t, x0


class TestCoordCoefficients:
    def test_zero_offdiagonal(self):
        # V_inv = I, u = 0, w = 3: coordinate 0 has q_0 = 0 and Schur value 3.
        alpha, beta, gamma = kernels._coord_quadratic(1.0, 0.0, 0.0, 3.0)
        assert beta == 0.0
        assert gamma == 3.0
        assert alpha == -1.0

    def test_identity_vinv(self):
        # V_inv = I, u = (0.4, 0.7), w = 3: coordinate 0 has q_0 = 0.4.
        alpha, beta, gamma = kernels._coord_quadratic(1.0, 0.4, 0.4, 3.0 - 0.4**2 - 0.7**2)
        assert alpha == -1.0
        assert beta == 0.0
        assert gamma == pytest.approx(3.0 - 0.7**2, rel=1e-14)

    def test_quadratic_traces_schur_term(self):
        rng = np.random.default_rng(22)
        p = random_instance(rng, 5)
        U = pd_factor(random_feasible_point(rng, p))
        i, j = 3, 1
        V_inv = sub_inverse(U.inverse, i)
        u = U.matrix[i, np.arange(5) != i]
        w = U.matrix[i, i]
        q = V_inv @ u
        alpha, beta, gamma = kernels._coord_quadratic(V_inv[j, j], q[j], u[j], w - u @ q)
        for x in (u[j], u[j] + 0.01, u[j] - 0.01):
            u_mod = u.copy()
            u_mod[j] = x
            direct = w - u_mod @ V_inv @ u_mod
            assert alpha * x * x + beta * x + gamma == pytest.approx(direct, abs=1e-10)


class TestCubicCoefficients:
    def test_symmetric_case(self):
        p1, p2, p3, p4 = kernels._cubic_coefficients(-1.0, 0.0, 1.0, 0.0, 1.0, 0.5)
        assert p1 == -4.0
        assert p2 == 0.0
        assert p4 == 0.0
        # cubic p1 x^3 + p3 x = 0 has roots {0, +-sqrt(-p3/p1)}; the
        # stationarity expansion puts the nonzero pair exactly on the
        # feasibility boundary, leaving x*=0 as the only feasible root.
        nonzero = np.sqrt(-p3 / p1)
        assert nonzero == pytest.approx(1.0, rel=1e-12)

    def test_odd_parity(self):
        _, p2, _, p4 = kernels._cubic_coefficients(-2.0, 0.0, 1.5, 0.0, 0.7, 0.2)
        assert p2 == 0.0
        assert p4 == 0.0

    def test_root_is_stationary_point(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            quad, b_j, rho, t, x0 = random_coord_case(rng)
            x = kernels._solve_coordinate(*quad, b_j, rho, t, x0, GUARD_FRAC * rho)
            if x == x0:
                continue
            alpha, beta, gamma = quad
            value = alpha * x * x + beta * x + gamma
            deriv = (
                -(2 * alpha * x + beta) / value
                + 2 * t / (rho + b_j - x)
                - 2 * t / (rho - b_j + x)
            )
            scale = abs(2 * alpha * x + beta) / value + 2 * t / rho
            assert abs(deriv) <= 1e-8 * max(1.0, scale)


class TestSolveCoordinate:
    def test_only_the_middle_root_is_feasible(self):
        # The convexity argument behind kernels._solve_coordinate: the cubic
        # has three real roots and only the middle one is in the feasible
        # interval, where the closed form finds it.
        rng = np.random.default_rng(27)
        for _ in range(1000):
            quad, b_j, rho, t, _ = random_coord_case(rng, log_t_min=-10.0)
            coeffs = kernels._cubic_coefficients(*quad, b_j, rho, t)
            roots = np.roots(coeffs)
            assert np.all(np.abs(roots.imag) <= 1e-9 * np.abs(roots))
            r1, r2, r3 = np.sort(roots.real)
            lo, hi = feasible_coord_interval(quad, b_j, rho)
            assert not lo < r1 < hi and lo < r2 < hi and not lo < r3 < hi
            mid = kernels._middle_cubic_root(*coeffs)
            assert mid == pytest.approx(r2, abs=1e-9 * max(1.0, abs(r2)))

    def test_symmetric_returns_exact_zero(self):
        x = kernels._solve_coordinate(-1.0, 0.0, 1.0, 0.0, 1.0, 0.5, 0.3, GUARD_FRAC)
        assert x == 0.0

    def test_non_finite_coefficients_raise(self):
        with pytest.raises(NumericalBreakdown, match="non-finite coefficients"):
            kernels._solve_coordinate(np.nan, 0.0, 1.0, 0.0, 1.0, 0.5, 0.3, GUARD_FRAC)

    def test_given_1d_instance_matches_golden_section(self):
        quad = (-1.0, 0.0, 1.21)
        b_j, rho, t = 0.3, 1.0, 0.1
        x = kernels._solve_coordinate(*quad, b_j, rho, t, 0.0, GUARD_FRAC * rho)
        lo, hi = feasible_coord_interval(quad, b_j, rho)
        ref = golden_section(
            lambda z: coord_objective(z, quad, b_j, rho, t), lo + 1e-9, hi - 1e-9, tol=1e-10
        )
        assert x == pytest.approx(ref, abs=1e-6)

    def test_randomized_against_golden_section(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            quad, b_j, rho, t, x0 = random_coord_case(rng)
            x = kernels._solve_coordinate(*quad, b_j, rho, t, x0, GUARD_FRAC * rho)
            lo, hi = feasible_coord_interval(quad, b_j, rho)
            pad = 1e-11 * (hi - lo)
            ref = golden_section(
                lambda z: coord_objective(z, quad, b_j, rho, t), lo + pad, hi - pad, tol=1e-10
            )
            assert x == pytest.approx(ref, abs=1e-6)

    def test_never_increases_objective(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            quad, b_j, rho, t, x0 = random_coord_case(rng)
            x = kernels._solve_coordinate(*quad, b_j, rho, t, x0, GUARD_FRAC * rho)
            assert coord_objective(x, quad, b_j, rho, t) <= coord_objective(
                x0, quad, b_j, rho, t
            ) + 1e-12


class TestSolveDiagonal:
    def test_symmetric_closed_form_exact(self):
        w = kernels._solve_diagonal(0.0, 0.0, 1.0, 0.5, GUARD_FRAC)
        assert w == 2.0**-0.5

    def test_large_t_limit_box_center(self):
        w = kernels._solve_diagonal(0.0, 1.2, 1.0, 1e6, GUARD_FRAC)
        assert w == pytest.approx(1.2, abs=1e-3)

    def test_randomized_against_golden_section(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            s = rng.uniform(0.0, 2.0)
            c = rng.uniform(-1.0, 3.0)
            rho = 10.0 ** rng.uniform(-1, 0.7)
            t = 10.0 ** rng.uniform(-5, 0)
            lo, hi = max(s, c - rho), c + rho
            if hi - lo < 1e-4:
                continue
            w = kernels._solve_diagonal(s, c, rho, t, GUARD_FRAC * rho)
            pad = 1e-10 * (hi - lo)
            ref = golden_section(
                lambda z: diag_objective(z, s, c, rho, t), lo + pad, hi - pad, tol=1e-11
            )
            assert w == pytest.approx(ref, abs=1e-8 * max(1.0, abs(ref)))

    def test_no_feasible_root_raises(self):
        # s above the whole box
        with pytest.raises(Infeasible, match="diagonal quadratic has no root above s in the box"):
            kernels._solve_diagonal(5.0, 1.0, 0.5, 0.1, GUARD_FRAC * 0.5)


def _no_worse_than_golden_section(f, x, lo, hi):
    """f(x) is at most f at golden section's minimizer on [lo, hi], padded
    off the faces, up to rounding in f (at most 2.5 ulps over 16000 draws
    per move). Near a face the minimizer is resolvable only to golden
    section's tolerance, so values are compared, not points."""
    pad = 1e-11 * (hi - lo)
    f_ref = f(golden_section(f, lo + pad, hi - pad, tol=1e-10))
    assert f(x) <= f_ref + 8.0 * np.finfo(float).eps * (1.0 + abs(f_ref)), (x, f(x), f_ref)


class TestMovesAtPathBarrierWeights:
    """Criterion 4 draws t in [1e-5, 1]; a path runs at t = gap/(2 n^2),
    5.6e-7 at n=30 and 5e-8 at n=100. These draw t down to 1e-10."""

    @given(
        log_alpha=st.floats(-2.0, 1.0),
        beta=st.floats(-2.0, 2.0),
        b_j=st.floats(-0.8, 0.8),
        log_rho=st.floats(-1.0, 0.5),
        x_frac=st.floats(-0.9, 0.9),
        q0=st.floats(0.1, 2.0),
        log_t=st.floats(-10.0, 0.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_coordinate_move(self, log_alpha, beta, b_j, log_rho, x_frac, q0, log_t):
        alpha, rho, t = -(10.0**log_alpha), 10.0**log_rho, 10.0**log_t
        x0 = b_j + x_frac * rho
        quad = (alpha, beta, q0 - alpha * x0**2 - beta * x0)
        lo, hi = feasible_coord_interval(quad, b_j, rho)
        assume(hi - lo > 1e-6 and lo < x0 < hi)
        x = kernels._solve_coordinate(*quad, b_j, rho, t, x0, GUARD_FRAC * rho)
        _no_worse_than_golden_section(lambda z: coord_objective(z, quad, b_j, rho, t), x, lo, hi)

    @given(
        s=st.floats(0.0, 2.0),
        c=st.floats(-1.0, 3.0),
        log_rho=st.floats(-1.0, 0.7),
        log_t=st.floats(-10.0, 0.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_diagonal_move(self, s, c, log_rho, log_t):
        rho, t = 10.0**log_rho, 10.0**log_t
        lo, hi = max(s, c - rho), c + rho
        assume(hi - lo >= 1e-4)
        w = kernels._solve_diagonal(s, c, rho, t, GUARD_FRAC * rho)
        _no_worse_than_golden_section(lambda z: diag_objective(z, s, c, rho, t), w, lo, hi)


class TestCorrectorSolve:
    def test_separable_diagonal_instance(self):
        sigma = np.diag([1.0, 2.0, 3.0])
        rho = 0.8
        t = 1e-4
        p = Problem(sigma=sigma, rho=rho)
        factor = corrector_run(p, initial_point(p), t, CorrectorConfig(tol_residual=1e-11))[0]
        off = factor.matrix - np.diag(np.diag(factor.matrix))
        assert np.abs(off).max() <= 1e-11
        for i in range(3):
            s_ii = sigma[i, i]
            root = brentq(
                lambda u: t / (rho + s_ii - u) - t / (rho - s_ii + u) - 1.0 / u,
                s_ii - rho + 1e-12,
                s_ii + rho - 1e-12,
                xtol=1e-14,
            )
            assert factor.matrix[i, i] == pytest.approx(root, abs=1e-9)

    def test_separable_t_to_zero_limit(self):
        sigma = np.diag([1.0, 2.0])
        rho = 0.5
        t = 1e-9
        p = Problem(sigma=sigma, rho=rho)
        # ||H|| has a cancellation floor ~ eps * scale / t, so the stop
        # tolerance must sit above it at this tiny t.
        factor = corrector_run(
            p, np.diag([1.2, 2.2]), t, CorrectorConfig(tol_residual=1e-6)
        )[0]
        assert np.allclose(np.diag(factor.matrix), np.diag(sigma) + rho, atol=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_newton_reference(self, seed):
        rng = np.random.default_rng(1000 + seed)
        p = random_instance(rng, 4, density=0.6)
        t = 1e-3 / 32
        U0 = random_feasible_point(rng, p)
        factor = corrector_run(p, U0, t, CorrectorConfig(tol_residual=1e-10))[0]
        ref = central_point(p, t, OracleConfig(tol=1e-10))
        assert np.linalg.norm(factor.matrix - ref.matrix) <= 1e-5

    def test_objective_nonincreasing_across_sweeps(self):
        rng = np.random.default_rng(28)
        p = random_instance(rng, 5, density=0.6)
        t = 1e-4
        U0 = random_feasible_point(rng, p)
        values = []
        for sweeps in (1, 2, 3, 4):
            try:
                corrector_run(
                    p, U0, t, CorrectorConfig(tol_residual=0.0, max_sweeps=sweeps)
                )
            except MaxSweepsExceeded as exc:
                values.append(barrier_objective(p, exc.best, t))
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_agrees_with_block_coordinate_descent(self):
        # Criterion 3's 1e-5 against the paper's corrector, over barrier
        # weights down to 1e-10. Rounding leaves a residual floor of about
        # eps * max|U| * t / slack^2, which at t = 1e-10 can exceed 1e-7, so
        # the stop tolerance sits above the floor measured at a first solve.
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            p = random_instance(rng, n, density=0.5, rho_frac=float(rng.uniform(0.1, 0.9)))
            t = 10.0 ** rng.uniform(-10, -2)
            U0 = random_feasible_point(rng, p)
            first = block_cd_run(p, U0, t)[0].matrix
            slack = p.rho - np.abs(first - p.sigma)
            floor = np.finfo(float).eps * np.abs(first).max() * t / slack.min() ** 2
            cfg = CorrectorConfig(tol_residual=max(1e-8, 4.0 * floor))
            newton = corrector_run(p, U0, t, cfg)[0]
            block_cd = block_cd_run(p, U0, t, cfg)[0]
            assert np.linalg.norm(newton.matrix - block_cd.matrix) <= 1e-5, (n, t)

    def test_converged_start_takes_one_full_step(self):
        rng = np.random.default_rng(32)
        p = random_instance(rng, 5, density=0.5)
        t = 1e-4
        cfg = CorrectorConfig(tol_residual=1e-8)
        start, _ = corrector_run(p, random_feasible_point(rng, p), t, cfg)
        factor, stats = corrector_run(p, start.matrix, t, cfg)
        assert stats.sweeps == 1
        assert not np.array_equal(factor.matrix, start.matrix)
        assert stats.residual_norm <= 1e-8
        with pytest.raises(MaxSweepsExceeded):
            corrector_run(p, start.matrix, t, CorrectorConfig(tol_residual=1e-8, max_sweeps=0))

    def test_infeasible_start_rejected(self):
        p = Problem(sigma=np.diag([1.0, 2.0]), rho=0.5)
        with pytest.raises(Infeasible):
            corrector_run(p, np.diag([2.0, 3.0]), 1e-3)

    def test_asymmetric_start_rejected(self):
        # Inside the box and PD, but not exactly symmetric: the start is
        # rejected, not averaged.
        p = Problem(sigma=np.diag([1.0, 2.0]), rho=0.5)
        U = np.array([[1.2, 0.1], [0.1 + 1e-12, 2.1]])
        with pytest.raises(Infeasible):
            corrector_run(p, U, 1e-3)

    @pytest.mark.parametrize("off", [np.nan, np.inf, 1.0])
    def test_non_finite_or_indefinite_start_rejected(self, off):
        # off = 1.0 is inside the box but leaves the start indefinite.
        p = Problem(sigma=np.diag([1.0, 1.0]), rho=2.0)
        with pytest.raises(Infeasible):
            corrector_run(p, np.array([[0.5, off], [off, 0.5]]), 1e-3)

    def test_max_sweeps_carries_best_iterate(self):
        rng = np.random.default_rng(29)
        p = random_instance(rng, 4, density=0.6)
        with pytest.raises(MaxSweepsExceeded) as err:
            corrector_run(
                p, random_feasible_point(rng, p), 1e-4,
                CorrectorConfig(tol_residual=1e-300, max_sweeps=2),
            )
        assert err.value.best is not None
        assert err.value.residual > 0
        assert feasible(p, err.value.best.matrix)

    def test_coordinate_descent_body_agrees_uncompiled(self, monkeypatch):
        # The paper's coordinate-descent body, run as plain Python in place
        # of the Newton row kernel, reaches the same central point.
        rng = np.random.default_rng(30)
        p = random_instance(rng, 5, density=0.5)
        t = 1e-4
        U0 = random_feasible_point(rng, p)
        cfg = CorrectorConfig(tol_residual=1e-9)
        newton = block_cd_run(p, U0, t, cfg)[0].matrix
        monkeypatch.setattr(kernels, "row_solver", lambda: kernels._row_inner_loops)
        coordinate_descent = block_cd_run(p, U0, t, cfg)[0].matrix
        assert np.linalg.norm(coordinate_descent - newton) <= 1e-8
