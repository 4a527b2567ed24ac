import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import random_feasible_point, random_instance
from covpath import kernels
from covpath.barrier import Problem, barrier_objective, feasible, initial_point
from covpath.corrector import (
    BlockPartition,
    CoordCoefficients,
    CorrectorConfig,
    block_dual_point,
    block_objective,
    coord_coefficients,
    corrector_run,
    cubic_coefficients,
    make_partition,
    row_scores,
    solve_coordinate,
    solve_diagonal,
)
from covpath.exceptions import Infeasible, MaxSweepsExceeded, NoFeasibleRoot
from covpath.reference import OracleConfig, central_point, golden_section
from covpath.symmat import cholesky_logdet, invert_pd, pd_factor


def coord_objective(x, cc, b_j, rho, t):
    quad = cc.alpha * x * x + cc.beta * x + cc.gamma
    return -np.log(quad) - 2 * t * (np.log(rho + b_j - x) + np.log(rho - b_j + x))


def diag_objective(w, s, c, rho, t):
    return -np.log(w - s) - t * (np.log(rho + c - w) + np.log(rho - c + w))


def feasible_coord_interval(cc, b_j, rho):
    """Open interval where the box holds and the Schur quadratic is positive."""
    disc = cc.beta**2 - 4 * cc.alpha * cc.gamma
    lo, hi = b_j - rho, b_j + rho
    if disc > 0:
        r1 = (-cc.beta + np.sqrt(disc)) / (2 * cc.alpha)
        r2 = (-cc.beta - np.sqrt(disc)) / (2 * cc.alpha)
        lo = max(lo, min(r1, r2))
        hi = min(hi, max(r1, r2))
    return lo, hi


def random_coord_case(rng):
    """Coefficients with a non-empty feasible interval containing x_cur."""
    while True:
        alpha = -(10.0 ** rng.uniform(-2, 1))
        beta = rng.uniform(-2, 2)
        b_j = rng.uniform(-0.8, 0.8)
        rho = 10.0 ** rng.uniform(-1, 0.5)
        t = 10.0 ** rng.uniform(-5, 0)
        x0 = b_j + rng.uniform(-0.9, 0.9) * rho
        # choose gamma so the quadratic is comfortably positive at x0
        gamma = rng.uniform(0.1, 2.0) - alpha * x0**2 - beta * x0
        cc = CoordCoefficients(alpha=alpha, beta=beta, gamma=gamma)
        lo, hi = feasible_coord_interval(cc, b_j, rho)
        if hi - lo > 1e-6 and lo < x0 < hi:
            return cc, b_j, rho, t, x0


class TestMakePartition:
    def test_diagonal_matrix(self):
        p = Problem(sigma=np.diag([1.0, 2.0, 3.0]), rho=0.5)
        U = pd_factor(np.diag([2.0, 4.0, 8.0]))
        bp = make_partition(p, U, 1)
        assert np.array_equal(bp.u, np.zeros(2))
        assert np.allclose(bp.V_inv, np.diag([0.5, 0.125]), rtol=1e-14)
        assert bp.w == 4.0
        assert bp.c == 2.0

    def test_2x2_arithmetic(self):
        p = Problem(sigma=np.eye(2), rho=1.5)
        U = pd_factor(np.array([[2.0, 1.0], [1.0, 2.0]]))
        bp = make_partition(p, U, 1)
        assert bp.V_inv[0, 0] == pytest.approx(0.5, rel=1e-14)
        assert np.array_equal(bp.u, [1.0])
        assert bp.w == 2.0

    def test_subinverse_matches_direct(self):
        rng = np.random.default_rng(20)
        p = random_instance(rng, 6)
        U = pd_factor(random_feasible_point(rng, p))
        for i in range(6):
            bp = make_partition(p, U, i)
            keep = np.arange(6) != i
            assert np.linalg.norm(bp.V_inv - invert_pd(U.matrix[np.ix_(keep, keep)])) <= 1e-10


class TestBlockObjective:
    def test_reduces_to_diagonal_objective_at_zero_offdiag(self):
        p = Problem(sigma=np.diag([2.0, 1.0]), rho=1.5)
        U = pd_factor(np.diag([2.5, 1.5]))
        bp = make_partition(p, U, 0)
        expected = diag_objective(2.5, 0.0, 2.0, 1.5, 0.1) + (
            -2 * 0.1 * (np.log(1.5 + 0.0 - 0.0) + np.log(1.5 - 0.0 + 0.0))
        )
        assert block_objective(bp, p, 0.1) == pytest.approx(expected, rel=1e-12)

    def test_matches_full_barrier_difference(self):
        rng = np.random.default_rng(21)
        p = random_instance(rng, 4)
        t = 1e-2
        U1 = random_feasible_point(rng, p)
        U2 = U1.copy()
        i = 2
        mask = np.arange(4) != i
        # nudge row i, keeping feasibility
        delta = 0.05 * p.rho * rng.uniform(-1, 1, 3)
        U2[i, mask] += delta
        U2[mask, i] += delta
        U2[i, i] += 0.03 * p.rho
        assert feasible(p, U2)
        full_diff = barrier_objective(p, pd_factor(U2), t) - barrier_objective(p, pd_factor(U1), t)
        f1 = pd_factor(U1)
        bp1 = make_partition(p, f1, i)
        bp2 = BlockPartition(
            V_inv=bp1.V_inv, u=U2[i, mask], w=U2[i, i], b=bp1.b, c=bp1.c, i=i
        )
        block_diff = block_objective(bp2, p, t) - block_objective(bp1, p, t)
        assert block_diff == pytest.approx(full_diff, abs=1e-8)

    def test_infeasible_raises(self):
        p = Problem(sigma=np.diag([2.0, 1.0]), rho=0.5)
        bp = BlockPartition(
            V_inv=np.array([[1.0]]), u=np.array([0.0]), w=5.0, b=np.array([0.0]), c=2.0, i=0
        )
        with pytest.raises(Infeasible):
            block_objective(bp, p, 0.1)


class TestCoordCoefficients:
    def test_zero_offdiagonal(self):
        bp = BlockPartition(
            V_inv=np.eye(2), u=np.zeros(2), w=3.0, b=np.zeros(2), c=1.0, i=0
        )
        cc = coord_coefficients(bp, 0)
        assert cc.beta == 0.0
        assert cc.gamma == 3.0
        assert cc.alpha == -1.0

    def test_identity_vinv(self):
        bp = BlockPartition(
            V_inv=np.eye(2), u=np.array([0.4, 0.7]), w=3.0, b=np.zeros(2), c=1.0, i=0
        )
        cc = coord_coefficients(bp, 0)
        assert cc.alpha == -1.0
        assert cc.beta == 0.0
        assert cc.gamma == pytest.approx(3.0 - 0.7**2, rel=1e-14)

    def test_quadratic_traces_schur_term(self):
        rng = np.random.default_rng(22)
        p = random_instance(rng, 5)
        U = pd_factor(random_feasible_point(rng, p))
        bp = make_partition(p, U, 3)
        j = 1
        cc = coord_coefficients(bp, j)
        for x in (bp.u[j], bp.u[j] + 0.01, bp.u[j] - 0.01):
            u_mod = bp.u.copy()
            u_mod[j] = x
            direct = bp.w - u_mod @ bp.V_inv @ u_mod
            quad = cc.alpha * x * x + cc.beta * x + cc.gamma
            assert quad == pytest.approx(direct, abs=1e-10)


class TestCubicCoefficients:
    def test_symmetric_case(self):
        cc = CoordCoefficients(alpha=-1.0, beta=0.0, gamma=1.0)
        p = cubic_coefficients(cc, 0.0, 1.0, 0.5)
        assert p.p1 == -4.0
        assert p.p2 == 0.0
        assert p.p4 == 0.0
        # cubic p1 x^3 + p3 x = 0 has roots {0, +-sqrt(-p3/p1)}; the
        # stationarity expansion puts the nonzero pair exactly on the
        # feasibility boundary, leaving x*=0 as the only feasible root.
        nonzero = np.sqrt(-p.p3 / p.p1)
        assert nonzero == pytest.approx(1.0, rel=1e-12)

    def test_odd_parity(self):
        cc = CoordCoefficients(alpha=-2.0, beta=0.0, gamma=1.5)
        p = cubic_coefficients(cc, 0.0, 0.7, 0.2)
        assert p.p2 == 0.0
        assert p.p4 == 0.0

    def test_root_is_stationary_point(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            cc, b_j, rho, t, x0 = random_coord_case(rng)
            x = solve_coordinate(cc, b_j, rho, t, x0)
            if x == x0:
                continue
            quad = cc.alpha * x * x + cc.beta * x + cc.gamma
            deriv = (
                -(2 * cc.alpha * x + cc.beta) / quad
                + 2 * t / (rho + b_j - x)
                - 2 * t / (rho - b_j + x)
            )
            scale = abs(2 * cc.alpha * x + cc.beta) / quad + 2 * t / rho
            assert abs(deriv) <= 1e-8 * max(1.0, scale)


class TestSolveCoordinate:
    def test_symmetric_returns_exact_zero(self):
        cc = CoordCoefficients(alpha=-1.0, beta=0.0, gamma=1.0)
        assert solve_coordinate(cc, 0.0, 1.0, 0.5, 0.3) == 0.0

    def test_given_1d_instance_matches_golden_section(self):
        cc = CoordCoefficients(alpha=-1.0, beta=0.0, gamma=1.21)
        b_j, rho, t = 0.3, 1.0, 0.1
        x = solve_coordinate(cc, b_j, rho, t, 0.0)
        lo, hi = feasible_coord_interval(cc, b_j, rho)
        ref = golden_section(
            lambda z: coord_objective(z, cc, b_j, rho, t), lo + 1e-9, hi - 1e-9, tol=1e-10
        )
        assert x == pytest.approx(ref, abs=1e-6)

    def test_randomized_against_golden_section(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            cc, b_j, rho, t, x0 = random_coord_case(rng)
            x = solve_coordinate(cc, b_j, rho, t, x0)
            lo, hi = feasible_coord_interval(cc, b_j, rho)
            pad = 1e-11 * (hi - lo)
            ref = golden_section(
                lambda z: coord_objective(z, cc, b_j, rho, t), lo + pad, hi - pad, tol=1e-10
            )
            assert x == pytest.approx(ref, abs=1e-6)

    def test_never_increases_objective(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            cc, b_j, rho, t, x0 = random_coord_case(rng)
            x = solve_coordinate(cc, b_j, rho, t, x0)
            assert coord_objective(x, cc, b_j, rho, t) <= coord_objective(
                x0, cc, b_j, rho, t
            ) + 1e-12


class TestSolveDiagonal:
    def test_symmetric_closed_form_exact(self):
        assert solve_diagonal(0.0, 0.0, 1.0, 0.5) == 2.0**-0.5

    def test_large_t_limit_box_center(self):
        w = solve_diagonal(0.0, 1.2, 1.0, 1e6)
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
            w = solve_diagonal(s, c, rho, t)
            pad = 1e-10 * (hi - lo)
            ref = golden_section(
                lambda z: diag_objective(z, s, c, rho, t), lo + pad, hi - pad, tol=1e-11
            )
            assert w == pytest.approx(ref, abs=1e-8 * max(1.0, abs(ref)))

    def test_no_feasible_root_raises(self):
        with pytest.raises(NoFeasibleRoot):
            solve_diagonal(5.0, 1.0, 0.5, 0.1)  # s above the whole box


class TestRowScores:
    def test_initial_point_formula(self):
        sigma = np.diag([1.0, 2.0, 3.0])
        p = Problem(sigma=sigma, rho=3.0)
        eps = 0.05
        U = pd_factor(initial_point(Problem(sigma=sigma, rho=3.0), eps))
        scores = row_scores(p, U.matrix, U.inverse)
        expected = eps * 3.0 / np.diag(U.matrix)
        assert np.allclose(scores, expected, rtol=1e-12)

    def test_boundary_scores_vanish(self):
        sigma = np.diag([1.0, 2.0])
        p = Problem(sigma=sigma, rho=0.5)
        U = pd_factor(np.diag([1.5, 2.5]))  # U_ii = sigma_ii + rho
        assert np.allclose(row_scores(p, U.matrix, U.inverse), 0.0, atol=1e-15)

    def test_argmax_score_gives_largest_diagonal_improvement(self):
        rng = np.random.default_rng(27)
        p = random_instance(rng, 4)
        U = pd_factor(random_feasible_point(rng, p))
        scores = row_scores(p, U.matrix, U.inverse)
        # exact dual-objective decrease of the best diagonal-only move is
        # log(1 + delta_i); computed freshly per row as the oracle
        decreases = []
        for i in range(4):
            bumped = U.matrix.copy()
            bumped[i, i] = p.sigma[i, i] + p.rho
            _, logdet = cholesky_logdet(bumped)
            decreases.append(logdet - U.logdet)
        assert np.argmax(decreases) == np.argmax(scores)
        assert np.allclose(decreases, np.log1p(scores), rtol=1e-9)


class TestCorrectorSolve:
    def test_separable_diagonal_instance(self):
        sigma = np.diag([1.0, 2.0, 3.0])
        rho = 0.8
        t = 1e-4
        p = Problem(sigma=sigma, rho=rho)
        U0 = initial_point(Problem(sigma=sigma, rho=p.rho_max), 0.01)
        U0 = U0 * rho / p.rho_max + sigma * (1 - rho / p.rho_max)
        factor = corrector_run(p, U0, t, CorrectorConfig(tol_residual=1e-11))[0]
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

    def test_infeasible_start_rejected(self):
        p = Problem(sigma=np.diag([1.0, 2.0]), rho=0.5)
        with pytest.raises(Infeasible):
            corrector_run(p, np.diag([2.0, 3.0]), 1e-3)

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

    def test_partial_sweeps_converge_on_separable_instance(self):
        sigma = np.diag([1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
        p = Problem(sigma=sigma, rho=1.0)
        t = 1e-4
        U0 = np.diag(np.diag(sigma) + 0.9)
        cfg = CorrectorConfig(tol_residual=1e-9, sweep_fraction=0.34, max_sweeps=200)
        factor, stats = corrector_run(p, U0, t, cfg)
        assert stats.residual_norm <= 1e-9
        full = corrector_run(p, U0, t, CorrectorConfig(tol_residual=1e-9))[0]
        assert np.linalg.norm(factor.matrix - full.matrix) <= 1e-7

    @pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba unavailable")
    def test_backend_choice_agrees(self):
        rng = np.random.default_rng(30)
        p = random_instance(rng, 5, density=0.5)
        t = 1e-4
        U0 = random_feasible_point(rng, p)
        out = {}
        for backend in ("numba", "numpy"):
            cfg = CorrectorConfig(tol_residual=1e-9, backend=backend)
            out[backend] = corrector_run(p, U0, t, cfg)[0].matrix
        assert np.linalg.norm(out["numba"] - out["numpy"]) <= 1e-8


class TestBlockDual:
    def _partition_at(self, p, U, i):
        return make_partition(p, pd_factor(U), i)

    def test_gap_small_at_block_minimizer(self):
        rng = np.random.default_rng(31)
        p = random_instance(rng, 5, density=0.5)
        t = 1e-2
        factor = corrector_run(p, random_feasible_point(rng, p), t,
                               CorrectorConfig(tol_residual=1e-11))[0]
        for i in range(5):
            bp = make_partition(p, factor, i)
            bd = block_dual_point(bp, p, t)
            assert abs(bd.gap) <= 1e-8

    def test_gap_positive_away_from_minimizer(self):
        rng = np.random.default_rng(32)
        p = random_instance(rng, 4, density=0.5)
        U = random_feasible_point(rng, p)
        bp = self._partition_at(p, U, 0)
        bd = block_dual_point(bp, p, 1e-2)
        assert bd.gap > 0

    def test_weak_duality_on_random_feasible_blocks(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            p = random_instance(rng, 4, density=0.5)
            U = random_feasible_point(rng, p)
            bp = self._partition_at(p, U, int(rng.integers(4)))
            bd = block_dual_point(bp, p, 10.0 ** rng.uniform(-4, -1))
            assert bd.dual_value <= bd.primal_value + 1e-10
