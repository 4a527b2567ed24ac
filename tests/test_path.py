import numpy as np
import pytest

from conftest import random_instance
from covpath import corrector, kernels
from covpath.barrier import Problem, multipliers, residual
from covpath.corrector import CorrectorConfig
from covpath.data import GeneratorSpec, generate_problem
from covpath.exceptions import Infeasible, MaxSweepsExceeded, StepCollapse
from covpath.path import (
    MODES,
    PathConfig,
    cardinality,
    default_rho_grid,
    run_online,
    run_path,
    solve_at,
)
from covpath.predictor import build_system
from covpath.symmat import pd_factor, symmetrize


@pytest.fixture(scope="module")
def small_instance():
    sigma, _ = generate_problem(GeneratorSpec(n=8, density=0.3, seed=2))
    return sigma


class TestGrid:
    def test_default_grid_shape(self):
        sigma = np.diag([1.0, 4.0])
        grid = default_rho_grid(sigma, points=50, rho_min_frac=0.01)
        assert grid.size == 50
        assert grid[0] == 4.0
        assert grid[-1] == pytest.approx(0.04)
        assert np.all(np.diff(grid) < 0)

    def test_grid_validation(self):
        sigma = np.diag([1.0, 2.0])
        with pytest.raises(ValueError):
            run_path(sigma, PathConfig(rho_grid=np.array([1.0, 1.5])))
        with pytest.raises(ValueError):
            run_path(sigma, PathConfig(rho_grid=np.array([3.0, 1.0])))
        with pytest.raises(ValueError):
            run_path(sigma, PathConfig(rho_grid=np.array([-1.0])))


class TestCardinality:
    def test_threshold_is_relative(self):
        X = np.array([[1.0, 2e-4], [2e-4, 1.0]])
        assert cardinality(X, zero_tol=1e-4) == 4
        assert cardinality(X, zero_tol=3e-4) == 2


class TestRunPath:
    def test_points_satisfy_invariants(self, small_instance):
        cfg = PathConfig(points=6)
        res = run_path(small_instance, cfg)
        assert not res.truncated
        assert len(res.points) == 6
        rhos = [pt.rho for pt in res.points]
        assert all(b < a for a, b in zip(rhos, rhos[1:]))
        tol = 1e-6 * 8
        for pt in res.points:
            p = Problem(sigma=small_instance, rho=pt.rho)
            H = residual(p, pd_factor(pt.U), res.t)
            assert np.linalg.norm(H) <= 2 * tol
            gap = pt.dual_obj - pt.primal_obj
            assert -1e-10 <= gap <= pt.gap_bound + 10 * tol
            assert pt.sweeps >= 0 and pt.cardinality >= 8

    def test_every_point_meets_the_gap_bound(self):
        sigma, _ = generate_problem(GeneratorSpec(n=30, density=0.1, seed=3))
        res = run_path(sigma, PathConfig(points=10))
        assert len(res.points) == 10
        for pt in res.points:
            assert pt.gap_bound == 2 * 30 * 30 * res.t
            assert pt.dual_obj - pt.primal_obj <= pt.gap_bound, pt.rho

    def test_deterministic(self, small_instance):
        a = run_path(small_instance, PathConfig(points=4))
        b = run_path(small_instance, PathConfig(points=4))
        for pa, pb in zip(a.points, b.points):
            assert np.array_equal(pa.U, pb.U)
            assert pa.cardinality == pb.cardinality

    def test_near_rho_max_solution_is_diagonal(self, small_instance):
        rho = 0.999 * float(np.max(np.diag(small_instance)))
        res = run_path(small_instance, PathConfig(rho_grid=np.array([rho])))
        assert res.points[0].cardinality == 8

    def test_grid_starting_below_rho_max(self, small_instance):
        rho_max = float(np.max(np.diag(small_instance)))
        grid = np.geomspace(0.5 * rho_max, 0.1 * rho_max, 3)
        res = run_path(small_instance, PathConfig(rho_grid=grid))
        assert len(res.points) == 3

    def test_modes_agree(self, small_instance):
        cc = CorrectorConfig(tol_residual=1e-8)
        a = run_path(small_instance, PathConfig(points=6, mode="scaling", corrector=cc))
        b = run_path(small_instance, PathConfig(points=6, mode="predictor", corrector=cc))
        for pa, pb in zip(a.points, b.points):
            assert np.linalg.norm(pa.X - pb.X) <= 2 * 1e-8
        assert all(pt.cg_iterations == 0 for pt in a.points)

    def test_truncation_records_failure(self, small_instance):
        cfg = PathConfig(points=3, corrector=CorrectorConfig(tol_residual=1e-300, max_sweeps=1))
        res = run_path(small_instance, cfg)
        assert res.truncated
        assert res.failure is not None
        assert res.failure.rho == pytest.approx(float(np.max(np.diag(small_instance))))
        assert res.points == []

    def test_predictor_failure_recovers_through_midpoint(self, small_instance, monkeypatch):
        # An error in the predictor step other than StepCollapse goes through
        # the same midpoint retry as a corrector failure; the retry
        # warm-starts by scaling.
        import covpath.path as path_mod

        def broken(*args, **kwargs):
            raise Infeasible("tangent system left the box")

        retries = []
        retry = path_mod._retry_through_midpoint

        def counted_retry(*args, **kwargs):
            retries.append(args[3])
            return retry(*args, **kwargs)

        monkeypatch.setattr(path_mod, "predictor_step_detail", broken)
        monkeypatch.setattr(path_mod, "_retry_through_midpoint", counted_retry)
        res = run_path(small_instance, PathConfig(points=4, mode="predictor"))
        assert not res.truncated
        assert len(res.points) == 4
        assert len(retries) == 3  # every point after the first
        ref = run_path(small_instance, PathConfig(points=4, mode="scaling"))
        assert [pt.cardinality for pt in res.points] == [pt.cardinality for pt in ref.points]

    def test_step_collapse_falls_back_to_the_scaling_start(self, small_instance, monkeypatch):
        # A collapsed tangent step costs no midpoint retry: the point starts
        # from the scaling warm start, so its solve is scaling mode's.
        import covpath.path as path_mod

        def collapse(*args, **kwargs):
            raise StepCollapse("tangent step stayed infeasible")

        def no_retry(*args, **kwargs):
            raise AssertionError("the midpoint retry ran")

        monkeypatch.setattr(path_mod, "predictor_step_detail", collapse)
        monkeypatch.setattr(path_mod, "_retry_through_midpoint", no_retry)
        res = run_path(small_instance, PathConfig(points=4, mode="predictor"))
        assert not res.truncated
        assert len(res.points) == 4
        ref = run_path(small_instance, PathConfig(points=4, mode="scaling"))
        for pt, ref_pt in zip(res.points, ref.points):
            assert np.array_equal(pt.U, ref_pt.U)
            assert pt.cg_iterations == 0

    @pytest.mark.parametrize("mode", MODES)
    def test_newton_steps_on_generated_path(self, mode):
        # Regression bound on the corrector's work: 71 steps in scaling mode
        # and 67 in predictor mode when written (95 and 92 with the dual
        # estimates started at the barrier values t/s).
        sigma, _ = generate_problem(GeneratorSpec(n=30, density=0.1, seed=3))
        res = run_path(sigma, PathConfig(points=10, mode=mode))
        assert [pt.cardinality for pt in res.points] == [30, 34, 36, 42, 42, 50, 60, 78, 96, 100]
        assert sum(pt.sweeps for pt in res.points) <= 80
        assert all(pt.corrector_cg_iterations >= pt.sweeps for pt in res.points)

    def test_mode_validation(self, small_instance):
        with pytest.raises(ValueError):
            run_path(small_instance, PathConfig(mode="sideways"))


def test_production_never_calls_the_reference_corrector(small_instance, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the reference corrector ran in a production path")

    for name in ("row_solver", "row_inner_numpy", "_row_inner_loops"):
        monkeypatch.setattr(kernels, name, forbidden)
    monkeypatch.setattr(corrector, "block_cd_run", forbidden)
    for mode in MODES:
        res = run_path(small_instance, PathConfig(points=4, mode=mode))
        assert not res.truncated and len(res.points) == 4
    p = Problem(sigma=small_instance, rho=0.5 * float(np.max(np.diag(small_instance))))
    t = 1e-4
    factor = solve_at(p.sigma, p.rho, t)
    C = 1e-3 * symmetrize(np.random.default_rng(7).standard_normal(p.sigma.shape))
    moved = run_online(p, factor.matrix, C, k=1, t=t)
    assert np.linalg.norm(moved.matrix - factor.matrix) > 0


class TestSolveAt:
    def test_above_rho_max_single_solve(self, small_instance):
        rho_max = float(np.max(np.diag(small_instance)))
        t = 1e-5
        factor = solve_at(small_instance, 1.5 * rho_max, t)
        p = Problem(sigma=small_instance, rho=1.5 * rho_max)
        assert np.linalg.norm(residual(p, factor, t)) <= 1e-6 * 8

    def test_failure_keeps_its_type(self):
        # Indefinite sigma (eigenvalues -0.8, 1.9, 1.9): below some rho no
        # feasible point exists and the corrector rejects its start.
        sigma = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        with pytest.raises(Infeasible) as err:
            solve_at(sigma, 0.05, 1e-4)
        assert not isinstance(err.value, MaxSweepsExceeded)
        assert isinstance(err.value.__cause__, Infeasible)
        assert "from-scratch solve failed" in str(err.value)

    def test_matches_path_final_point(self, small_instance):
        rho = 0.2 * float(np.max(np.diag(small_instance)))
        t = 1e-5
        cc = CorrectorConfig(tol_residual=1e-9)
        direct = solve_at(small_instance, rho, t, cc)
        grid = np.geomspace(float(np.max(np.diag(small_instance))), rho, 10)
        res = run_path(small_instance, PathConfig(rho_grid=grid, t=t, corrector=cc))
        assert np.linalg.norm(direct.matrix - res.points[-1].U) <= 1e-6


class TestOnline:
    def _solved_base(self, n=6, seed=4):
        sigma, _ = generate_problem(GeneratorSpec(n=n, density=0.4, seed=seed))
        rho = 0.4 * float(np.max(np.diag(sigma)))
        t = 1e-3 / (2 * n * n)
        cc = CorrectorConfig(tol_residual=1e-9)
        factor = solve_at(sigma, rho, t, cc)
        return Problem(sigma=sigma, rho=rho), factor, t, cc

    def test_zero_perturbation_returns_input(self):
        p, factor, t, cc = self._solved_base()
        out = run_online(p, factor.matrix, np.zeros_like(p.sigma), k=1, t=t, corrector_cfg=cc)
        assert np.array_equal(out.matrix, factor.matrix)

    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_from_scratch(self, k):
        p, factor, t, cc = self._solved_base()
        rng = np.random.default_rng(6)
        C = symmetrize(rng.standard_normal(p.sigma.shape))
        C *= 1e-3 * np.linalg.norm(p.sigma) / np.linalg.norm(C)
        out = run_online(p, factor.matrix, C, k=k, t=t, corrector_cfg=cc)
        scratch = solve_at(p.sigma + C, p.rho, t, cc)
        assert np.linalg.norm(out.matrix - scratch.matrix) <= 1e-6

    def test_mu_rhs_matches_finite_differences(self):
        p, factor, t, _ = self._solved_base()
        rng = np.random.default_rng(7)
        C = symmetrize(rng.standard_normal(p.sigma.shape))
        C *= 0.05 * p.rho / np.abs(C).max()
        # run_online's right-hand side: -dH/dmu = D o C with the tangent system's D.
        rhs = build_system(p, factor, t).D * C

        def h_hat(mu):
            sig = p.sigma + mu * C
            L = t / (p.rho + sig - factor.matrix)
            M = t / (p.rho - sig + factor.matrix)
            return L - M - factor.inverse

        d = 1e-6
        fd = (h_hat(d) - h_hat(-d)) / (2 * d)
        scale = max(1.0, np.abs(rhs).max())
        assert np.abs(fd - (-rhs)).max() <= 1e-6 * scale

    def test_one_shifted_problem_per_mu_step(self, monkeypatch):
        import covpath.path as path_mod

        p, factor, t, cc = self._solved_base()
        rng = np.random.default_rng(6)
        C = symmetrize(rng.standard_normal(p.sigma.shape))
        C *= 1e-3 * np.linalg.norm(p.sigma) / np.linalg.norm(C)
        built = []
        shifted = path_mod.shifted_problem

        def counted(p, C, mu):
            built.append(mu)
            return shifted(p, C, mu)

        monkeypatch.setattr(path_mod, "shifted_problem", counted)
        run_online(p, factor.matrix, C, k=3, t=t, corrector_cfg=cc)
        assert built == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_infeasible_when_perturbation_huge(self):
        p, factor, t, cc = self._solved_base()
        C = 100.0 * np.abs(p.sigma) + 100.0 * p.rho * np.eye(p.n)
        with pytest.raises(Infeasible):
            run_online(p, factor.matrix, symmetrize(C), k=1, t=t, corrector_cfg=cc)

    def test_rejects_infeasible_start(self):
        p, factor, t, cc = self._solved_base()
        bad = factor.matrix + 2 * p.rho * np.eye(p.n)
        with pytest.raises(Infeasible):
            run_online(p, bad, np.zeros_like(p.sigma), k=1, t=t, corrector_cfg=cc)
