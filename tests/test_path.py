from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

import covpath.path as path_mod
import covpath.symmat as symmat_mod
from conftest import random_instance
from covpath import barrier, corrector, kernels, reference
from covpath.barrier import (
    Problem,
    dual_objective,
    gap_bound,
    initial_point,
    multipliers,
    primal_objective,
    residual,
    scaling_warm_start,
    slacks,
)
from covpath.corrector import CorrectorConfig, corrector_run
from covpath.data import GeneratorSpec, generate_problem
from covpath.exceptions import Infeasible, MaxSweepsExceeded, NotPositiveDefinite
from covpath.path import (
    CROSS_LIMIT,
    MODES,
    PathConfig,
    cardinality,
    components,
    default_rho_grid,
    recenter,
    run_online,
    run_path,
    shifted_problem,
    singleton_slack,
    solve_at,
)
from covpath.predictor import CGResult, build_system
from covpath.reference import golden_section
from covpath.symmat import PDFactor, cholesky_logdet, pd_factor, symmetrize


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
        with pytest.raises(ValueError, match="finite"):
            run_path(sigma, PathConfig(rho_grid=np.array([2.0, np.nan])))
        with pytest.raises(ValueError, match="strictly descending"):
            run_path(sigma, PathConfig(points=3, rho_min_frac=1.0))
        for gap_target in (np.nan, np.inf, 0.0):
            with pytest.raises(ValueError, match="t must be"):
                run_path(sigma, PathConfig(gap_target=gap_target))


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
            fresh = pd_factor(pt.U)
            H = residual(multipliers(res.t, slacks(p, pt.U)), fresh.inverse)
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

    @pytest.mark.parametrize("mode", MODES)
    def test_sigma_is_checked_once_per_path(self, monkeypatch, mode):
        # The rho_max instance is the path's one check of sigma; the grid
        # values' instances and the split points' reduced ones (4 on this
        # path) are built from the sigma it checked.
        calls = []

        def counted(m, name):
            calls.append(name)
            return symmat_mod.checked_symmetric(m, name)

        monkeypatch.setattr(barrier, "checked_symmetric", counted)
        sigma, _ = generate_problem(GeneratorSpec(n=30, density=0.1, seed=3))
        res = run_path(sigma, PathConfig(points=10, mode=mode))
        assert len(res.points) == 10
        assert calls == ["sigma"]

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
        # An error in the predictor step goes through the same midpoint
        # retry as a corrector failure; the retry warm-starts by scaling.
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

    def test_non_pd_start_falls_back_to_the_scaling_start(self, monkeypatch):
        # sigma = [[1, 0.9], [0.9, 1]] from rho = 1, where U ~ 2 I, to
        # rho = 0.25 along the tangent dU = [[1.5, -1.2], [-1.2, 1.5]]: the
        # box allows the whole step, whose endpoint [[0.875, 0.9],
        # [0.9, 0.875]] is inside the box but not positive definite. The
        # corrector run's start test rejects it, and the point re-centers
        # from the scaling warm start instead, with no midpoint retry, so
        # the path is scaling mode's.
        import covpath.predictor as predictor

        sigma = np.array([[1.0, 0.9], [0.9, 1.0]])
        grid = np.array([1.0, 0.25])
        tangent = CGResult(
            direction=np.array([[1.5, -1.2], [-1.2, 1.5]]),
            iterations=1, converged=True, rel_residual=0.0,
        )
        endpoints = []
        step = path_mod.predictor_step_detail

        def recorded_step(*args):
            out = step(*args)
            endpoints.append(out[:2])
            return out

        def no_retry(*args, **kwargs):
            raise AssertionError("the midpoint retry ran")

        monkeypatch.setattr(predictor, "cg_solve", lambda X, D, rhs: tangent)
        monkeypatch.setattr(path_mod, "predictor_step_detail", recorded_step)
        monkeypatch.setattr(path_mod, "_retry_through_midpoint", no_retry)
        res = run_path(sigma, PathConfig(rho_grid=grid, mode="predictor"))
        [(endpoint, h_used)] = endpoints
        assert h_used == -0.75
        slacks(Problem(sigma=sigma, rho=0.25), endpoint)  # inside the box
        with pytest.raises(NotPositiveDefinite, match="Cholesky factorization failed|pivot below"):
            cholesky_logdet(endpoint)
        ref = run_path(sigma, PathConfig(rho_grid=grid, mode="scaling"))
        for pt, ref_pt in zip(res.points, ref.points, strict=True):
            assert np.array_equal(pt.U, ref_pt.U)
            assert np.array_equal(pt.X, ref_pt.X)
        assert [pt.cg_iterations for pt in res.points] == [0, 1]

    def test_start_outside_the_box_falls_back_to_the_scaling_start(
        self, small_instance, monkeypatch
    ):
        # Only rounding can put a tangent endpoint, or its rescaling, outside
        # the box; the corrector run's start test then rejects it, and the
        # point re-centers from the scaling warm start instead.
        import covpath.path as path_mod

        step = path_mod.predictor_step_detail

        def outside(p, U, t, h):
            _, h_used, result = step(p, U, t, h)
            return p.sigma + 2.0 * p.rho, h_used, result

        monkeypatch.setattr(path_mod, "predictor_step_detail", outside)
        res = run_path(small_instance, PathConfig(points=4, mode="predictor"))
        ref = run_path(small_instance, PathConfig(points=4, mode="scaling"))
        assert len(res.points) == 4
        for pt, ref_pt in zip(res.points, ref.points):
            assert np.array_equal(pt.U, ref_pt.U)

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


@pytest.mark.parametrize(
    "solve", [lambda s: run_path(s), lambda s: solve_at(s, 0.5, 1e-4)], ids=["run_path", "solve_at"]
)
def test_asymmetric_sigma_is_rejected(solve):
    # Neither driver averages an asymmetric sigma into a different problem.
    sigma = np.array([[2.0, 1.5, 0.0], [0.0, 2.0, 0.3], [0.0, 0.0, 2.0]])
    with pytest.raises(ValueError, match="symmetric"):
        solve(sigma)


def test_production_never_calls_the_reference_corrector(small_instance, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the reference corrector ran in a production path")

    for name in ("row_solver", "row_inner_numpy", "_row_inner_loops", "sub_inverse",
                 "swm_update_inverse"):
        monkeypatch.setattr(kernels, name, forbidden)
    monkeypatch.setattr(reference, "block_cd_run", forbidden)
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
        assert np.linalg.norm(
            residual(multipliers(t, slacks(p, factor.matrix)), factor.inverse)
        ) <= 1e-6 * 8

    def test_failure_keeps_its_type(self):
        # Indefinite sigma (eigenvalues -0.8, 1.9, 1.9): below some rho no
        # feasible point exists and the corrector rejects its start.
        sigma = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        with pytest.raises(Infeasible) as err:
            solve_at(sigma, 0.05, 1e-4)
        assert not isinstance(err.value, MaxSweepsExceeded)

    def test_is_one_recenter_from_the_sparse_end_start(self, small_instance, monkeypatch):
        calls = []
        real = path_mod.recenter

        def recording(p, start, t, cfg):
            calls.append((p, start.copy()))
            return real(p, start, t, cfg)

        def forbidden(*args, **kwargs):
            raise AssertionError("solve_at walked a path")

        monkeypatch.setattr(path_mod, "recenter", recording)
        monkeypatch.setattr(path_mod, "run_path", forbidden)
        rho = 0.2 * float(np.max(np.diag(small_instance)))
        solve_at(small_instance, rho, 1e-5)
        assert len(calls) == 1
        p, start = calls[0]
        assert p.rho == rho
        assert np.array_equal(start, initial_point(p))

    def test_matches_path_final_point(self, small_instance):
        rho = 0.2 * float(np.max(np.diag(small_instance)))
        cc = CorrectorConfig(tol_residual=1e-9)
        grid = np.geomspace(float(np.max(np.diag(small_instance))), rho, 10)
        res = run_path(small_instance, PathConfig(rho_grid=grid, corrector=cc))
        direct = solve_at(small_instance, rho, res.t, cc)
        assert np.linalg.norm(direct.matrix - res.points[-1].U) <= 1e-6


def _blocks_instance(seed, cross):
    """A 12 x 12 sigma whose graph |sigma_ij| >= 0.4 has components of
    sizes 1, 1, 3, 2, 4 and 1 on shuffled indices, with entries of size up
    to ``cross`` between them; with the penalty 0.4 and a scaling start."""
    rng = np.random.default_rng(seed)
    n, rho = 12, 0.4
    sigma = cross * symmetrize(rng.uniform(-1.0, 1.0, (n, n)))
    perm = rng.permutation(n)
    lo = 0
    for k in (1, 1, 3, 2, 4, 1):
        idx = perm[lo:lo + k]
        lo += k
        # Equicorrelation block: entries d/2 >= rho off the diagonal.
        sigma[np.ix_(idx, idx)] = rng.uniform(1.0, 2.0) * 0.5 * (np.eye(k) + 1.0)
    p = Problem(sigma=sigma, rho=rho)
    return p, initial_point(p)


def _same_component(sigma, rho):
    _, labels = connected_components(np.abs(sigma) >= rho, directed=False)
    return labels[:, None] == labels


class TestRecenter:
    def test_components_match_scipy(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            sigma = symmetrize(rng.standard_normal((n, n)))
            rho = float(rng.uniform(0.5, 3.0))
            labels = components(sigma, rho)
            assert np.array_equal(labels[:, None] == labels, _same_component(sigma, rho))
            assert all(labels[i] == np.flatnonzero(labels == labels[i])[0] for i in range(n))

    def test_split_point_is_block_diagonal_and_centered(self, monkeypatch):
        p, start = _blocks_instance(seed=1, cross=5e-3)
        t = 1e-3 / (2 * p.n * p.n)
        tol = CorrectorConfig().residual_tol(p.n)
        sizes = []
        run = path_mod.corrector_run

        def recorded_run(problem, *args):
            sizes.append(problem.n)
            return run(problem, *args)

        monkeypatch.setattr(path_mod, "corrector_run", recorded_run)
        factor, stats = recenter(p, start, t, CorrectorConfig())
        # One reduced run, over the nine indices outside the singletons.
        assert sizes == [9] and stats.sweeps >= 1
        cross = ~_same_component(p.sigma, p.rho)
        assert np.count_nonzero(start[cross]) == np.count_nonzero(cross)
        assert not factor.matrix[cross].any() and not factor.inverse[cross].any()
        # The corrector's return test on the full problem, from a fresh
        # factorization of U.
        fresh = pd_factor(factor.matrix)
        assert np.allclose(fresh.inverse, factor.inverse, rtol=0.0, atol=1e-12)
        assert fresh.logdet == pytest.approx(factor.logdet, abs=1e-12)
        assert np.linalg.norm(
            residual(multipliers(t, slacks(p, fresh.matrix)), fresh.inverse)
        ) <= tol
        gap = dual_objective(fresh) - primal_objective(p, fresh.inverse, -fresh.logdet)
        assert gap <= gap_bound(p.n, t)

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_the_unsplit_corrector(self, seed):
        # Criterion 3's setting: tolerance 1e-9, U within 1e-5 Frobenius.
        p, start = _blocks_instance(seed=seed, cross=1e-8)
        t = 1e-3 / (2 * p.n * p.n)
        cc = CorrectorConfig(tol_residual=1e-9)
        whole, _ = corrector_run(p, start, t, cc)
        split, stats = recenter(p, start, t, cc)
        assert stats.sweeps >= 1
        assert not split.matrix[~_same_component(p.sigma, p.rho)].any()
        assert np.linalg.norm(split.matrix - whole.matrix) <= 1e-5
        assert np.linalg.norm(split.inverse - whole.inverse) <= 1e-5

    def test_singleton_slack_matches_golden_section(self):
        # The 1-D barrier objective -log u - t log v - t log(2 rho - v) in
        # the slack v = s + rho - u, less the constant -log(s + rho), and
        # searched in log v: its minimizer is resolved to a relative 1e-7
        # even at t = 1e-10, where v is about 1e-10 (s + rho).
        rng = np.random.default_rng(17)
        for log_t in np.linspace(-10.0, -1.0, 19):
            t = 10.0**log_t
            for _ in range(5):
                s = float(rng.uniform(0.1, 5.0))
                rho = float(rng.uniform(0.05, 3.0)) * s
                hi = min(2.0 * rho, s + rho)

                def f(w):
                    v = np.exp(w)
                    return -np.log1p(-v / (s + rho)) - t * w - t * np.log(2.0 * rho - v)

                ref = np.exp(golden_section(f, np.log(1e-3 * t * (s + rho)), np.log(hi), 1e-12))
                v = float(singleton_slack(np.array([s]), rho, t)[0])
                assert 0.0 < v < hi
                assert v == pytest.approx(ref, rel=1e-6), (t, s, rho)
                u = s + rho - v
                assert t / v - t / (2.0 * rho - v) == pytest.approx(1.0 / u, rel=1e-9)

    def test_diagonal_instance_takes_no_newton_step(self, monkeypatch):
        monkeypatch.setattr(path_mod, "corrector_run", None)
        p = Problem(sigma=np.diag([1.0, 2.0, 3.0]), rho=1.5)
        factor, stats = recenter(p, np.diag([2.0, 3.0, 4.0]), 1e-6, CorrectorConfig())
        assert stats.sweeps == 0 and stats.inner_passes == 0
        assert np.count_nonzero(factor.matrix) == 3
        expected = 1.0 / (np.diag(p.sigma) + p.rho)
        assert np.diag(factor.inverse) == pytest.approx(expected, rel=1e-5)

    @pytest.mark.parametrize(
        "case", ["cross above the limit", "connected", "not centered", "reduced run fails"]
    )
    def test_is_the_unsplit_corrector_otherwise(self, case, monkeypatch):
        p, start = _blocks_instance(seed=2, cross=5e-3)
        t = 1e-3 / (2 * p.n * p.n)
        cc = CorrectorConfig()
        if case == "cross above the limit":
            cc = CorrectorConfig(tol_residual=1e-9)
            h = 2 * t * p.sigma / (p.rho**2 - p.sigma**2)
            assert np.linalg.norm(h[~_same_component(p.sigma, p.rho)]) > CROSS_LIMIT * 1e-9
        elif case == "connected":
            p = Problem(sigma=p.sigma, rho=1e-3)
            start = scaling_warm_start(p.sigma, start, 0.4, p.rho)
            assert _same_component(p.sigma, p.rho).all()
        elif case == "not centered":
            monkeypatch.setattr(path_mod, "centered", lambda *args: False)
        else:
            def whole_only(problem, *args):
                if problem.n < p.n:
                    raise MaxSweepsExceeded("injected")
                return corrector_run(problem, *args)

            monkeypatch.setattr(path_mod, "corrector_run", whole_only)
        split, split_stats = recenter(p, start, t, cc)
        whole, whole_stats = corrector_run(p, start, t, cc)
        assert np.array_equal(split.matrix, whole.matrix)
        assert np.array_equal(split.inverse, whole.inverse)
        assert split.logdet == whole.logdet
        assert split_stats == whole_stats


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

    def test_centered_start_still_takes_a_newton_step(self, monkeypatch):
        # sigma = 10 I, moved off the diagonal by three rank-one sample
        # updates, at rho = 0.3 rho_max. The tangent start of a k = 1
        # update already passes the corrector's return test, yet sits more
        # than 1e-8 from the solution; the Newton step that corrector_run
        # still takes lands the update within 1e-8 of a from-scratch
        # solve, 100 times inside criterion 8's bound of 1e-6.
        n = 10
        rng = np.random.default_rng(0)
        sigma = 10.0 * np.eye(n)
        chol = np.linalg.cholesky(sigma)

        def rank_one(sigma, size):
            x = chol @ rng.standard_normal(n)
            d = np.outer(x, x) - sigma
            return symmetrize(size * np.linalg.norm(sigma) / np.linalg.norm(d) * d)

        for _ in range(3):
            sigma = sigma + rank_one(sigma, 1e-2)
        assert np.abs(sigma - np.diag(np.diag(sigma))).max() > 0.1
        rho = 0.3 * float(np.max(np.diag(sigma)))
        t = 1e-3 / (2 * n * n)
        cc = CorrectorConfig(tol_residual=1e-9 * n)
        p = Problem(sigma=sigma, rho=rho)
        base = solve_at(sigma, rho, t, cc)
        C = rank_one(sigma, 1e-2)
        scratch = solve_at(sigma + C, rho, t, cc).matrix

        starts = []
        run = path_mod.corrector_run

        def recorded_run(problem, U0, *args, **kwargs):
            starts.append((problem, U0))
            return run(problem, U0, *args, **kwargs)

        monkeypatch.setattr(path_mod, "corrector_run", recorded_run)
        out = run_online(p, base.matrix, C, k=1, t=t, corrector_cfg=cc)

        [(shifted, start)] = starts  # the tangent start, as an array
        assert corrector.centered(shifted, pd_factor(start), t, cc.residual_tol(n))
        assert np.linalg.norm(start - scratch) > 1e-8
        assert np.linalg.norm(out.matrix - scratch) <= 1e-8

    def test_mu_rhs_matches_finite_differences(self):
        p, factor, t, _ = self._solved_base()
        rng = np.random.default_rng(7)
        C = symmetrize(rng.standard_normal(p.sigma.shape))
        C *= 0.05 * p.rho / np.abs(C).max()
        # run_online's right-hand side: -dH/dmu = D o C with the tangent system's D.
        rhs = build_system(t, slacks(p, factor.matrix))[0] * C

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

    def test_rejected_mu_step_halves(self, small_instance, monkeypatch):
        # A rank-one perturbation half the size of sigma: the run from the
        # full mu-step's tangent point rejects its start, so the step
        # halves, and two half steps reach mu = 1.
        sigma = small_instance
        n = sigma.shape[0]
        rho = 0.3 * float(np.max(np.diag(sigma)))
        t = 1e-3 / (2 * n * n)
        cc = CorrectorConfig(tol_residual=1e-9 * n)
        x = np.linalg.cholesky(sigma) @ np.random.default_rng(2).standard_normal(n)
        d = np.outer(x, x) - sigma
        C = 0.5 * np.linalg.norm(sigma) / np.linalg.norm(d) * d
        p = Problem(sigma=sigma, rho=rho)
        base = solve_at(sigma, rho, t, cc)
        built = []
        shifted = path_mod.shifted_problem

        def counted(p, C, mu):
            built.append(mu)
            return shifted(p, C, mu)

        monkeypatch.setattr(path_mod, "shifted_problem", counted)
        out = run_online(p, base.matrix, C, k=1, t=t, corrector_cfg=cc)
        assert built == [1.0, 0.5, 1.0]
        scratch = solve_at(sigma + C, rho, t, cc)
        assert np.linalg.norm(out.matrix - scratch.matrix) <= 1e-6

    def test_infeasible_when_perturbation_huge(self):
        p, factor, t, cc = self._solved_base()
        C = 100.0 * np.abs(p.sigma) + 100.0 * p.rho * np.eye(p.n)
        with pytest.raises(Infeasible):
            run_online(p, factor.matrix, symmetrize(C), k=1, t=t, corrector_cfg=cc)

    @pytest.mark.parametrize("name", ["C", "U_star"])
    def test_rejects_asymmetric_input(self, name):
        # C and U_star follow sigma's rule (barrier.Problem): an asymmetric
        # one is not averaged into a different update.
        p, factor, t, cc = self._solved_base()
        args = {"C": 1e-3 * p.sigma, "U_star": factor.matrix.copy()}
        args[name][0, 1] += 1e-6
        with pytest.raises(ValueError, match=f"{name} must be symmetric"):
            run_online(p, args["U_star"], args["C"], k=1, t=t, corrector_cfg=cc)

    def test_averages_nearly_symmetric_perturbation(self):
        p, factor, t, cc = self._solved_base()
        C = 1e-3 * p.sigma
        near = C.copy()
        near[0, 1] += 1e-14
        out = run_online(p, factor.matrix, near, k=1, t=t, corrector_cfg=cc)
        ref = run_online(p, factor.matrix, symmetrize(near), k=1, t=t, corrector_cfg=cc)
        assert np.array_equal(out.matrix, ref.matrix)

    def test_rejects_infeasible_start(self):
        p, factor, t, cc = self._solved_base()
        bad = factor.matrix + 2 * p.rho * np.eye(p.n)
        with pytest.raises(Infeasible):
            run_online(p, bad, np.zeros_like(p.sigma), k=1, t=t, corrector_cfg=cc)

    def test_indefinite_start_names_u_star(self):
        p = Problem(sigma=np.eye(2), rho=2.0)
        U_star = np.array([[0.5, 1.0], [1.0, 0.5]])  # inside the box, indefinite
        with pytest.raises(Infeasible, match="U_star is not positive definite"):
            run_online(p, U_star, 1e-3 * np.eye(2), k=1, t=1e-3)

    @pytest.mark.parametrize("name", ["C", "U_star"])
    def test_rejects_non_finite_input(self, name):
        p, factor, t, cc = self._solved_base()
        args = {"C": 1e-3 * p.sigma, "U_star": factor.matrix.copy()}
        args[name][0, 1] = args[name][1, 0] = np.inf
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            run_online(p, args["U_star"], args["C"], k=1, t=t, corrector_cfg=cc)

    def test_barrier_weight_is_required(self):
        # A default weight would re-center at a t other than the one U_star
        # was solved at.
        p, factor, t, _ = self._solved_base()
        with pytest.raises(TypeError, match="'t'"):
            run_online(p, factor.matrix, 1e-3 * p.sigma)

    @given(
        log_size=st.floats(-4.0, -2.0),
        rho_frac=st.floats(0.2, 0.8),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=20, deadline=timedelta(seconds=5))
    def test_matches_from_scratch_over_sizes_and_penalties(self, log_size, rho_frac, seed):
        # Criterion 8's bound, over perturbation sizes |C|/|sigma| from 1e-4
        # to 1e-2 and penalties across the path. C moves sigma toward the
        # outer product of a sample, as a streaming update does, so sigma + C
        # stays PSD.
        n = 8
        sigma, _ = generate_problem(GeneratorSpec(n=n, density=0.3, seed=5))
        rho = rho_frac * float(np.max(np.diag(sigma)))
        t = 1e-3 / (2 * n * n)
        cc = CorrectorConfig(tol_residual=1e-9)
        base = solve_at(sigma, rho, t, cc)
        x = np.linalg.cholesky(sigma) @ np.random.default_rng(seed).standard_normal(n)
        d = np.outer(x, x) - sigma
        C = 10.0**log_size * np.linalg.norm(sigma) / np.linalg.norm(d) * d
        p = Problem(sigma=sigma, rho=rho)
        online = run_online(p, base.matrix, C, k=1, t=t, corrector_cfg=cc)
        scratch = solve_at(sigma + C, rho, t, cc)
        assert np.linalg.norm(online.matrix - scratch.matrix) <= 1e-6


class TestShiftedProblem:
    """shifted_problem stores sigma + mu C without the constructor's copy
    and symmetry test, and must build the instance the constructor would."""

    @staticmethod
    def _base():
        sigma, _ = generate_problem(GeneratorSpec(n=8, density=0.3, seed=2))
        return Problem(sigma=sigma, rho=0.3 * float(np.max(np.diag(sigma))))

    @pytest.mark.parametrize("mu", [1.0, 0.5, 1 / 3, -0.25])
    def test_matches_the_constructor(self, mu):
        p = self._base()
        C = symmetrize(np.random.default_rng(9).standard_normal(p.sigma.shape))
        C *= 1e-2 * np.linalg.norm(p.sigma) / np.linalg.norm(C)
        shifted = shifted_problem(p, C, mu)
        built = Problem(sigma=p.sigma + mu * C, rho=p.rho)
        assert np.array_equal(shifted.sigma, built.sigma)
        assert np.array_equal(shifted.faces, built.faces)
        assert shifted.rho == built.rho

    def test_non_positive_diagonal_raises_the_constructor_error(self):
        p = self._base()
        C = -2.0 * np.diag(np.diag(p.sigma))
        with pytest.raises(ValueError) as built:
            Problem(sigma=p.sigma + C, rho=p.rho)
        with pytest.raises(ValueError) as shifted:
            shifted_problem(p, C, 1.0)
        assert str(shifted.value) == str(built.value) == "sigma must have a positive diagonal"

    def test_non_finite_sum_raises_the_constructor_error(self):
        p = self._base()
        C = np.full(p.sigma.shape, 1e308)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError) as built:
                Problem(sigma=p.sigma + 10.0 * C, rho=p.rho)
            with pytest.raises(ValueError) as shifted:
                shifted_problem(p, C, 10.0)
        assert str(shifted.value) == str(built.value) == "sigma must be finite"


class TestFactorizations:
    """Every start is factored once, as the first factorization of the
    corrector run that starts from it. The one factorization outside the
    runs is an online update's test of U_star, whose factor and slacks
    build the first tangent system; a path factors nothing outside its
    runs. Inside a corrector run every other Cholesky factorization is a
    line-search trial."""

    @staticmethod
    def _record(monkeypatch):
        factored = []  # bytes of every matrix handed to LAPACK dpotrf
        runs = []  # (start, its matrix bytes, factorizations before and after the run)
        dpotrf = symmat_mod._dpotrf
        run = path_mod.corrector_run

        def counted_dpotrf(m, *args, **kwargs):
            factored.append(np.asarray(m, dtype=float).tobytes())
            return dpotrf(m, *args, **kwargs)

        def recorded_run(problem, U0, *args, **kwargs):
            before = len(factored)
            out = run(problem, U0, *args, **kwargs)
            runs.append((U0, U0.tobytes(), before, len(factored)))
            return out

        monkeypatch.setattr(symmat_mod, "_dpotrf", counted_dpotrf)
        monkeypatch.setattr(path_mod, "corrector_run", recorded_run)
        return factored, runs

    def test_online_update(self, monkeypatch):
        p, factor, t, cc = TestOnline()._solved_base()
        rng = np.random.default_rng(6)
        C = symmetrize(rng.standard_normal(p.sigma.shape))
        C *= 1e-3 * np.linalg.norm(p.sigma) / np.linalg.norm(C)
        factored, runs = self._record(monkeypatch)
        run_online(p, factor.matrix, C, k=1, t=t, corrector_cfg=cc)

        [(start, start_bytes, before, after)] = runs
        # The run starts from the tangent point as an array.
        assert isinstance(start, np.ndarray)
        # Outside the corrector: U_star alone, once. The tangent start is
        # the run's first factorization and is not factored again, so the
        # total is one for U_star, one for the start and one per trial.
        assert factored[:before] == [factor.matrix.tobytes()]
        assert after == len(factored) and after - before >= 2
        assert factored[before] == start_bytes
        assert start_bytes not in factored[before + 1:]

    def test_online_update_takes_each_slack_once(self, monkeypatch):
        # The box slacks of U_star are computed by the feasibility test
        # that admits it, outside any run, and passed on to the tangent
        # system. Those of the tangent start are computed once, by the test
        # of the run that starts from it; every other call is a line-search
        # trial inside the corrector.
        p, factor, t, cc = TestOnline()._solved_base()
        rng = np.random.default_rng(6)
        C = symmetrize(rng.standard_normal(p.sigma.shape))
        C *= 1e-3 * np.linalg.norm(p.sigma) / np.linalg.norm(C)
        factored, runs = self._record(monkeypatch)
        computed = []  # bytes of every matrix whose slacks were computed
        slacks = barrier.slacks

        def counted_slacks(problem, U, *name):
            computed.append(np.asarray(U).tobytes())
            return slacks(problem, U, *name)

        monkeypatch.setattr(barrier, "slacks", counted_slacks)
        monkeypatch.setattr(corrector, "slacks", counted_slacks)
        run_online(p, factor.matrix, C, k=1, t=t, corrector_cfg=cc)

        [(start, start_bytes, before, after)] = runs
        tested = [m for m in computed if m in (factor.matrix.tobytes(), start_bytes)]
        assert tested == [factor.matrix.tobytes(), start_bytes]
        assert computed[:2] == tested
        # One each for U_star and the start, then one per line-search
        # trial: the run's factorizations after its start.
        assert len(computed) == 2 + (after - before - 1)

    def test_predictor_path_points(self, monkeypatch):
        sigma, _ = generate_problem(GeneratorSpec(n=10, density=0.2, seed=8))
        factored, runs = self._record(monkeypatch)
        steps = []  # factorizations before each tangent step
        step = path_mod.predictor_step_detail

        def recorded_step(*args):
            steps.append(len(factored))
            return step(*args)

        starts = []  # bytes of each start handed to recenter
        recenter_orig = path_mod.recenter

        def recorded_recenter(problem, start, *args):
            starts.append(np.asarray(start).tobytes())
            return recenter_orig(problem, start, *args)

        monkeypatch.setattr(path_mod, "predictor_step_detail", recorded_step)
        monkeypatch.setattr(path_mod, "recenter", recorded_recenter)
        res = run_path(sigma, PathConfig(points=8, mode="predictor"))
        assert not res.truncated
        assert len(steps) == len(res.points) - 1
        # One start per point: no run here rejects its start.
        assert len(starts) == len(res.points)

        # A point takes at most one run: over all of U, or over the indices
        # of its components of two or more (a smaller start). Every start
        # is an array, and its run's first factorization is that start.
        assert len(runs) <= len(res.points)
        full = [run for run in runs if len(run[1]) == sigma.nbytes]
        reduced = [run for run in runs if len(run[1]) < sigma.nbytes]
        assert full and reduced
        for start, start_bytes, before, after in runs:
            assert not isinstance(start, PDFactor)
            assert after > before
            assert factored[before] == start_bytes
        # Each full run starts from the start that its point handed to
        # recenter, the tangent start from the second point on.
        assert {run[1] for run in full} <= set(starts)

        # No factorization happens outside the corrector runs.
        inside = {k for _, _, before, after in runs for k in range(before, after)}
        assert inside == set(range(len(factored)))
