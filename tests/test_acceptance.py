"""End-to-end acceptance checks.

One test per criterion; each prints a PASS/FAIL line (visible under -s).
Closed forms, independent oracles, and qualitative path trends replace any
hardware-specific timing targets, except for the coarse wall-clock caps
asserted below.
"""

import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from covpath import kernels
from covpath.barrier import Problem, dual_objective, gap_bound, initial_point, slacks
from covpath.cli import main as cli_main
import covpath.path
from covpath.corrector import CorrectorConfig
from covpath.data import GeneratorSpec, generate_problem, load_json
from covpath.path import PathConfig, recenter, run_online, run_path, solve_at
from covpath.reference import (
    GUARD_FRAC,
    REFRESH_EVERY,
    OracleConfig,
    block_cd_run,
    central_point,
    explicit_system,
    golden_section,
)
from covpath.predictor import build_system, cg_solve, matvec
from covpath.symmat import symmetrize

from test_corrector import (
    coord_objective,
    diag_objective,
    feasible_coord_interval,
    random_coord_case,
)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL - {desc}")
        raise
    print(f"[criterion {num:2d}] PASS - {desc}")


@pytest.fixture(scope="module")
def n100_predictor_path():
    """Shared seeded n=100 run used by the trend and performance criteria."""
    sigma, _ = generate_problem(GeneratorSpec(n=100, density=0.1, seed=11))
    tick = time.perf_counter()
    result = run_path(sigma, PathConfig(points=50, mode="predictor"))
    wall = time.perf_counter() - tick
    assert not result.truncated
    return result, wall


def test_criterion_01_diagonal_closed_form():
    with criterion(1, "diagonal instance matches 1/(sigma_ii + rho) closed form"):
        sigma = np.diag([1.0, 2.0, 3.0])
        tick = time.perf_counter()
        result = run_path(sigma, PathConfig(points=7, gap_target=1e-6))
        wall = time.perf_counter() - tick
        assert len(result.points) == 7
        for pt in result.points:
            assert pt.cardinality == 3
            expected = 1.0 / (np.diag(sigma) + pt.rho)
            assert np.abs(np.diag(pt.X) - expected).max() <= 1e-4
            off = pt.X - np.diag(np.diag(pt.X))
            assert np.abs(off).max() <= 1e-4 * np.abs(pt.X).max()
        assert wall < 1.0, f"diagonal path took {wall:.2f}s"


def test_criterion_02_surrogate_gap_bound():
    with criterion(2, "f(U(t)) - p* stays below 2 n^2 t on seeded instances"):
        tick = time.perf_counter()
        n = 4
        rng = np.random.default_rng(202)
        for _ in range(20):
            sigma, _ = generate_problem(
                GeneratorSpec(n=n, density=0.5, seed=int(rng.integers(2**31)))
            )
            rho = float(rng.uniform(0.3, 0.7)) * float(np.max(np.diag(sigma)))
            p = Problem(sigma=sigma, rho=rho)
            proxy = dual_objective(central_point(p, 1e-9, OracleConfig(tol=1e-5)))
            for t in (1e-2, 1e-3, 1e-4):
                factor = solve_at(sigma, rho, t, CorrectorConfig(tol_residual=1e-9))
                gap = dual_objective(factor) - proxy
                assert gap <= gap_bound(n, t) + 1e-8, (t, gap, gap_bound(n, t))
        wall = time.perf_counter() - tick
        assert wall < 30.0, f"surrogate-gap check took {wall:.1f}s"


def test_criterion_03_corrector_newton_equivalence():
    with criterion(3, "corrector and dense Newton agree to 1e-5 Frobenius"):
        tick = time.perf_counter()
        rng = np.random.default_rng(303)
        worst = 0.0
        for trial in range(50):
            n = int(rng.integers(2, 6))
            sigma, _ = generate_problem(
                GeneratorSpec(n=n, density=0.5, seed=int(rng.integers(2**31)))
            )
            rho = float(rng.uniform(0.1, 0.9)) * float(np.max(np.diag(sigma)))
            t = 1e-3 / (2 * n * n)
            cd = solve_at(sigma, rho, t, CorrectorConfig(tol_residual=1e-9))
            nw = central_point(Problem(sigma=sigma, rho=rho), t, OracleConfig(tol=1e-9))
            worst = max(worst, float(np.linalg.norm(cd.matrix - nw.matrix)))
        assert worst <= 1e-5, worst
        wall = time.perf_counter() - tick
        assert wall < 60.0, f"equivalence check took {wall:.1f}s"


def test_criterion_04_closed_form_1d_solves():
    with criterion(4, "cubic and quadratic solves match the golden-section oracle"):
        tick = time.perf_counter()
        assert kernels._solve_coordinate(-1.0, 0.0, 1.0, 0.0, 1.0, 0.5, 0.3, GUARD_FRAC) == 0.0
        assert kernels._solve_diagonal(0.0, 0.0, 1.0, 0.5, GUARD_FRAC) == 2.0**-0.5

        rng = np.random.default_rng(404)
        for _ in range(1000):
            quad, b_j, rho, t, x0 = random_coord_case(rng)
            x = kernels._solve_coordinate(*quad, b_j, rho, t, x0, GUARD_FRAC * rho)
            lo, hi = feasible_coord_interval(quad, b_j, rho)
            pad = 1e-11 * (hi - lo)
            ref = golden_section(
                lambda z: coord_objective(z, quad, b_j, rho, t), lo + pad, hi - pad, tol=1e-10
            )
            assert abs(x - ref) <= 1e-6, (x, ref)

        count = 0
        while count < 1000:
            s = rng.uniform(0.0, 2.0)
            c = rng.uniform(-1.0, 3.0)
            rho = 10.0 ** rng.uniform(-1, 0.7)
            t = 10.0 ** rng.uniform(-5, 0)
            lo, hi = max(s, c - rho), c + rho
            if hi - lo < 1e-4:
                continue
            count += 1
            w = kernels._solve_diagonal(s, c, rho, t, GUARD_FRAC * rho)
            pad = 1e-10 * (hi - lo)
            ref = golden_section(
                lambda z: diag_objective(z, s, c, rho, t), lo + pad, hi - pad, tol=1e-11
            )
            assert abs(w - ref) <= 1e-6 * max(1.0, abs(ref)), (w, ref)
        wall = time.perf_counter() - tick
        assert wall < 10.0, f"1-D solve sweep took {wall:.1f}s"


def test_criterion_05_predictor_system_validation():
    with criterion(5, "implicit tangent system matches explicit operator and FD"):
        tick = time.perf_counter()
        rng = np.random.default_rng(505)
        for n in (3, 5, 6):
            sigma, _ = generate_problem(GeneratorSpec(n=n, density=0.4, seed=n))
            rho = 0.45 * float(np.max(np.diag(sigma)))
            t = 1e-3 / (2 * n * n)
            p = Problem(sigma=sigma, rho=rho)
            factor = solve_at(sigma, rho, t, CorrectorConfig(tol_residual=1e-9))
            D, rhs = build_system(t, slacks(p, factor.matrix))
            K = explicit_system(p, factor, t)
            for _ in range(6):
                P = symmetrize(rng.standard_normal((n, n)))
                direct = (K @ P.reshape(-1)).reshape(n, n)
                err = np.abs(matvec(factor.inverse, D, P) - direct).max()
                assert err <= 1e-10 * max(1.0, np.abs(direct).max())

            # FD validation of the D/rhs closed forms runs at a moderate
            # barrier weight: central differences at step 1e-5 need box
            # slacks well above the step, which tiny t does not leave.
            t_fd = 1e-2
            factor_fd = solve_at(sigma, rho, t_fd, CorrectorConfig(tol_residual=1e-9))
            D_fd, rhs_fd = build_system(t_fd, slacks(p, factor_fd.matrix))

            def h_of(U, rho_val):
                L = t_fd / (rho_val + sigma - U)
                M = t_fd / (rho_val - sigma + U)
                return L - M - np.linalg.inv(U)

            d = 1e-5
            fd_rho = (h_of(factor_fd.matrix, rho + d) - h_of(factor_fd.matrix, rho - d)) / (2 * d)
            assert np.abs(fd_rho + rhs_fd).max() <= 1e-6 * max(1.0, np.abs(rhs_fd).max())
            for i in range(n):
                for j in range(n):
                    E = np.zeros((n, n))
                    E[i, j] = d
                    fd = (h_of(factor_fd.matrix + E, rho) - h_of(factor_fd.matrix - E, rho)) / (2 * d)
                    col = np.outer(factor_fd.inverse[:, i], factor_fd.inverse[j, :])
                    col = col.copy()
                    col[i, j] += D_fd[i, j]
                    assert np.abs(fd - col).max() <= 1e-6 * max(1.0, np.abs(col).max())

            res = cg_solve(factor.inverse, D, rhs, rel_drop=1e-10)
            dense = np.linalg.solve(K, rhs.reshape(-1)).reshape(n, n)
            rel = np.linalg.norm(res.direction - dense) / np.linalg.norm(dense)
            assert rel <= 1e-4
        wall = time.perf_counter() - tick
        assert wall < 30.0, f"system validation took {wall:.1f}s"


def test_criterion_06_swm_integrity_over_full_path(monkeypatch):
    with criterion(6, "rank-2 inverse maintenance drift stays below 1e-8"):
        # The production corrector keeps no cached inverse, so the path runs
        # through the block coordinate-descent corrector, which does.
        runs = []

        def block_cd(*args, **kwargs):
            factor, stats = block_cd_run(*args, **kwargs)
            runs.append(stats)
            return factor, stats

        monkeypatch.setattr(covpath.path, "corrector_run", block_cd)
        sigma, _ = generate_problem(GeneratorSpec(n=50, density=0.1, seed=606))
        result = run_path(sigma, PathConfig(points=50))
        assert not result.truncated
        assert len(result.points) == 50
        # A point whose graph |sigma_ij| >= rho has only singleton
        # components is solved in closed form; every other point takes one
        # block-CD run.
        coupled = 0
        for pt in result.points:
            _, labels = connected_components(np.abs(sigma) >= pt.rho, directed=False)
            coupled += int(np.bincount(labels).max() >= 2)
        row_updates = [stats.row_updates for stats in runs]
        assert len(row_updates) == coupled and sum(row_updates) > 0
        # A run refreshes its inverse after every REFRESH_EVERY row updates.
        assert max(row_updates) >= REFRESH_EVERY, max(row_updates)
        drift = max(stats.max_inverse_drift for stats in runs)
        assert drift <= 1e-8, drift


def test_criterion_07_path_trends(n100_predictor_path):
    with criterion(7, "cardinality monotone in rho; CG effort grows with density"):
        result, _ = n100_predictor_path
        cards = np.array([pt.cardinality for pt in result.points])
        assert all(b >= a for a, b in zip(cards, cards[1:]))  # rho descends
        cg = np.array([pt.cg_iterations for pt in result.points])
        order = np.argsort(cards, kind="stable")
        q = len(order) // 5
        sparse_median = statistics.median(cg[order[:q]].tolist())
        dense_median = statistics.median(cg[order[-q:]].tolist())
        assert sparse_median <= dense_median, (sparse_median, dense_median)


def test_criterion_07_corrector_effort_grows_with_density(n100_predictor_path):
    # The tangent CG above takes one iteration at every point, so that check
    # compares 1 with 1. The corrector's CG iterations per Newton step do
    # grow with density: medians 1.0 and 7.9 over the fifths when written.
    with criterion(7, "corrector CG per Newton step grows with density"):
        result, _ = n100_predictor_path
        stepped = [pt for pt in result.points if pt.sweeps > 0]
        cards = np.array([pt.cardinality for pt in stepped])
        per_step = np.array([pt.corrector_cg_iterations / pt.sweeps for pt in stepped])
        order = np.argsort(cards, kind="stable")
        q = len(order) // 5
        sparse_median = statistics.median(per_step[order[:q]].tolist())
        dense_median = statistics.median(per_step[order[-q:]].tolist())
        assert sparse_median < dense_median, (sparse_median, dense_median)


def test_criterion_08_online_equivalence():
    with criterion(8, "one-step online re-solve matches from-scratch to 1e-6"):
        n = 10
        sigma, _ = generate_problem(GeneratorSpec(n=n, density=0.2, seed=808))
        rho = 0.4 * float(np.max(np.diag(sigma)))
        t = 1e-3 / (2 * n * n)
        cc = CorrectorConfig(tol_residual=1e-9)
        p = Problem(sigma=sigma, rho=rho)
        base = solve_at(sigma, rho, t, cc)

        out = run_online(p, base.matrix, np.zeros((n, n)), k=1, t=t, corrector_cfg=cc)
        assert np.array_equal(out.matrix, base.matrix)

        rng = np.random.default_rng(809)
        for _ in range(10):
            C = symmetrize(rng.standard_normal((n, n)))
            C *= 1e-3 * np.linalg.norm(sigma) / np.linalg.norm(C)
            online = run_online(p, base.matrix, C, k=1, t=t, corrector_cfg=cc)
            scratch = solve_at(sigma + C, rho, t, cc)
            assert np.linalg.norm(online.matrix - scratch.matrix) <= 1e-6


def test_criterion_09_performance_sanity(n100_predictor_path):
    with criterion(9, "n=100 path under 120 s; wall-time medians grow with n"):
        _, wall = n100_predictor_path
        assert wall < 120.0, f"n=100 50-point path took {wall:.1f}s"
        medians = []
        for n in (20, 50, 100, 200):
            sigma, _ = generate_problem(GeneratorSpec(n=n, density=0.1, seed=900 + n))
            walls = []
            for _ in range(2):
                tick = time.perf_counter()
                result = run_path(sigma, PathConfig(points=10))
                walls.append(time.perf_counter() - tick)
                assert not result.truncated
            medians.append(statistics.median(walls))
        assert all(b > a for a, b in zip(medians, medians[1:])), medians


def test_criterion_09_path_beats_points_alone():
    # The paper's claim on a fine grid: warm-starting each grid value from
    # the last one takes fewer Newton steps than re-centering every value
    # alone from the sparse-end start (400 against 1179 when written).
    # Coarse grids at n >= 200 do not yet keep it.
    with criterion(9, "a fine-grid path takes fewer Newton steps than its points alone"):
        sigma, _ = generate_problem(GeneratorSpec(n=100, density=0.1, seed=1100))
        result = run_path(sigma, PathConfig(points=50, mode="predictor"))
        assert not result.truncated
        alone = 0
        for pt in result.points:
            p = Problem(sigma=sigma, rho=pt.rho)
            alone += recenter(p, initial_point(p), result.t, CorrectorConfig())[1].sweeps
        path_steps = sum(pt.sweeps for pt in result.points)
        assert path_steps < alone, (path_steps, alone)


def test_criterion_10_byte_identical_summaries(tmp_path):
    with criterion(10, "same flags and seed give byte-identical summaries"):
        args = ["solve", "--gen", "n=10,density=0.2,seed=77", "--points", "6"]
        assert cli_main(args + ["--output", str(tmp_path / "a")]) == 0
        assert cli_main(args + ["--output", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "summary.json").read_bytes()
        b = (tmp_path / "b" / "summary.json").read_bytes()
        assert a == b
        assert len(load_json(tmp_path / "a" / "summary.json")["points"]) == 6
