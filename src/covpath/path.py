"""Path drivers: the full regularization sweep over rho and the online
continuation toward a perturbed covariance.

A path run starts from the sparse-end diagonal point, carries the solution
from one grid value to the next with a scaling warm start (default) or a
conjugate-gradient tangent step, and re-centers with the Newton-CG
corrector (``corrector.corrector_run``) at every grid value.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .barrier import (
    Problem,
    dual_objective,
    feasible,
    gap_bound,
    initial_point,
    primal_objective,
    scaling_warm_start,
)
from .corrector import CorrectorConfig, corrector_run
from .exceptions import CovpathError, Infeasible, StepCollapse
from .predictor import (
    CGConfig,
    PredictorSystem,
    build_system,
    cg_solve,
    predictor_step_detail,
)
from .symmat import PDFactor, pd_factor, symmetrize

MODES = ("scaling", "predictor")


@dataclass
class PathConfig:
    """Configuration of a full path run.

    ``rho_grid`` defaults to 50 log-spaced penalties from rho_max down to
    ``rho_min_frac * rho_max`` (strictly descending). The barrier weight is
    ``t`` when given, otherwise it is set from ``gap_target`` so that the
    surrogate duality gap bound 2 n^2 t equals ``gap_target`` at every point.
    """

    rho_grid: np.ndarray | None = None
    points: int = 50
    rho_min_frac: float = 0.01
    t: float | None = None
    gap_target: float = 1e-3
    mode: str = "scaling"
    eps: float = 0.01
    zero_tol: float = 1e-4
    corrector: CorrectorConfig = field(default_factory=CorrectorConfig)
    cg: CGConfig = field(default_factory=CGConfig)


@dataclass
class PathPoint:
    """One solved grid value with its diagnostics.

    ``cg_iterations`` counts the predictor's tangent CG iterations;
    ``sweeps`` and ``corrector_cg_iterations`` the corrector's Newton steps
    and the CG iterations they took.
    """

    rho: float
    U: np.ndarray
    X: np.ndarray
    cardinality: int
    dual_obj: float
    primal_obj: float
    gap_bound: float
    cg_iterations: int
    sweeps: int
    corrector_cg_iterations: int
    wall_time: float


@dataclass
class PathFailure:
    """Record of a grid value that could not be solved, with the error
    that stopped it."""

    rho: float
    error: str
    exception: CovpathError | None = field(default=None, repr=False, compare=False)


@dataclass
class RegularizationPath:
    """Ordered solutions along the penalty grid plus run-level diagnostics."""

    sigma: np.ndarray
    t: float
    mode: str
    points: list[PathPoint] = field(default_factory=list)
    truncated: bool = False
    failure: PathFailure | None = None
    max_inverse_drift: float = 0.0

    @property
    def rhos(self) -> np.ndarray:
        return np.array([pt.rho for pt in self.points])


def default_rho_grid(sigma: np.ndarray, points: int = 50, rho_min_frac: float = 0.01) -> np.ndarray:
    """Log-spaced descending penalty grid from rho_max to rho_min_frac*rho_max."""
    rho_max = float(np.max(np.diagonal(sigma)))
    if points < 1:
        raise ValueError("need at least one grid point")
    if points == 1:
        return np.array([rho_max])
    return np.geomspace(rho_max, rho_min_frac * rho_max, points)


def support_mask(X: np.ndarray, zero_tol: float = 1e-4) -> np.ndarray:
    """Entries of X above the relative magnitude threshold.

    Barrier solutions are interior points, so exact zeros never occur;
    |X_ij| <= zero_tol * max|X| counts as a structural zero.
    """
    absX = np.abs(X)
    return absX > zero_tol * np.max(absX)


def cardinality(X: np.ndarray, zero_tol: float = 1e-4) -> int:
    """Number of entries of X that are not structural zeros (:func:`support_mask`)."""
    return int(np.count_nonzero(support_mask(X, zero_tol)))


def _validate_grid(grid: np.ndarray, rho_max: float) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("rho grid must be a non-empty 1-D array")
    if np.any(grid <= 0.0):
        raise ValueError("rho grid values must be positive")
    if grid.size > 1 and np.any(np.diff(grid) >= 0.0):
        raise ValueError("rho grid must be strictly descending")
    if grid[0] > rho_max * (1.0 + 1e-12):
        raise ValueError("rho grid must start at or below max_i sigma_ii")
    return grid


def _make_point(problem, factor, t, cfg, cg_iterations, stats, wall_time) -> PathPoint:
    X = factor.inverse
    return PathPoint(
        rho=problem.rho,
        U=factor.matrix,
        X=X,
        cardinality=cardinality(X, cfg.zero_tol),
        dual_obj=dual_objective(factor),
        primal_obj=primal_objective(problem, X),
        gap_bound=gap_bound(problem.n, t),
        cg_iterations=cg_iterations,
        sweeps=stats.sweeps,
        corrector_cg_iterations=stats.inner_passes,
        wall_time=wall_time,
    )


def run_path(sigma: np.ndarray, cfg: PathConfig | None = None) -> RegularizationPath:
    """Trace the full regularization path over the penalty grid.

    The first point starts from the sparse-end diagonal matrix; every later
    point warm-starts from its predecessor. In predictor mode, a tangent
    step that collapses (``StepCollapse``) or ends infeasible gives way to
    the scaling warm start. When solving a grid value raises any other
    ``CovpathError`` (in the predictor step or in the corrector), the
    driver retries once through an intermediate penalty (geometric
    midpoint, matching the log-spaced grid); if that also fails the path is
    returned truncated with the failure recorded.
    """
    cfg = cfg or PathConfig()
    if cfg.mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if not 0.0 <= cfg.zero_tol < 1.0:
        raise ValueError(f"zero_tol must lie in [0, 1), got {cfg.zero_tol}")
    sigma = symmetrize(np.asarray(sigma, dtype=float))
    n = sigma.shape[0]
    rho_max = float(np.max(np.diagonal(sigma)))
    grid = (
        default_rho_grid(sigma, cfg.points, cfg.rho_min_frac)
        if cfg.rho_grid is None
        else _validate_grid(cfg.rho_grid, rho_max)
    )
    t = cfg.t if cfg.t is not None else cfg.gap_target / (2.0 * n * n)

    path = RegularizationPath(sigma=sigma, t=t, mode=cfg.mode)
    U_prev = initial_point(Problem(sigma=sigma, rho=rho_max), cfg.eps)
    factor_prev: PDFactor | None = None
    rho_prev = rho_max

    for rho in grid:
        tick = time.perf_counter()
        problem = Problem(sigma=sigma, rho=float(rho))
        h = float(rho) - rho_prev
        cg_iterations = 0
        try:
            U_start = None
            if cfg.mode == "predictor" and factor_prev is not None:
                prev_problem = Problem(sigma=sigma, rho=rho_prev)
                try:
                    U_start, h_used, cg_res = predictor_step_detail(
                        prev_problem, factor_prev, t, h, cfg.cg
                    )
                except StepCollapse:
                    pass  # the scaling start below stands in for the tangent
                else:
                    cg_iterations = cg_res.iterations
                    if h_used != h:
                        # Tangent backtracked short of the grid value: carry
                        # its feasible endpoint the rest of the way by
                        # rescaling.
                        U_start = scaling_warm_start(
                            sigma, U_start, rho_prev + h_used, float(rho)
                        )
            if U_start is None or not feasible(problem, U_start):
                U_start = scaling_warm_start(sigma, U_prev, rho_prev, float(rho))
            factor, stats = corrector_run(problem, U_start, t, cfg.corrector)
        except CovpathError as exc:
            retried = _retry_through_midpoint(sigma, U_prev, rho_prev, float(rho), t, cfg)
            if retried is None:
                path.truncated = True
                path.failure = PathFailure(rho=float(rho), error=str(exc), exception=exc)
                return path
            factor, stats = retried
        wall = time.perf_counter() - tick
        path.max_inverse_drift = max(path.max_inverse_drift, stats.max_inverse_drift)
        path.points.append(
            _make_point(problem, factor, t, cfg, cg_iterations, stats, wall)
        )
        factor_prev = factor
        U_prev = factor.matrix
        rho_prev = float(rho)
    return path


def _retry_through_midpoint(sigma, U_prev, rho_prev, rho, t, cfg):
    """One recovery attempt: solve at the geometric midpoint, then at rho."""
    rho_mid = math.sqrt(rho_prev * rho)
    try:
        U_mid = scaling_warm_start(sigma, U_prev, rho_prev, rho_mid)
        factor_mid, _ = corrector_run(Problem(sigma=sigma, rho=rho_mid), U_mid, t, cfg.corrector)
        U_start = scaling_warm_start(sigma, factor_mid.matrix, rho_mid, rho)
        return corrector_run(Problem(sigma=sigma, rho=rho), U_start, t, cfg.corrector)
    except CovpathError:
        return None


def solve_at(
    sigma: np.ndarray,
    rho: float,
    t: float,
    corrector_cfg: CorrectorConfig | None = None,
    points: int = 10,
    eps: float = 0.01,
) -> PDFactor:
    """From-scratch solve at a single penalty.

    Warm-starts down a short log grid from rho_max when rho sits below it;
    for rho >= rho_max the diagonal start is already feasible and a single
    corrector run suffices. When the path stops short, the error that
    stopped it is raised again as its own type, chained to the original.
    """
    sigma = symmetrize(np.asarray(sigma, dtype=float))
    rho_max = float(np.max(np.diagonal(sigma)))
    cc = corrector_cfg or CorrectorConfig()
    if rho >= rho_max:
        U0 = initial_point(Problem(sigma=sigma, rho=rho_max), eps)
        factor, _ = corrector_run(Problem(sigma=sigma, rho=rho), U0, t, cc)
        return factor
    grid = np.geomspace(rho_max, rho, points)
    cfg = PathConfig(rho_grid=grid, t=t, corrector=cc)
    result = run_path(sigma, cfg)
    if result.truncated:
        failure = result.failure
        raise type(failure.exception)(
            f"from-scratch solve failed at rho={failure.rho:.6g}: {failure.error}"
        ) from failure.exception
    return pd_factor(result.points[-1].U)


# --------------------------------------------------------------------------
# Online continuation in the perturbation parameter mu.
# --------------------------------------------------------------------------


def shifted_problem(p: Problem, C: np.ndarray, mu: float) -> Problem:
    """The instance with covariance sigma + mu C at the same penalty."""
    return Problem(sigma=p.sigma + mu * C, rho=p.rho)


def run_online(
    p: Problem,
    U_star: np.ndarray,
    C: np.ndarray,
    k: int = 1,
    t: float = 1e-5,
    corrector_cfg: CorrectorConfig | None = None,
    cg_cfg: CGConfig | None = None,
) -> PDFactor:
    """Carry a solved instance to the perturbed covariance sigma + C.

    Continuation runs in mu from 0 to 1 in steps of 1/k (k=1 is usually
    enough for small C): each step takes a tangent move in mu from the CG
    solve of the same structured system with right-hand side -dH/dmu, then
    re-centers with the corrector on the shifted problem. Steps are halved
    when the tangent point leaves the feasible region, down to 2^-10;
    Infeasible is raised beyond that (reduce the perturbation per call).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    C = symmetrize(np.asarray(C, dtype=float))
    U = symmetrize(np.asarray(U_star, dtype=float))
    if not feasible(p, U):
        raise Infeasible("U_star is not feasible for the unperturbed problem")
    factor = pd_factor(U)
    if not np.any(C):
        return factor

    cc = corrector_cfg or CorrectorConfig()
    mu, p_mu = 0.0, p
    min_step = 2.0**-10
    while mu < 1.0:
        step = min(1.0 / k, 1.0 - mu)
        base = build_system(p_mu, factor, t)
        # -dH/dmu = ((L^2 + M^2)/t) o C, and (L^2 + M^2)/t is the system's D.
        sys_mu = PredictorSystem(U_inv=base.U_inv, D=base.D, rhs=base.D * C)
        direction = cg_solve(sys_mu, cg_cfg).direction
        while True:
            mu_next = mu + step
            p_next = shifted_problem(p, C, mu_next)
            U_try = symmetrize(factor.matrix + step * direction)
            if feasible(p_next, U_try):
                break
            # Tangent point left the box at this step length; the plain
            # carry-over may still be inside for a short enough step.
            if feasible(p_next, factor.matrix):
                U_try = factor.matrix.copy()
                break
            step *= 0.5
            if step < min_step:
                raise Infeasible(
                    "homotopy left the feasible region; reduce the perturbation per call"
                )
        factor, _ = corrector_run(p_next, U_try, t, cc)
        mu, p_mu = mu_next, p_next
    return factor
