"""Path drivers: the full regularization sweep over rho and the online
continuation toward a perturbed covariance.

A path run starts from the sparse-end diagonal point, carries the solution
from one grid value to the next with a scaling warm start (default) or a
conjugate-gradient tangent step, and re-centers at every grid value with
:func:`recenter`. The l1-penalized solution is block diagonal over the
connected components of the graph |sigma_ij| >= rho (Witten, Friedman &
Simon 2011; Mazumder & Hastie 2012), so where that graph splits and the
residual left across its components is small, singletons are solved in
closed form and one Newton-CG run (``corrector.corrector_run``) covers
the other indices; otherwise one run covers all of U.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .barrier import (
    Problem,
    dual_objective,
    feasible,
    initial_point,
    primal_objective,
    scaling_warm_start,
    slacks,
)
from .corrector import CorrectorConfig, CorrectorStats, centered, corrector_run
from .exceptions import CovpathError, Infeasible
from .predictor import barrier_curvature, cg_solve, predictor_step_detail
from .symmat import PDFactor, checked_symmetric
# perfbench/tracing.py wraps path.pd_factor, so the name stays here.
from .symmat import pd_factor  # noqa: F401

MODES = ("scaling", "predictor")


@dataclass
class PathConfig:
    """Configuration of a full path run; the defaults here are the CLI's.

    ``rho_grid``, when given, is the penalty grid: finite, positive,
    strictly descending and starting at or below rho_max = max_i sigma_ii.
    Otherwise the grid is ``points`` log-spaced penalties from rho_max down
    to ``rho_min_frac * rho_max``. The barrier weight t is set from
    ``gap_target`` so that the surrogate duality gap bound 2 n^2 t equals
    ``gap_target`` at every point; it must be finite and positive. ``mode``
    is one of :data:`MODES`: the warm start from one grid value to the
    next. ``zero_tol`` is the relative threshold of :func:`support_mask`,
    and ``corrector`` the stopping rule of each re-centering.
    """

    rho_grid: np.ndarray | None = None
    points: int = 50
    rho_min_frac: float = 0.01
    gap_target: float = 1e-3
    mode: str = "scaling"
    zero_tol: float = 1e-4
    corrector: CorrectorConfig = field(default_factory=CorrectorConfig)


@dataclass
class PathPoint:
    """One solved grid value with its diagnostics.

    ``factor`` is the solution U with its inverse X and log-determinant.
    ``cg_iterations`` counts the predictor's tangent CG iterations;
    ``sweeps`` and ``corrector_cg_iterations`` the corrector's Newton steps
    and the CG iterations they took.
    """

    rho: float
    factor: PDFactor
    cardinality: int
    dual_obj: float
    primal_obj: float
    cg_iterations: int
    sweeps: int
    corrector_cg_iterations: int
    wall_time: float

    @property
    def U(self) -> np.ndarray:
        return self.factor.matrix

    @property
    def X(self) -> np.ndarray:
        return self.factor.inverse


@dataclass
class PathFailure:
    """Record of a grid value that could not be solved, with the message
    of the error that stopped it."""

    rho: float
    error: str


@dataclass
class RegularizationPath:
    """Ordered solutions along the penalty grid plus run-level diagnostics."""

    sigma: np.ndarray
    t: float
    points: list[PathPoint] = field(default_factory=list)
    failure: PathFailure | None = None

    @property
    def truncated(self) -> bool:
        """Whether a grid value failed and the path stops before the grid's end."""
        return self.failure is not None


def default_rho_grid(sigma: np.ndarray, points: int, rho_min_frac: float) -> np.ndarray:
    """Log-spaced descending penalty grid from rho_max to rho_min_frac*rho_max."""
    rho_max = float(np.max(np.diagonal(sigma)))
    if points < 1:
        raise ValueError("need at least one grid point")
    if not 0.0 < rho_min_frac <= 1.0:
        raise ValueError(f"rho_min_frac must lie in (0, 1], got {rho_min_frac}")
    return np.geomspace(rho_max, rho_min_frac * rho_max, points)


def support_mask(X: np.ndarray, zero_tol: float) -> np.ndarray:
    """Entries of X above the relative magnitude threshold.

    Barrier solutions are interior points, so exact zeros occur only
    across the components that :func:`recenter` splits a point into;
    |X_ij| <= zero_tol * max|X| counts as a structural zero.
    """
    absX = np.abs(X)
    return absX > zero_tol * np.max(absX)


def cardinality(X: np.ndarray, zero_tol: float) -> int:
    """Number of entries of X that are not structural zeros (:func:`support_mask`)."""
    return int(np.count_nonzero(support_mask(X, zero_tol)))


def _validate_grid(grid: np.ndarray, rho_max: float) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("rho grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(grid) & (grid > 0.0)):
        raise ValueError("rho grid values must be finite and positive")
    if grid.size > 1 and np.any(np.diff(grid) >= 0.0):
        raise ValueError("rho grid must be strictly descending")
    if grid[0] > rho_max * (1.0 + 1e-12):
        raise ValueError("rho grid must start at or below max_i sigma_ii")
    return grid


def _make_point(problem, factor, cfg, cg_iterations, stats, wall_time) -> PathPoint:
    X = factor.inverse
    return PathPoint(
        rho=problem.rho,
        factor=factor,
        cardinality=cardinality(X, cfg.zero_tol),
        dual_obj=dual_objective(factor),
        # At a path point log det X = -log det U, which the factor holds.
        primal_obj=primal_objective(problem, X, -factor.logdet),
        cg_iterations=cg_iterations,
        sweeps=stats.sweeps,
        corrector_cg_iterations=stats.inner_passes,
        wall_time=wall_time,
    )


def components(sigma: np.ndarray, rho: float) -> np.ndarray:
    """Connected components of the graph |sigma_ij| >= rho on the indices:
    entry i is the smallest index in the component of i."""
    n = sigma.shape[0]
    adjacent = np.abs(sigma) >= rho
    np.fill_diagonal(adjacent, True)
    labels = np.arange(n)
    while True:
        # Each index takes the smallest label among its neighbours, then
        # that label's own label. Labels only fall and stay in the
        # component, and they stop changing once each component has one.
        new = np.where(adjacent, labels, n).min(axis=1)
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def singleton_slack(s: np.ndarray, rho: float, t: float) -> np.ndarray:
    """Upper slack v = s + rho - u of the barrier center u of an index that
    is a component by itself, with s its sigma_ii.

    Times v (2 rho - v) u, the central-path equation
    H = t/v - t/(2 rho - v) - 1/u = 0 is the quadratic
    a v^2 - b v + c = 0 with a = 1 + 2t, b = 2 rho + 2t (s + 2 rho) and
    c = 2t (s + rho) rho. Its smaller root is the one inside the box; it is
    taken as 2c / (b + sqrt(b^2 - 4ac)), which does not cancel.
    """
    b = 2.0 * rho + (2.0 * t) * (s + 2.0 * rho)
    c = (2.0 * t) * (s + rho) * rho
    return 2.0 * c / (b + np.sqrt(b * b - 4.0 * (1.0 + 2.0 * t) * c))


# recenter splits a grid value over the components of |sigma_ij| >= rho when
# the residual that a block-diagonal U leaves across components is at most
# CROSS_LIMIT times the residual tolerance.
CROSS_LIMIT = 0.5


def recenter(
    p: Problem, start: np.ndarray, t: float, cfg: CorrectorConfig
) -> tuple[PDFactor, CorrectorStats]:
    """Re-center at one grid value from ``start``, over the components of
    |sigma_ij| >= rho (:func:`components`) when that pays.

    With tol = ``cfg.residual_tol(n)``: when the graph is connected, or the
    cross-component residual -2 t sigma_ij / (rho^2 - sigma_ij^2) of a
    block-diagonal U has norm cross > ``CROSS_LIMIT * tol``, this is
    ``corrector_run(p, start, t, cfg)``. Otherwise U is 0 across
    components. Singletons are solved in closed form
    (:func:`singleton_slack`). The other indices are re-centered by one
    ``corrector_run`` on the problem with sigma and the start masked to
    same-component entries, to the tolerance 0.99 sqrt(tol^2 - cross^2)
    that the cross residual leaves; Newton-CG started block diagonal stays
    block diagonal. The assembled point must pass the corrector's return
    test on the full problem (:func:`corrector.centered`). If it does not,
    or the reduced run fails, ``corrector_run`` re-centers all of U from
    ``start``. Statistics are the reduced run's, all zero when every index
    is a singleton.

    Nothing here tests ``start``: each run tests its own start once
    (``barrier.feasible``), and one that the run over all of U rejects
    raises Infeasible.
    """
    n = p.n
    tol = cfg.residual_tol(n)
    labels = components(p.sigma, p.rho)
    if not labels.any():
        return corrector_run(p, start, t, cfg)
    same = labels[:, None] == labels
    # Off-component |sigma_ij| < rho, so only there is the division safe.
    s_cross = p.sigma[~same]
    h_cross = (2.0 * t) * s_cross / (p.rho * p.rho - s_cross * s_cross)
    cross = math.sqrt(np.vdot(h_cross, h_cross))
    if cross > CROSS_LIMIT * tol:
        return corrector_run(p, start, t, cfg)

    alone = np.bincount(labels, minlength=n)[labels] == 1
    single = np.flatnonzero(alone)
    rest = np.flatnonzero(~alone)
    U = np.zeros((n, n))
    X = np.zeros((n, n))
    s = p.sigma[single, single]
    u = (s + p.rho) - singleton_slack(s, p.rho, t)
    U[single, single] = u
    X[single, single] = 1.0 / u
    logdet = float(np.log(u).sum())
    stats = CorrectorStats()
    if rest.size:
        block = np.ix_(rest, rest)
        keep = same[block]
        U0 = np.asarray(start, dtype=float)
        reduced = Problem.from_symmetric(np.where(keep, p.sigma[block], 0.0), p.rho)
        reduced_cfg = CorrectorConfig(
            tol_residual=0.99 * math.sqrt(tol * tol - cross * cross),
            max_sweeps=cfg.max_sweeps,
        )
        try:
            factor, stats = corrector_run(
                reduced, np.where(keep, U0[block], 0.0), t, reduced_cfg
            )
        except CovpathError:
            return corrector_run(p, start, t, cfg)
        U[block] = factor.matrix
        X[block] = factor.inverse
        logdet += factor.logdet
    factor = PDFactor(matrix=U, logdet=logdet, inverse=X)
    if centered(p, factor, t, tol):
        return factor, stats
    return corrector_run(p, start, t, cfg)


def run_path(sigma: np.ndarray, cfg: PathConfig | None = None) -> RegularizationPath:
    """Trace the full regularization path over the penalty grid; sigma
    must be symmetric (:class:`barrier.Problem` checks it once, at rho_max).

    The first point starts from the sparse-end diagonal matrix; every later
    point warm-starts from its predecessor. :func:`recenter` solves each
    point from its start, over the components of |sigma_ij| >= rho where
    that pays; a point solved wholly in closed form reports 0 sweeps. In
    predictor mode, the tangent step (:func:`predictor.predictor_step_detail`)
    goes as far toward the grid value as the box allows, and rescaling
    carries its endpoint the rest of the way. That start goes to
    :func:`recenter` untested: the corrector run that starts from it tests
    it once (``barrier.feasible``), and no factorization happens outside
    the corrector runs. If the run rejects the start (Infeasible), the
    point re-centers from the scaling warm start instead. When solving a
    grid value raises any other ``CovpathError`` (in the predictor step or
    in the corrector), the driver retries once through an intermediate
    penalty (geometric midpoint, matching the log-spaced grid); if that
    also fails the path is returned truncated with the failure recorded.
    """
    cfg = cfg or PathConfig()
    if cfg.mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if not 0.0 <= cfg.zero_tol < 1.0:
        raise ValueError(f"zero_tol must lie in [0, 1), got {cfg.zero_tol}")
    sigma = np.asarray(sigma, dtype=float)
    p_max = Problem(sigma=sigma, rho=float(np.max(np.diagonal(sigma))))
    sigma, n, rho_max = p_max.sigma, p_max.n, p_max.rho
    grid = _validate_grid(
        default_rho_grid(sigma, cfg.points, cfg.rho_min_frac)
        if cfg.rho_grid is None
        else cfg.rho_grid,
        rho_max,
    )
    t = cfg.gap_target / (2.0 * n * n)
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"t must be finite and positive, got {t}")

    path = RegularizationPath(sigma=sigma, t=t)
    U_prev = initial_point(p_max)
    factor_prev: PDFactor | None = None
    prev = p_max

    for rho in grid.tolist():
        tick = time.perf_counter()
        problem = Problem.from_symmetric(sigma, rho)
        h = rho - prev.rho
        cg_iterations = 0
        try:
            solved = None
            if cfg.mode == "predictor" and factor_prev is not None:
                start, h_used, cg_res = predictor_step_detail(prev, factor_prev, t, h)
                cg_iterations = cg_res.iterations
                if h_used != h:
                    # The tangent stopped short of the grid value. Rescaling
                    # carries its endpoint the rest of the way (the max
                    # keeps rounding from asking it to raise the penalty).
                    start = scaling_warm_start(sigma, start, max(prev.rho + h_used, rho), rho)
                try:
                    solved = recenter(problem, start, t, cfg.corrector)
                except Infeasible:
                    pass  # the run rejected the start; take the scaling start
            if solved is None:
                start = scaling_warm_start(sigma, U_prev, prev.rho, rho)
                solved = recenter(problem, start, t, cfg.corrector)
            factor, stats = solved
        except CovpathError as exc:
            retried = _retry_through_midpoint(sigma, U_prev, prev.rho, rho, t, cfg)
            if retried is None:
                path.failure = PathFailure(rho=rho, error=str(exc))
                return path
            factor, stats = retried
        wall = time.perf_counter() - tick
        path.points.append(_make_point(problem, factor, cfg, cg_iterations, stats, wall))
        factor_prev, U_prev, prev = factor, factor.matrix, problem
    return path


def _retry_through_midpoint(sigma, U_prev, rho_prev, rho, t, cfg):
    """One recovery attempt: solve at the geometric midpoint, then at rho."""
    rho_mid = math.sqrt(rho_prev * rho)
    try:
        U_mid = scaling_warm_start(sigma, U_prev, rho_prev, rho_mid)
        factor_mid, _ = recenter(Problem.from_symmetric(sigma, rho_mid), U_mid, t, cfg.corrector)
        U_start = scaling_warm_start(sigma, factor_mid.matrix, rho_mid, rho)
        return recenter(Problem.from_symmetric(sigma, rho), U_start, t, cfg.corrector)
    except CovpathError:
        return None


def solve_at(
    sigma: np.ndarray,
    rho: float,
    t: float,
    corrector_cfg: CorrectorConfig | None = None,
) -> PDFactor:
    """From-scratch solve at a single penalty; sigma must be symmetric
    (:class:`barrier.Problem` checks it).

    One :func:`recenter` from the sparse-end start valid at rho
    (:func:`barrier.initial_point`): Newton-CG needs no walk down a grid
    from rho_max to get there. A failure reaches the caller with its own
    type, as raised.
    """
    p = Problem(sigma=np.asarray(sigma, dtype=float), rho=rho)
    factor, _ = recenter(p, initial_point(p), t, corrector_cfg or CorrectorConfig())
    return factor


# --------------------------------------------------------------------------
# Online continuation in the perturbation parameter mu.
# --------------------------------------------------------------------------


def shifted_problem(p: Problem, C: np.ndarray, mu: float) -> Problem:
    """The instance with covariance sigma + mu C at the same penalty, for a
    finite, exactly symmetric C (``run_online`` checks it).

    sigma + mu C is then exactly symmetric, so it is stored as computed
    (``Problem.from_symmetric``), without the copy and symmetry test of the
    constructor. A non-finite sum or a non-positive diagonal raises the
    constructor's ValueError.
    """
    sigma = p.sigma + (C if mu == 1.0 else mu * C)
    if not np.isfinite(sigma).all():
        raise ValueError("sigma must be finite")
    return Problem.from_symmetric(sigma, p.rho)


def run_online(
    p: Problem,
    U_star: np.ndarray,
    C: np.ndarray,
    k: int = 1,
    *,
    t: float,
    corrector_cfg: CorrectorConfig | None = None,
) -> PDFactor:
    """Carry a solved instance to the perturbed covariance sigma + C at the
    barrier weight ``t`` that ``U_star`` was solved at.

    Continuation runs in mu from 0 to 1 in steps of 1/k (k=1 is usually
    enough for small C): each step takes a tangent move in mu from the CG
    solve of the same structured system with right-hand side -dH/dmu, then
    re-centers with the corrector on the shifted problem
    (:func:`shifted_problem`). That system's D is the barrier curvature
    (L^2 + M^2)/t (``predictor.barrier_curvature``), and -dH/dmu = D o C.
    A step of 1 (k=1) adds the tangent direction unscaled.

    C is held to sigma's symmetry rule (``symmat.checked_symmetric``).
    Only ``U_star`` is tested here, by ``barrier.feasible`` alone, which
    no U_star that is not finite and exactly symmetric passes; one that
    fails is held to the same rule and tested again. Its factor and slacks
    build the first tangent system. Each tangent point goes to a corrector
    run, which tests it; while that run raises Infeasible the step halves,
    down to 2^-10, and beyond that Infeasible is raised (reduce C per
    call).
    The corrector takes at least one Newton step even from a tangent point
    that already passes its return test (``corrector.centered``): such a
    point can still be 1e-7 from the solution. Streams of 12 updates
    returned unstepped ended 0.7-1.65e-6 from a from-scratch solve, at or
    past criterion 8's bound of 1e-6, against 1e-12 to 7e-12 with the
    step.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    C = checked_symmetric(np.asarray(C, dtype=float), "C")
    U_star = np.asarray(U_star, dtype=float)
    try:
        factor, slack = feasible(p, U_star, "U_star")
    except Infeasible:
        # A nearly symmetric U_star is averaged before the second test; an
        # asymmetric or non-finite one raises ValueError.
        factor, slack = feasible(p, checked_symmetric(U_star, "U_star"), "U_star")
    if not C.any():
        return factor

    cc = corrector_cfg or CorrectorConfig()
    mu = 0.0
    min_step = 2.0**-10
    while True:
        step = min(1.0 / k, 1.0 - mu)
        D, _ = barrier_curvature(t, slack)
        direction = cg_solve(factor.inverse, D, D * C).direction
        while True:
            mu_next = mu + step
            p_next = shifted_problem(p, C, mu_next)
            start = factor.matrix + (direction if step == 1.0 else step * direction)
            try:
                factor, _ = corrector_run(p_next, start, t, cc)
                break
            except Infeasible:
                step *= 0.5
                if step < min_step:
                    raise Infeasible(
                        "homotopy left the feasible region; reduce the perturbation per call"
                    )
        mu = mu_next
        if mu >= 1.0:
            return factor
        # The run keeps the slacks of its result to itself.
        slack = slacks(p_next, factor.matrix)
