"""Slow trusted oracles: dense Newton solve, golden-section search, the
explicit n^2 x n^2 tangent-system operator, and the paper's block
coordinate-descent corrector.

These exist for validation, not speed: the test suite checks the
corrector, the row kernels and the tangent system against them. They ship
with the library so that other code can check a solve the same way.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import kernels
from .barrier import (
    Problem,
    barrier_objective,
    feasible,
    initial_point,
    multipliers,
    residual,
    slacks,
)
from .corrector import CorrectorConfig, CorrectorStats
from .exceptions import Infeasible, LineSearchFailure, MaxItersExceeded, MaxSweepsExceeded
from .symmat import PDFactor, invert_pd, pd_factor, symmetrize

# Block coordinate-descent corrector. A row-kernel call stops at block
# tolerance TOL_BLOCK (tightened in block_cd_run along with the outer
# tolerance) or after MAX_INNER_PASSES Newton iterations. Closed-form moves
# stay GUARD_FRAC * rho inside the faces of the box.
TOL_BLOCK = 1e-9
MAX_INNER_PASSES = 20
GUARD_FRAC = 1e-12
# Row updates between fresh inversions; each compares the rank-2-updated
# inverse against the fresh one, reports the drift and replaces it.
REFRESH_EVERY = 50


@dataclass
class OracleConfig:
    tol: float = 1e-10
    max_iters: int = 200


def golden_section(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Minimizer of a strictly unimodal function on [lo, hi] within tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def newton_solve(
    p: Problem, U0: np.ndarray, t: float, cfg: OracleConfig | None = None
) -> PDFactor:
    """Damped Newton on the barrier problem over the free symmetric entries.

    Builds the dense Hessian of the barrier objective on the n(n+1)/2
    coordinates from :func:`explicit_system` (so it shares no code with the
    predictor's CG operator), takes Newton steps with feasibility-preserving
    backtracking, and stops when ||H||_F <= tol. Intended for n <= 30.
    Each point is factored once, by ``barrier.feasible``.
    """
    cfg = cfg or OracleConfig()
    U = symmetrize(np.asarray(U0, dtype=float))
    factor, slack = feasible(p, U, "newton_solve start")
    n = p.n
    # Column k of B is vec of the k-th free coordinate: E_ii, or E_ij + E_ji.
    rows, cols = np.triu_indices(n)
    k = np.arange(rows.size)
    B = np.zeros((n, n, k.size))
    B[rows, cols, k] = B[cols, rows, k] = 1.0
    B = B.reshape(n * n, k.size)

    for _ in range(cfg.max_iters):
        H = residual(multipliers(t, slack), factor.inverse)
        hnorm = float(np.linalg.norm(H))
        if hnorm <= cfg.tol:
            return factor

        grad = B.T @ H.reshape(-1)
        hess = B.T @ explicit_system(p, factor, t) @ B
        try:
            chol = scipy.linalg.cho_factor(hess)
            step_vec = scipy.linalg.cho_solve(chol, -grad)
        except scipy.linalg.LinAlgError:
            step_vec = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        step = (B @ step_vec).reshape(n, n)

        f0 = barrier_objective(factor, t, slack)
        slope = float(grad @ step_vec)
        # Slack at the float resolution of f0: near the optimum the Armijo
        # decrease underflows while the Newton step still shrinks H.
        f_slack = 1e-14 * (1.0 + abs(f0))
        tau = 1.0
        for _ in range(60):
            U_try = symmetrize(U + tau * step)
            try:
                trial, trial_slack = feasible(p, U_try)
            except Infeasible:
                tau *= 0.5
                continue
            if barrier_objective(trial, t, trial_slack) <= f0 + 1e-4 * tau * slope + f_slack:
                break
            tau *= 0.5
        else:
            raise LineSearchFailure(f"no acceptable step at residual {hnorm:.3e}")
        U, factor, slack = U_try, trial, trial_slack
    raise MaxItersExceeded(f"newton_solve: no convergence in {cfg.max_iters} iterations")


def central_point(
    p: Problem,
    t_target: float,
    cfg: OracleConfig | None = None,
    U0: np.ndarray | None = None,
) -> PDFactor:
    """Newton solve with continuation in the barrier weight.

    Plain damped Newton crawls when started far from a small-t central
    point (steps keep clipping on the box boundary), so this helper chains
    warm-started solves, each at a tenth of the weight before it, from a
    comfortably interior weight down to ``t_target``. The start defaults to
    the sparse-end start valid at the requested penalty
    (:func:`barrier.initial_point`).
    """
    cfg = cfg or OracleConfig()
    U = np.asarray(initial_point(p) if U0 is None else U0, dtype=float)
    t = max(t_target, 1.0)
    while True:
        # Intermediate stages only warm-start the next one; a loose stop
        # also dodges the cancellation floor of ||H||, which grows like
        # eps * scale / t as the box slacks shrink with t.
        stage_tol = cfg.tol if t == t_target else max(1e-6, cfg.tol)
        stage_cfg = OracleConfig(tol=stage_tol, max_iters=cfg.max_iters)
        factor = newton_solve(p, U, t, stage_cfg)
        if t == t_target:
            return factor
        U = factor.matrix
        t = max(t_target, t * 0.1)


def explicit_system(p: Problem, U: PDFactor, t: float) -> np.ndarray:
    """Dense n^2 x n^2 operator U^{-1} (x) U^{-1} + diag(vec D), test-scale only."""
    L, M = multipliers(t, slacks(p, U.matrix))
    D = (L**2 + M**2) / t
    return np.kron(U.inverse, U.inverse) + np.diag(D.reshape(-1))


def _residual_norm(p: Problem, U: np.ndarray, inv: np.ndarray, t: float) -> float:
    return float(np.linalg.norm(residual(multipliers(t, slacks(p, U)), inv)))


def block_cd_run(
    p: Problem,
    U0: np.ndarray,
    t: float,
    cfg: CorrectorConfig | None = None,
) -> tuple[PDFactor, CorrectorStats]:
    """Re-center by block coordinate descent over rows/columns, the paper's
    corrector; returns the solution with its run statistics.

    Each sweep visits every row/column of U in cyclic order, solves its
    block subproblem with ``kernels.row_solver()``, and keeps the cached
    inverse current with ``kernels.sub_inverse`` and
    ``kernels.swm_update_inverse``. The run returns once the residual, computed with a fresh inverse, is
    at most ``cfg.residual_tol(n)``. ``U0`` must pass ``barrier.feasible``.
    """
    cfg = cfg or CorrectorConfig()
    n = p.n
    tol = cfg.residual_tol(n)
    U = np.array(U0, dtype=float)
    inv = feasible(p, U, "corrector start")[0].inverse
    solver = kernels.row_solver()
    guard = GUARD_FRAC * p.rho
    # A block left about tol_block from its minimizer leaves H entries of
    # that order. CD stops once no coordinate moves by tol_block; Newton
    # stops after a full step whose square, in the Euclidean and in the
    # Hessian norm, is below 1e-3 * tol_block. Tighten the inner stop along
    # with the outer tolerance.
    tol_block = min(TOL_BLOCK, tol / (100.0 * n))
    stats = CorrectorStats()
    updates_since_refresh = 0

    while True:
        stats.residual_norm = _residual_norm(p, U, inv, t)
        if stats.residual_norm <= tol:
            final = pd_factor(U)
            fresh_norm = _residual_norm(p, U, final.inverse, t)
            if fresh_norm <= tol:
                stats.residual_norm = fresh_norm
                return final, stats
            # Cached inverse was flattering the residual; resync and go on.
            # Row updates rewrite inv in place, so it must not be final's.
            inv = final.inverse.copy()
            continue
        if stats.sweeps >= cfg.max_sweeps:
            raise MaxSweepsExceeded(
                f"no convergence after {cfg.max_sweeps} sweeps "
                f"(residual {stats.residual_norm:.3e}, tol {tol:.3e})",
                best=pd_factor(U),
                residual=stats.residual_norm,
            )

        stats.sweeps += 1
        for i in range(n):
            V_inv = kernels.sub_inverse(inv, i)
            old_row = np.concatenate((U[i, :i], U[i, i + 1:]))
            u = old_row.copy()
            w_old = float(U[i, i])
            w_new, passes = solver(
                V_inv, u, w_old, np.concatenate((p.sigma[i, :i], p.sigma[i, i + 1:])),
                float(p.sigma[i, i]), p.rho, t, tol_block, MAX_INNER_PASSES, guard,
            )
            stats.inner_passes += passes

            if w_new != w_old or not np.array_equal(u, old_row):
                kernels.swm_update_inverse(inv, i, u, w_new, old_row, w_old)
                U[i, :i] = U[:i, i] = u[:i]
                U[i, i + 1:] = U[i + 1:, i] = u[i:]
                U[i, i] = w_new
                stats.row_updates += 1
                updates_since_refresh += 1
                if updates_since_refresh >= REFRESH_EVERY:
                    fresh = invert_pd(U)
                    drift = float(np.linalg.norm(inv - fresh))
                    stats.max_inverse_drift = max(stats.max_inverse_drift, drift)
                    inv = fresh
                    updates_since_refresh = 0
