"""Correctors that re-center the barrier problem at fixed (rho, t).

:func:`corrector_run`, the one the path drivers call, is damped
primal-dual Newton on the central-path equations H = L - M - U^{-1} = 0 for
all of U at once. Each step solves U^{-1} P U^{-1} + D o P = -H by
preconditioned CG (``predictor.cg_solve``), with D = L~/s+ + M~/s- built
from dual multiplier estimates L~, M~ that the run carries from step to
step, in the manner of Li & Toh's inexact interior-point method for sparse
covariance selection. The work is BLAS-3, with no Python loop over rows.

:func:`block_cd_run` is the paper's block coordinate-descent corrector: each
sweep visits every row/column of U in cyclic order, solves the row's block
subproblem with the damped block Newton kernel (``kernels.row_solver``),
and maintains the cached inverse through rank-2 updates. No production
path calls it; the tests hold :func:`corrector_run` to it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .barrier import (
    Problem,
    barrier_objective,
    feasible,
    gap_bound,
    multipliers,
    slacks,
    step_to_boundary,
)
from .exceptions import (
    Infeasible,
    LineSearchFailure,
    MaxSweepsExceeded,
    NoFeasibleRoot,
    NotPositiveDefinite,
    NumericalBreakdown,
)
from .predictor import PredictorSystem, cg_solve
from .symmat import PDFactor, invert_pd, pd_factor, sub_inverse, swm_update_inverse, symmetrize

# Newton-CG corrector. CG stops at relative residual CG_REL. Primal and
# dual steps stop ``barrier.STEP_FRAC`` of the way to the boundary; the
# primal step is then halved until it meets the Armijo condition with
# slope ARMIJO, at most MAX_HALVINGS times. Dual multipliers are clipped
# to [t/(KAPPA s), KAPPA t/s], s the matching slack.
CG_REL = 0.1
ARMIJO = 1e-4
MAX_HALVINGS = 60
KAPPA = 1e10
# A decrease of f below F_RESOLUTION * |f| is rounding noise in f.
F_RESOLUTION = 16.0 * np.finfo(float).eps
# The path drivers solve a grid value over the components of the graph
# |sigma_ij| >= rho when the residual that a block-diagonal U leaves across
# components is at most CROSS_LIMIT times the residual tolerance
# (``path.recenter``).
CROSS_LIMIT = 0.5

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
class CorrectorConfig:
    """Stopping rule of a corrector run.

    ``tol_residual`` left as None takes the default of :meth:`residual_tol`.
    ``max_sweeps`` caps the Newton steps of :func:`corrector_run` and the
    sweeps of :func:`block_cd_run`. Every other limit is a module constant
    above.
    """

    tol_residual: float | None = None
    max_sweeps: int = 500

    def residual_tol(self, n: int) -> float:
        """Stopping tolerance on the residual norm: ``tol_residual``, or
        1e-6 per dimension of the n x n problem when it is None."""
        return self.tol_residual if self.tol_residual is not None else 1e-6 * n


@dataclass
class CorrectorStats:
    """Run diagnostics: work counters and inverse-maintenance drift.

    Under :func:`corrector_run`, ``sweeps`` counts Newton steps and
    ``inner_passes`` CG iterations; it makes no row updates and keeps no
    cached inverse, so ``row_updates`` and ``max_inverse_drift`` stay 0.
    Under :func:`block_cd_run` they count sweeps, row updates and row-kernel
    passes, and the largest drift found at an inverse refresh.
    """

    sweeps: int = 0
    row_updates: int = 0
    inner_passes: int = 0
    residual_norm: float = math.inf
    max_inverse_drift: float = 0.0


def _residual_norm(p: Problem, U: np.ndarray, inv: np.ndarray, t: float) -> float:
    state = multipliers(p, U, t)
    return float(np.linalg.norm(state.L - state.M - inv))


def duality_gap(p: Problem, X: np.ndarray) -> float:
    """tr(sigma X) + rho ||X||_1 - n: at X = U^{-1}, the dual objective
    minus the primal one."""
    return float(np.vdot(p.sigma, X) + p.rho * np.abs(X).sum() - p.n)


def centered(p: Problem, factor: PDFactor, t: float, tol: float) -> bool:
    """The return test of :func:`corrector_run` without its full-step
    condition: U = ``factor.matrix`` is strictly inside the box, the
    residual with X = ``factor.inverse`` is at most ``tol``, and the
    duality gap at X is at most 2 n^2 t."""
    try:
        state = multipliers(p, factor.matrix, t)
    except Infeasible:
        return False
    H = state.L - state.M
    H -= factor.inverse
    if math.sqrt(np.vdot(H, H)) > tol:
        return False
    return duality_gap(p, factor.inverse) <= gap_bound(p.n, t)


def corrector_run(
    p: Problem,
    U0: np.ndarray | PDFactor,
    t: float,
    cfg: CorrectorConfig | None = None,
    slack: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[PDFactor, CorrectorStats]:
    """Re-center by damped primal-dual Newton-CG; returns the solution with
    its run statistics.

    ``U0`` is the start, or its factorization when the caller already has
    one: a PDFactor start is not factored again. ``slack`` is the start's
    ``barrier.slacks`` when the caller already has them (from
    ``barrier.feasible``); otherwise its box is tested here. An array start
    must pass the Cholesky pivot test.

    A step solves U^{-1} P U^{-1} + D o P = -H by CG to relative residual
    ``CG_REL``, with D = L~/s+ + M~/s- and H the residual at U. The dual
    estimates start from X = U0^{-1}, at L~ = max(t/s+, X) and
    M~ = max(t/s-, -X), capped at KAPPA t/s: at the solution H = 0 makes
    the positive and negative parts of X the face multipliers. They move
    along the linearized complementarity conditions L~ s+ = t, M~ s- = t
    by their own fraction-to-boundary step, and are clipped to
    [t/(KAPPA s), KAPPA t/s].
    The primal step is cut to ``barrier.STEP_FRAC`` of the distance to the
    box boundary and halved until it is positive definite and meets the Armijo
    condition on the barrier objective f. A full step is also accepted when
    it is feasible and the decrement -<H, P> is below the float resolution
    of f, where the Armijo test compares rounding noise.

    Slack bookkeeping: each iterate comes with its slacks s+/- from the
    test that admitted it, the start's box test or the line search
    (``barrier.slacks``; the line search also takes the barrier objective
    from them). The step computes 1/s+/- and the multipliers
    L, M = t/s+/- (``barrier.multipliers``) from them once, and builds from
    these alone the residual H = L - M - X, the two parts L~/s+ and M~/s-
    of D, the dual directions dL = L - L~ + (L~/s+) o P and
    dM = M - M~ - (M~/s-) o P, and both step-to-boundary ratios. Inner
    products and norms are BLAS dots, and the dual estimates are updated
    in place.

    The run returns after a full step that leaves the residual, computed
    with a fresh inverse, at most ``cfg.residual_tol(n)`` and the duality
    gap tr(sigma X) + rho ||X||_1 - n at X = U^{-1}, the dual objective
    minus the primal one, at most 2 n^2 t; so a start that already meets
    both still takes one step. That step is kept on purpose: the test
    bounds the residual, not the distance to the center, and where
    U^{-1} is small a residual far below the tolerance can leave U well
    away from it. Online tangent starts at n = 10 passed the test with
    median residuals of 1.6e-11 to 2.8e-9 against a tolerance of 1e-8,
    yet returning them unstepped left the end of a 12-update stream
    0.7-1.65e-6 from a from-scratch solve, against 1e-12 to 7e-12 with
    the step (``path.run_online``). Raises MaxSweepsExceeded, carrying the
    current iterate, after ``cfg.max_sweeps`` steps, and LineSearchFailure
    when no step length is acceptable.
    """
    cfg = cfg or CorrectorConfig()
    n = p.n
    tol = cfg.residual_tol(n)
    max_gap = gap_bound(n, t)
    factor = U0 if isinstance(U0, PDFactor) else None
    U0 = factor.matrix if factor is not None else symmetrize(np.asarray(U0, dtype=float))
    if U0.shape != p.sigma.shape:
        raise Infeasible("corrector starting point has the wrong shape")
    if slack is None:
        slack = slacks(p, U0)
    if factor is None:
        try:
            factor = pd_factor(U0)
        except NotPositiveDefinite as exc:
            raise Infeasible("corrector starting point is not positive definite") from exc

    f = barrier_objective(p, factor, t, slack)
    state = multipliers(p, U0, t, slack)
    L_dual = _clip(factor.inverse, state.L, KAPPA * state.L)
    M_dual = _clip(-factor.inverse, state.M, KAPPA * state.M)
    stats = CorrectorStats()
    full_step = False

    while True:
        X = factor.inverse
        H = state.L - state.M
        H -= X
        stats.residual_norm = math.sqrt(np.vdot(H, H))
        if full_step and stats.residual_norm <= tol and duality_gap(p, X) <= max_gap:
            return factor, stats
        if stats.sweeps >= cfg.max_sweeps:
            raise MaxSweepsExceeded(
                f"no convergence after {cfg.max_sweeps} Newton steps "
                f"(residual {stats.residual_norm:.3e}, tol {tol:.3e})",
                best=factor,
                residual=stats.residual_norm,
            )

        inv_plus, inv_minus = 1.0 / slack[0], 1.0 / slack[1]
        D_plus = L_dual * inv_plus
        D_minus = M_dual * inv_minus
        cg = cg_solve(PredictorSystem(U_inv=X, D=D_plus + D_minus, rhs=-H), CG_REL)
        P = cg.direction
        stats.inner_passes += cg.iterations
        stats.sweeps += 1

        # The parts of D and the reciprocal slacks are not needed again:
        # they take their products with P in place.
        dL = state.L - L_dual
        D_plus *= P
        dL += D_plus
        dM = state.M - M_dual
        D_minus *= P
        dM -= D_minus
        a_dual = step_to_boundary(-min((dL / L_dual).min(), (dM / M_dual).min()))
        inv_plus *= P
        inv_minus *= P
        a = step_to_boundary(max(inv_plus.max(), -inv_minus.min()))
        decrement = -float(np.vdot(H, P))
        flat = decrement <= F_RESOLUTION * abs(f)
        for _ in range(MAX_HALVINGS):
            try:
                trial = pd_factor(factor.matrix + a * P)
            except NotPositiveDefinite:
                a *= 0.5
                continue
            trial_slack = slacks(p, trial.matrix)
            f_trial = barrier_objective(p, trial, t, trial_slack)
            if f_trial <= f - ARMIJO * a * decrement or (a == 1.0 and flat):
                break
            a *= 0.5
        else:
            raise LineSearchFailure(
                f"no acceptable Newton step (residual {stats.residual_norm:.3e})"
            )
        full_step = a == 1.0
        factor, f, slack = trial, f_trial, trial_slack
        state = multipliers(p, factor.matrix, t, slack)
        dL *= a_dual
        L_dual += dL
        _clip(L_dual, state.L / KAPPA, KAPPA * state.L, out=L_dual)
        dM *= a_dual
        M_dual += dM
        _clip(M_dual, state.M / KAPPA, KAPPA * state.M, out=M_dual)


def _clip(a: np.ndarray, lo: np.ndarray, hi: np.ndarray, out: np.ndarray | None = None):
    """``np.clip(a, lo, hi, out=out)`` for lo <= hi, as two ufunc passes;
    np.clip with array bounds takes three times as long."""
    out = np.maximum(a, lo, out=out)
    return np.minimum(out, hi, out=out)


def block_cd_run(
    p: Problem,
    U0: np.ndarray,
    t: float,
    cfg: CorrectorConfig | None = None,
) -> tuple[PDFactor, CorrectorStats]:
    """Re-center by block coordinate descent over rows/columns; returns the
    solution with its run statistics.

    The run returns once the residual, computed with a fresh inverse, is
    at most ``cfg.residual_tol(n)``.
    """
    cfg = cfg or CorrectorConfig()
    n = p.n
    tol = cfg.residual_tol(n)
    U0 = np.asarray(U0, dtype=float)
    if not feasible(p, U0):
        raise Infeasible("corrector starting point is not strictly feasible")

    U = symmetrize(U0)
    inv = invert_pd(U)
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
            V_inv = sub_inverse(inv, i)
            old_row = np.concatenate((U[i, :i], U[i, i + 1:]))
            u = old_row.copy()
            w_old = float(U[i, i])
            w_new, passes, status = solver(
                V_inv, u, w_old, np.concatenate((p.sigma[i, :i], p.sigma[i, i + 1:])),
                float(p.sigma[i, i]), p.rho, t, tol_block, MAX_INNER_PASSES, guard,
            )
            stats.inner_passes += passes
            if status == kernels.STATUS_NO_DIAG_ROOT:
                raise NoFeasibleRoot(f"diagonal solve failed on row {i}")
            if status == kernels.STATUS_BAD_COEFFS:
                raise NumericalBreakdown(f"row kernel broke down on row {i}")
            if status == kernels.STATUS_INFEASIBLE:
                raise Infeasible(f"row {i} left the feasible region")

            if w_new != w_old or not np.array_equal(u, old_row):
                swm_update_inverse(inv, i, u, w_new, old_row, w_old)
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
