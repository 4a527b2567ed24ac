"""The corrector that re-centers the barrier problem at fixed (rho, t).

:func:`corrector_run`, the one the path drivers call, is damped
primal-dual Newton on the central-path equations H = L - M - U^{-1} = 0 for
all of U at once. Each step hands the arrays (X, D, -H), with X = U^{-1}
and D = L~/s+ + M~/s-, to ``predictor.cg_solve``, which solves
X P X + D o P = -H by preconditioned CG. The dual multiplier estimates
L~, M~ are carried from step to step, in the manner of Li & Toh's inexact
interior-point method for sparse covariance selection. The work is BLAS-3,
with no Python loop over rows.

The paper's block coordinate-descent corrector, which the tests hold
:func:`corrector_run` to, is ``reference.block_cd_run``; it shares
:class:`CorrectorConfig` and :class:`CorrectorStats`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .barrier import (
    SIDE,
    Problem,
    barrier_objective,
    feasible,
    gap_bound,
    multipliers,
    residual,
    slacks,
    step_to_boundary,
)
from .exceptions import Infeasible, LineSearchFailure, MaxSweepsExceeded, NotPositiveDefinite
from .predictor import cg_solve
from .symmat import PDFactor, pd_factor
# perfbench/tracing.py wraps these names on corrector, so they stay here;
# the first import also loads the module whose backend name perfbench reads.
from .kernels import sub_inverse, swm_update_inverse  # noqa: F401
from .symmat import invert_pd  # noqa: F401

# Newton-CG corrector. CG stops at relative residual CG_REL. Primal and
# dual steps stop ``barrier.STEP_FRAC`` of the way to the boundary; the
# primal step is then halved until it meets the Armijo condition with
# slope ARMIJO, at most MAX_HALVINGS times. A run has stalled after
# STALL_STEPS full steps in a row with no new lowest residual. Dual
# multipliers are clipped to [t/(KAPPA s), KAPPA t/s], s the matching slack.
CG_REL = 0.1
ARMIJO = 1e-4
MAX_HALVINGS = 60
STALL_STEPS = 10
KAPPA = 1e10
# A decrease of f below F_RESOLUTION * |f| is rounding noise in f.
F_RESOLUTION = 16.0 * np.finfo(float).eps


@dataclass
class CorrectorConfig:
    """Stopping rule of a corrector run.

    ``tol_residual`` left as None takes the default of :meth:`residual_tol`.
    ``max_sweeps`` caps the Newton steps of :func:`corrector_run` and the
    sweeps of ``reference.block_cd_run``. Every other limit is a constant
    of the module that holds the run.
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
    Under ``reference.block_cd_run`` they count sweeps, row updates and
    row-kernel passes, and the largest drift found at an inverse refresh.
    """

    sweeps: int = 0
    row_updates: int = 0
    inner_passes: int = 0
    residual_norm: float = math.inf
    max_inverse_drift: float = 0.0


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
        H = residual(multipliers(t, slacks(p, factor.matrix)), factor.inverse)
    except Infeasible:
        return False
    if math.sqrt(np.vdot(H, H)) > tol:
        return False
    return duality_gap(p, factor.inverse) <= gap_bound(p.n, t)


def corrector_run(
    p: Problem,
    start: np.ndarray,
    t: float,
    cfg: CorrectorConfig | None = None,
) -> tuple[PDFactor, CorrectorStats]:
    """Re-center by damped primal-dual Newton-CG; returns the solution with
    its run statistics.

    ``start`` must pass ``barrier.feasible`` (Infeasible otherwise), its one
    test and symmetry check; that factorization is the run's first.

    A step solves X P X + D o P = -H by CG to relative residual ``CG_REL``,
    with X = U^{-1}, D = L~/s+ + M~/s- and H the residual at U. The dual
    estimates start from the inverse X of the start, at L~ = max(t/s+, X)
    and M~ = max(t/s-, -X), capped at KAPPA t/s: at the solution H = 0 makes
    the positive and negative parts of X the face multipliers. They move
    along the linearized complementarity conditions L~ s+ = t, M~ s- = t
    by their own fraction-to-boundary step, and are clipped to
    [t/(KAPPA s), KAPPA t/s].
    The primal step is cut to ``barrier.STEP_FRAC`` of the distance to the
    box boundary and halved until it is positive definite and meets the Armijo
    condition on the barrier objective f. A full step is also accepted when
    it is feasible and the decrement -<H, P> is below the float resolution
    of f, where the Armijo test compares rounding noise.

    Slack bookkeeping: each iterate comes with its slacks s = [s+, s-],
    stacked along axis 0 as the box faces are (``barrier.SIDE``), from the
    test that admitted it, ``barrier.feasible`` or the line search
    (``barrier.slacks``; the line search also takes the barrier objective
    from them). The step computes 1/s and the multipliers [L, M] = t/s
    (``barrier.multipliers``) from them once, and builds from these alone
    the residual H = L - M - X (``barrier.residual``), the stacked dual
    estimates [L~, M~] and their parts [L~/s+, M~/s-] of D, the dual
    direction [L, M] - [L~, M~] + ([L~, M~]/s) o SIDE o P, and both
    step-to-boundary ratios; each face formula is written once, over the
    stack. Inner products and norms are BLAS dots, and the dual estimates
    are updated in place.

    The run returns after a full step that leaves the residual, computed
    with a fresh inverse, at most ``cfg.residual_tol(n)`` and the duality
    gap tr(sigma X) + rho ||X||_1 - n at X = U^{-1}, the dual objective
    minus the primal one, at most 2 n^2 t; so a start that already meets
    both still takes one step. That step is kept on purpose: the test
    bounds the residual, not the distance to the center, and where
    U^{-1} is small a residual far below the tolerance can leave U well
    away from it (measured in ``path.run_online``).

    Raises MaxSweepsExceeded after ``cfg.max_sweeps`` steps with the current
    iterate, or, with the lowest-residual one, after ``STALL_STEPS`` full
    steps in a row that find no lower residual: rounding in the slacks near
    a face leaves a floor of about eps |U| |X|^2 / t that no tolerance below
    it gets past; the message then states that iterate's
    :func:`rounding_floor`. Raises LineSearchFailure when no step is
    acceptable.
    """
    cfg = cfg or CorrectorConfig()
    n = p.n
    tol = cfg.residual_tol(n)
    max_gap = gap_bound(n, t)
    factor, slack = feasible(p, start, "corrector start")

    f = barrier_objective(factor, t, slack)
    LM = multipliers(t, slack)
    dual = _clip(SIDE * factor.inverse, LM, KAPPA * LM)
    stats = CorrectorStats()
    full_step = False
    best, best_norm, stalled = factor, math.inf, 0

    while True:
        X = factor.inverse
        H = residual(LM, X)
        stats.residual_norm = math.sqrt(np.vdot(H, H))
        if full_step and stats.residual_norm <= tol and duality_gap(p, X) <= max_gap:
            return factor, stats
        if stats.residual_norm < best_norm:
            best, best_norm, stalled = factor, stats.residual_norm, 0
        else:
            stalled = stalled + 1 if full_step else 0
        if stalled >= STALL_STEPS:
            raise MaxSweepsExceeded(
                f"residual stalled at {best_norm:.3e} (tol {tol:.3e}, rounding floor "
                f"{rounding_floor(best, t):.3e}) after {stats.sweeps} Newton steps, "
                f"the last {STALL_STEPS} full",
                best=best, residual=best_norm,
            )
        if stats.sweeps >= cfg.max_sweeps:
            raise MaxSweepsExceeded(
                f"no convergence after {cfg.max_sweeps} Newton steps "
                f"(residual {stats.residual_norm:.3e}, tol {tol:.3e})",
                best=factor,
                residual=stats.residual_norm,
            )

        inv_slack = 1.0 / slack
        D_parts = dual * inv_slack
        cg = cg_solve(X, D_parts[0] + D_parts[1], -H, CG_REL)
        P = cg.direction
        stats.inner_passes += cg.iterations
        stats.sweeps += 1

        # A primal step a P moves each slack by -a SIDE o P. The parts of D
        # and the reciprocal slacks are not needed again: they take their
        # products with it in place.
        face_step = SIDE * P
        d_dual = LM - dual
        D_parts *= face_step
        d_dual += D_parts
        a_dual = step_to_boundary(-(d_dual / dual).min())
        inv_slack *= face_step
        a = step_to_boundary(inv_slack.max())
        decrement = -float(np.vdot(H, P))
        flat = decrement <= F_RESOLUTION * abs(f)
        for _ in range(MAX_HALVINGS):
            try:
                trial = pd_factor(factor.matrix + (P if a == 1.0 else a * P))
            except NotPositiveDefinite:
                a *= 0.5
                continue
            trial_slack = slacks(p, trial.matrix)
            f_trial = barrier_objective(trial, t, trial_slack)
            if f_trial <= f - ARMIJO * a * decrement or (a == 1.0 and flat):
                break
            a *= 0.5
        else:
            raise LineSearchFailure(
                f"no acceptable Newton step (residual {stats.residual_norm:.3e})"
            )
        full_step = a == 1.0
        factor, f, slack = trial, f_trial, trial_slack
        LM = multipliers(t, slack)
        if a_dual != 1.0:
            d_dual *= a_dual
        dual += d_dual
        _clip(dual, LM / KAPPA, KAPPA * LM, out=dual)


def rounding_floor(factor: PDFactor, t: float) -> float:
    """Estimate ||U| o X o X||_F eps / t of the residual's rounding floor at
    U = ``factor.matrix``, X = its inverse: the slacks (sigma +- rho) -+ U
    carry an absolute error of about eps |U|, which t/s turns into an
    error of about eps |U| X^2 / t in H wherever s is near t/|X|."""
    Y = np.abs(factor.matrix) * factor.inverse * factor.inverse
    return math.sqrt(np.vdot(Y, Y)) * np.finfo(float).eps / t


def _clip(a: np.ndarray, lo: np.ndarray, hi: np.ndarray, out: np.ndarray | None = None):
    """``np.clip(a, lo, hi, out=out)`` for lo <= hi, as two ufunc passes;
    np.clip with array bounds takes three times as long."""
    out = np.maximum(a, lo, out=out)
    return np.minimum(out, hi, out=out)
