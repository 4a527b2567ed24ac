"""The corrector that re-centers the barrier problem at fixed (rho, t).

:func:`corrector_run`, the one the path drivers call, is damped
primal-dual Newton on the central-path equations H = L - M - U^{-1} = 0 for
all of U at once. Each step solves U^{-1} P U^{-1} + D o P = -H by
preconditioned CG (``predictor.cg_solve``), with D = L~/s+ + M~/s- built
from dual multiplier estimates L~, M~ that the run carries from step to
step, in the manner of Li & Toh's inexact interior-point method for sparse
covariance selection. The work is BLAS-3, with no Python loop over rows.

The paper's block coordinate-descent corrector, which the tests hold
:func:`corrector_run` to, is ``reference.block_cd_run``; it shares
:class:`CorrectorConfig` and :class:`CorrectorStats`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .barrier import (
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
from .predictor import PredictorSystem, cg_solve
from .symmat import PDFactor, pd_factor
# perfbench/tracing.py wraps these names on corrector, so they stay here;
# the first import also loads the module whose backend name perfbench reads.
from .kernels import sub_inverse, swm_update_inverse  # noqa: F401
from .symmat import invert_pd  # noqa: F401

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
        H = residual(multipliers(p, factor.matrix, t), factor.inverse)
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

    A step solves U^{-1} P U^{-1} + D o P = -H by CG to relative residual
    ``CG_REL``, with D = L~/s+ + M~/s- and H the residual at U. The dual
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

    Slack bookkeeping: each iterate comes with its slacks s+/- from the
    test that admitted it, ``barrier.feasible`` or the line search
    (``barrier.slacks``; the line search also takes the barrier objective
    from them). The step computes 1/s+/- and the multipliers
    L, M = t/s+/- (``barrier.multipliers``) from them once, and builds from
    these alone the residual H = L - M - X (``barrier.residual``), the two
    parts L~/s+ and M~/s- of D, the dual directions
    dL = L - L~ + (L~/s+) o P and dM = M - M~ - (M~/s-) o P, and both
    step-to-boundary ratios. Inner products and norms are BLAS dots, and
    the dual estimates are updated in place.

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
    factor, slack = feasible(p, start, "corrector start")

    f = barrier_objective(p, factor, t, slack)
    state = multipliers(p, factor.matrix, t, slack)
    L_dual = _clip(factor.inverse, state.L, KAPPA * state.L)
    M_dual = _clip(-factor.inverse, state.M, KAPPA * state.M)
    stats = CorrectorStats()
    full_step = False

    while True:
        X = factor.inverse
        H = residual(state, X)
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
