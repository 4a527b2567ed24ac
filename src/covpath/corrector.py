"""Block coordinate-descent corrector for the barrier problem at fixed (rho, t).

Each outer sweep visits rows/columns of U (full cyclic order by default, or
the top fraction ranked by the diagonal improvement score), solves the
row's block subproblem with the selected row kernel (closed-form coordinate
descent under numba, damped block Newton under numpy; see ``kernels``), and
maintains the cached inverse through rank-2 updates. Convergence is
declared on the Frobenius norm of the central-path residual
H = L - M - U^{-1}.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .barrier import Problem, feasible, multipliers
from .exceptions import (
    Infeasible,
    MaxSweepsExceeded,
    NoFeasibleRoot,
    NumericalBreakdown,
)
from .symmat import PDFactor, invert_pd, pd_factor, sub_inverse, swm_update_inverse, symmetrize

# Row-kernel limits. A kernel call stops at block tolerance TOL_BLOCK
# (tightened in corrector_run along with the outer tolerance) or after
# MAX_INNER_PASSES passes: coordinate-descent passes under the numba
# backend, Newton iterations under the numpy backend. Closed-form moves
# stay GUARD_FRAC * rho inside the faces of the box.
TOL_BLOCK = 1e-9
MAX_INNER_PASSES = 20
GUARD_FRAC = 1e-12
# Row updates between fresh inversions; each compares the rank-2-updated
# inverse against the fresh one, reports the drift and replaces it.
REFRESH_EVERY = 50


@dataclass(frozen=True)
class BlockPartition:
    """Row/column working view of (U, sigma) for one block subproblem.

    ``V_inv`` is the inverse of U with row/column ``i`` deleted; ``u`` and
    ``w`` are the off-diagonal and diagonal entries of row ``i`` of U, and
    ``b``, ``c`` the matching entries of sigma.
    """

    V_inv: np.ndarray
    u: np.ndarray
    w: float
    b: np.ndarray
    c: float
    i: int


@dataclass(frozen=True)
class CoordCoefficients:
    """Quadratic alpha x^2 + beta x + gamma tracing w - u^T V^{-1} u in x = u_j."""

    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class CubicCoefficients:
    """Coefficients p1 x^3 + p2 x^2 + p3 x + p4 of the coordinate stationarity cubic."""

    p1: float
    p2: float
    p3: float
    p4: float


@dataclass(frozen=True)
class BlockDualValue:
    """Dual multipliers for one block with the resulting duality gap."""

    alpha1: float
    alpha2: float
    alpha3: float
    beta: np.ndarray
    eta: np.ndarray
    primal_value: float
    dual_value: float
    gap: float


@dataclass
class CorrectorConfig:
    """Knobs for the corrector loop.

    ``tol_residual`` left as None takes the default of :meth:`residual_tol`.
    A ``sweep_fraction`` below 1 restricts each sweep to the rows with the
    largest diagonal improvement scores (faster, less stable). ``backend``
    names the row kernel (``"numba"`` or ``"numpy"``; None takes
    ``kernels.DEFAULT_BACKEND``). The row-kernel limits and the inverse
    refresh period are the module constants above.
    """

    tol_residual: float | None = None
    max_sweeps: int = 500
    sweep_fraction: float = 1.0
    backend: str | None = None

    def residual_tol(self, n: int) -> float:
        """Stopping tolerance on the residual norm: ``tol_residual``, or
        1e-6 per dimension of the n x n problem when it is None."""
        return self.tol_residual if self.tol_residual is not None else 1e-6 * n


@dataclass
class CorrectorStats:
    """Run diagnostics: work counters and inverse-maintenance drift."""

    sweeps: int = 0
    row_updates: int = 0
    inner_passes: int = 0
    residual_norm: float = math.inf
    max_inverse_drift: float = 0.0


def make_partition(p: Problem, U: PDFactor, i: int) -> BlockPartition:
    """Extract the block view of row/column ``i`` from a factored iterate."""
    n = p.n
    mask = np.arange(n) != i
    return BlockPartition(
        V_inv=sub_inverse(U.inverse, i),
        u=U.matrix[i, mask].copy(),
        w=float(U.matrix[i, i]),
        b=p.sigma[i, mask].copy(),
        c=float(p.sigma[i, i]),
        i=i,
    )


def block_objective(bp: BlockPartition, p: Problem, t: float) -> float:
    """Barrier objective restricted to row/column ``i`` (constants dropped)."""
    rho = p.rho
    schur = bp.w - bp.u @ bp.V_inv @ bp.u
    slack_plus = rho + bp.c - bp.w
    slack_minus = rho - bp.c + bp.w
    off_plus = rho + bp.b - bp.u
    off_minus = rho - bp.b + bp.u
    if schur <= 0.0 or slack_plus <= 0.0 or slack_minus <= 0.0:
        raise Infeasible("block diagonal entry out of bounds")
    if np.any(off_plus <= 0.0) or np.any(off_minus <= 0.0):
        raise Infeasible("block off-diagonal entry out of bounds")
    return float(
        -math.log(schur)
        - t * (math.log(slack_plus) + math.log(slack_minus))
        - 2.0 * t * (np.sum(np.log(off_plus)) + np.sum(np.log(off_minus)))
    )


def coord_coefficients(bp: BlockPartition, j: int) -> CoordCoefficients:
    """Quadratic coefficients for coordinate ``j`` of the block's off-diagonal."""
    q = bp.V_inv @ bp.u
    schur = bp.w - float(bp.u @ q)
    return CoordCoefficients(
        *kernels._coord_quadratic(float(bp.V_inv[j, j]), float(q[j]), float(bp.u[j]), schur)
    )


def cubic_coefficients(cc: CoordCoefficients, b_j: float, rho: float, t: float) -> CubicCoefficients:
    """Stationarity cubic of the 1-D coordinate objective (see ``kernels``)."""
    return CubicCoefficients(
        *kernels._cubic_coefficients(cc.alpha, cc.beta, cc.gamma, b_j, rho, t)
    )


def solve_coordinate(
    cc: CoordCoefficients, b_j: float, rho: float, t: float, x_current: float
) -> float:
    """Best feasible root of the coordinate cubic (falls back to x_current)."""
    roots = np.empty(3)
    x_new, status = kernels._solve_coordinate(
        cc.alpha, cc.beta, cc.gamma, b_j, rho, t, x_current, GUARD_FRAC * rho, roots
    )
    if status == kernels.STATUS_BAD_COEFFS:
        raise NumericalBreakdown("cubic solver received non-finite coefficients")
    return float(x_new)


def solve_diagonal(s: float, c: float, rho: float, t: float) -> float:
    """Feasible root of the diagonal stationarity quadratic."""
    # Sentinel start with +inf objective so any feasible root is accepted.
    w_sentinel = c - rho - 1.0
    w_new, status = kernels._solve_diagonal(s, c, rho, t, w_sentinel, GUARD_FRAC * rho)
    if status == kernels.STATUS_NO_DIAG_ROOT:
        raise NoFeasibleRoot("no quadratic root satisfies w > s and |w - c| < rho")
    return float(w_new)


def row_scores(p: Problem, U: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Exact dual-objective decrease available from each diagonal-only update.

    ``inv`` is the inverse of ``U``; the decrease on row i is log(1 + score_i).
    """
    return (p.rho + np.diagonal(p.sigma) - np.diagonal(U)) * np.diagonal(inv)


def block_dual_point(bp: BlockPartition, p: Problem, t: float) -> BlockDualValue:
    """Dual multipliers built from the current block point, with duality gap.

    The multipliers come from the stationarity map of the slack variables
    (alpha2, alpha3 for the diagonal faces, beta, eta for the off-diagonal
    faces, alpha1 = alpha2 - alpha3 for the Schur bound). The dual value
    includes the quadratic term from minimizing the Lagrangian over the
    off-diagonal row, -(beta-eta)^T V (beta-eta) / (4 alpha1), without
    which weak duality fails away from the optimum.
    """
    rho = p.rho
    m = bp.u.shape[0]
    n = m + 1
    primal = block_objective(bp, p, t)
    alpha2 = t / (rho + bp.c - bp.w)
    alpha3 = t / (rho - bp.c + bp.w)
    alpha1 = alpha2 - alpha3
    beta = 2.0 * t / (rho + bp.b - bp.u)
    eta = 2.0 * t / (rho - bp.b + bp.u)
    if alpha1 <= 0.0:
        return BlockDualValue(
            alpha1=alpha1, alpha2=alpha2, alpha3=alpha3, beta=beta, eta=eta,
            primal_value=primal, dual_value=-math.inf, gap=math.inf,
        )
    d = beta - eta
    if m:
        vterm = float(d @ np.linalg.solve(bp.V_inv, d)) / (4.0 * alpha1)
    else:
        vterm = 0.0
    dual = (
        1.0
        + 2.0 * t * (2 * n - 1)
        + math.log(alpha1)
        - alpha2 * (rho + bp.c)
        - alpha3 * (rho - bp.c)
        - float(np.sum(beta * (rho + bp.b) + eta * (rho - bp.b)))
        + t * math.log(alpha2 / t)
        + t * math.log(alpha3 / t)
        + 2.0 * t * float(np.sum(np.log(beta / (2.0 * t)) + np.log(eta / (2.0 * t))))
        - vterm
    )
    return BlockDualValue(
        alpha1=alpha1, alpha2=alpha2, alpha3=alpha3, beta=beta, eta=eta,
        primal_value=primal, dual_value=dual, gap=primal - dual,
    )


def _residual_norm(p: Problem, U: np.ndarray, inv: np.ndarray, t: float) -> float:
    state = multipliers(p, U, t)
    return float(np.linalg.norm(state.L - state.M - inv))


def _sweep_order(p: Problem, U: np.ndarray, inv: np.ndarray, fraction: float) -> np.ndarray:
    n = p.n
    if fraction >= 1.0:
        return np.arange(n)
    scores = row_scores(p, U, inv)
    count = max(1, int(math.ceil(fraction * n)))
    return np.argsort(-scores, kind="stable")[:count]


def corrector_run(
    p: Problem, U0: np.ndarray, t: float, cfg: CorrectorConfig | None = None
) -> tuple[PDFactor, CorrectorStats]:
    """Run the corrector and return the solution with its run statistics."""
    cfg = cfg or CorrectorConfig()
    n = p.n
    tol = cfg.residual_tol(n)
    U0 = np.asarray(U0, dtype=float)
    if not feasible(p, U0):
        raise Infeasible("corrector starting point is not strictly feasible")

    U = symmetrize(U0)
    inv = invert_pd(U)
    solver = kernels.row_solver(cfg.backend)
    guard = GUARD_FRAC * p.rho
    # A block left about tol_block from its minimizer leaves H entries of
    # that order. CD stops once no coordinate moves by tol_block; Newton
    # stops after a full step whose square, in the Euclidean and in the
    # Hessian norm, is below 1e-3 * tol_block. Tighten the inner stop along
    # with the outer tolerance.
    tol_block = min(TOL_BLOCK, tol / (100.0 * n))
    stats = CorrectorStats()
    mask_rows = [np.arange(n) != i for i in range(n)]
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
            inv = final.inverse
            continue
        if stats.sweeps >= cfg.max_sweeps:
            raise MaxSweepsExceeded(
                f"no convergence after {cfg.max_sweeps} sweeps "
                f"(residual {stats.residual_norm:.3e}, tol {tol:.3e})",
                best=pd_factor(U),
                residual=stats.residual_norm,
            )

        stats.sweeps += 1
        for i in _sweep_order(p, U, inv, cfg.sweep_fraction):
            mask = mask_rows[i]
            V_inv = sub_inverse(inv, i)
            u = U[i, mask].copy()
            w_old = float(U[i, i])
            w_new, passes, status = solver(
                V_inv, u, w_old, p.sigma[i, mask], float(p.sigma[i, i]),
                p.rho, t, tol_block, MAX_INNER_PASSES, guard,
            )
            stats.inner_passes += passes
            if status == kernels.STATUS_NO_DIAG_ROOT:
                raise NoFeasibleRoot(f"diagonal solve failed on row {i}")
            if status == kernels.STATUS_BAD_COEFFS:
                raise NumericalBreakdown(f"row kernel broke down on row {i}")
            if status == kernels.STATUS_INFEASIBLE:
                raise Infeasible(f"row {i} left the feasible region")

            old_row = U[i, mask]
            if w_new != w_old or not np.array_equal(u, old_row):
                inv = swm_update_inverse(inv, i, u, w_new, old_row, w_old)
                U[i, mask] = u
                U[mask, i] = u
                U[i, i] = w_new
                stats.row_updates += 1
                updates_since_refresh += 1
                if updates_since_refresh >= REFRESH_EVERY:
                    fresh = invert_pd(U)
                    drift = float(np.linalg.norm(inv - fresh))
                    stats.max_inverse_drift = max(stats.max_inverse_drift, drift)
                    inv = fresh
                    updates_since_refresh = 0
