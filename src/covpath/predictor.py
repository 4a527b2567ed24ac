"""Tangent direction along the path via conjugate gradient.

The path tangent dU/drho solves the linear system J vec(dU) = -vec(dH/drho)
with J = U^{-1} (x) U^{-1} + diag(vec D). The Kronecker product is never
formed: the operator acts on symmetric matrices directly as
U^{-1} P U^{-1} + D o P, one O(n^3) multiplication per CG iteration.
"""

from dataclasses import dataclass

import numpy as np

from .barrier import Problem, feasible, multipliers
from .exceptions import StepCollapse
from .symmat import PDFactor, symmetrize


@dataclass(frozen=True)
class PredictorSystem:
    """Implicit operator U^{-1} P U^{-1} + D o P with its right-hand side.

    D and rhs come from differentiating the multiplier maps:
    D = (L^2 + M^2)/t elementwise and rhs = -dH/drho = (L^2 - M^2)/t.
    """

    U_inv: np.ndarray
    D: np.ndarray
    rhs: np.ndarray


@dataclass
class CGConfig:
    """Stopping rule: residual drop by ``rel_drop`` or ``max_iters`` (n^2)."""

    rel_drop: float = 1e-2
    max_iters: int | None = None


@dataclass
class CGResult:
    direction: np.ndarray
    iterations: int
    converged: bool
    rel_residual: float


def build_system(p: Problem, U: PDFactor, t: float) -> PredictorSystem:
    """Assemble the tangent system at a (near-)central iterate."""
    state = multipliers(p, U.matrix, t)
    D = (state.L**2 + state.M**2) / t
    rhs = (state.L**2 - state.M**2) / t
    return PredictorSystem(U_inv=U.inverse, D=D, rhs=rhs)


def matvec(sys: PredictorSystem, P: np.ndarray) -> np.ndarray:
    """Apply the system operator to a symmetric matrix."""
    return symmetrize(sys.U_inv @ P @ sys.U_inv) + sys.D * P


def cg_solve(sys: PredictorSystem, cfg: CGConfig | None = None) -> CGResult:
    """Conjugate gradient on symmetric matrices under the Frobenius product."""
    cfg = cfg or CGConfig()
    n = sys.rhs.shape[0]
    max_iters = cfg.max_iters if cfg.max_iters is not None else n * n

    x = np.zeros_like(sys.rhs)
    r = sys.rhs.copy()
    r0_norm = float(np.linalg.norm(r))
    if r0_norm == 0.0:
        return CGResult(direction=x, iterations=0, converged=True, rel_residual=0.0)
    target = cfg.rel_drop * r0_norm

    p_dir = r.copy()
    rs = float(np.sum(r * r))
    iterations = 0
    while iterations < max_iters:
        Ap = matvec(sys, p_dir)
        denom = float(np.sum(p_dir * Ap))
        if denom <= 0.0:
            break
        step = rs / denom
        x = x + step * p_dir
        r = r - step * Ap
        iterations += 1
        r_norm = float(np.linalg.norm(r))
        if r_norm <= target:
            return CGResult(
                direction=symmetrize(x), iterations=iterations,
                converged=True, rel_residual=r_norm / r0_norm,
            )
        rs_new = float(np.sum(r * r))
        p_dir = r + (rs_new / rs) * p_dir
        rs = rs_new
    return CGResult(
        direction=symmetrize(x), iterations=iterations,
        converged=False, rel_residual=float(np.linalg.norm(r)) / r0_norm,
    )


def predictor_step_detail(
    p: Problem, U: PDFactor, t: float, h: float, cfg: CGConfig | None = None
) -> tuple[np.ndarray, float, CGResult]:
    """Tangent step with feasibility backtracking.

    Returns (U_new, h_used, cg_result), where cg_result is the CG solve of
    the tangent system at ``U``. The step is halved (direction reused,
    target penalty rho + h_used moving with it) until the result is
    strictly feasible, at most 30 times; StepCollapse is raised beyond that.
    """
    if h == 0.0:
        return U.matrix.copy(), 0.0, CGResult(
            direction=np.zeros_like(U.matrix), iterations=0, converged=True, rel_residual=0.0
        )
    result = cg_solve(build_system(p, U, t), cfg)
    h_used = h
    for _ in range(31):
        rho_new = p.rho + h_used
        if rho_new > 0.0:
            U_try = symmetrize(U.matrix + h_used * result.direction)
            if feasible(Problem(sigma=p.sigma, rho=rho_new), U_try):
                return U_try, h_used, result
        h_used *= 0.5
    raise StepCollapse("predictor step infeasible even after 30 halvings")
