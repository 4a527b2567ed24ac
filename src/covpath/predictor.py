"""The structured system U^{-1} P U^{-1} + D o P = rhs and its CG solver.

The path tangent dU/drho solves J vec(dU) = -vec(dH/drho) with
J = U^{-1} (x) U^{-1} + diag(vec D). The Kronecker product is never
formed: the operator acts on symmetric matrices directly as
U^{-1} P U^{-1} + D o P, one O(n^3) multiplication per CG iteration.
The same operator, with a primal-dual D, is the Hessian of the corrector's
Newton step (see ``corrector``), and the online mode solves it for the
tangent in mu, so :func:`cg_solve` is the one linear solver of the program.
"""

import math
from dataclasses import dataclass

import numpy as np

from .barrier import Problem, feasible, multipliers
from .exceptions import StepCollapse
from .symmat import PDFactor, symmetrize

# Relative residual at which CG stops for the path tangent and the online
# tangent in mu; the corrector passes its own (``corrector.CG_REL``).
TANGENT_REL = 1e-2


@dataclass(frozen=True)
class PredictorSystem:
    """Implicit operator U^{-1} P U^{-1} + D o P with its right-hand side.

    For the path tangent (:func:`build_system`), D and rhs come from
    differentiating the multiplier maps: D = (L^2 + M^2)/t elementwise and
    rhs = -dH/drho = (L^2 - M^2)/t. The corrector builds its own D and rhs.
    """

    U_inv: np.ndarray
    D: np.ndarray
    rhs: np.ndarray


@dataclass
class CGResult:
    direction: np.ndarray
    iterations: int
    converged: bool
    rel_residual: float


def build_system(
    p: Problem, U: PDFactor, t: float, slack: tuple[np.ndarray, np.ndarray] | None = None
) -> PredictorSystem:
    """Assemble the tangent system at a (near-)central iterate; ``slack``
    is ``barrier.slacks(p, U.matrix)`` when the caller already has it."""
    state = multipliers(p, U.matrix, t, slack)
    D = (state.L**2 + state.M**2) / t
    rhs = (state.L**2 - state.M**2) / t
    return PredictorSystem(U_inv=U.inverse, D=D, rhs=rhs)


def matvec(sys: PredictorSystem, P: np.ndarray) -> np.ndarray:
    """Apply the system operator to a symmetric matrix."""
    out = sys.U_inv @ P @ sys.U_inv
    out += out.T  # symmetric part, as in symmat.symmetrize
    out *= 0.5
    out += sys.D * P
    return out


def operator_diagonal(sys: PredictorSystem) -> np.ndarray:
    """Diagonal of the system operator on symmetric matrices, as a matrix.

    In the orthonormal basis E_ii, (E_ij + E_ji)/sqrt(2) of the symmetric
    matrices, with X = U^{-1}, entry (i, j) is X_ii X_jj + X_ij^2 + D_ij
    off the diagonal and X_ii^2 + D_ii on it.
    """
    X = sys.U_inv
    x = X.diagonal()
    diag = x[:, None] * x
    diag += X * X
    diag += sys.D
    diag.reshape(-1)[:: x.shape[0] + 1] -= x * x
    return diag


def cg_solve(sys: PredictorSystem, rel_drop: float = TANGENT_REL) -> CGResult:
    """Jacobi-preconditioned conjugate gradient on symmetric matrices under
    the Frobenius product; the preconditioner is :func:`operator_diagonal`.
    Stops once the unpreconditioned residual has dropped by ``rel_drop``,
    or unconverged after n^2 iterations. The iterate, residual and search
    direction are updated in place; ``sys`` is left as it is."""
    n = sys.rhs.shape[0]
    x = np.zeros_like(sys.rhs)
    r = sys.rhs.copy()
    r0_norm = math.sqrt(np.vdot(r, r))
    if r0_norm == 0.0:
        return CGResult(direction=x, iterations=0, converged=True, rel_residual=0.0)
    target = rel_drop * r0_norm

    inv_diag = operator_diagonal(sys)
    np.reciprocal(inv_diag, out=inv_diag)
    z = r * inv_diag
    p_dir = z.copy()
    rz = float(np.vdot(r, z))
    iterations = 0
    r_norm = r0_norm
    converged = False
    while iterations < n * n:
        Ap = matvec(sys, p_dir)
        denom = float(np.vdot(p_dir, Ap))
        if denom <= 0.0:
            break
        step = rz / denom
        x += step * p_dir
        Ap *= step
        r -= Ap
        iterations += 1
        r_norm = math.sqrt(np.vdot(r, r))
        if r_norm <= target:
            converged = True
            break
        np.multiply(r, inv_diag, out=z)
        rz_new = float(np.vdot(r, z))
        p_dir *= rz_new / rz
        p_dir += z
        rz = rz_new
    x += x.T  # symmetric part, as in symmat.symmetrize
    x *= 0.5
    return CGResult(
        direction=x, iterations=iterations,
        converged=converged, rel_residual=r_norm / r0_norm,
    )


def predictor_step_detail(
    p: Problem, U: PDFactor, t: float, h: float
) -> tuple[PDFactor, float, CGResult]:
    """Tangent step with feasibility backtracking.

    Returns (U_new, h_used, cg_result): U_new is the new point's
    factorization, from :func:`barrier.feasible`, and cg_result the CG
    solve of the tangent system at ``U``. The step is halved (direction reused,
    target penalty rho + h_used moving with it) until the result is
    strictly feasible, at most 30 times; StepCollapse is raised beyond that.
    """
    result = cg_solve(build_system(p, U, t))
    h_used = h
    for _ in range(31):
        rho_new = p.rho + h_used
        if rho_new > 0.0:
            found = feasible(
                Problem(sigma=p.sigma, rho=rho_new),
                symmetrize(U.matrix + h_used * result.direction),
            )
            if found is not None:
                return found[0], h_used, result
        h_used *= 0.5
    raise StepCollapse("predictor step infeasible even after 30 halvings")
