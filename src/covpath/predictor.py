"""The structured system U^{-1} P U^{-1} + D o P = rhs and its CG solver.

The path tangent dU/drho solves J vec(dU) = -vec(dH/drho) with
J = U^{-1} (x) U^{-1} + diag(vec D). The Kronecker product is never
formed: the solver takes the arrays (X, D, rhs), X = U^{-1}, and applies
the operator to symmetric matrices as X P X + D o P, one O(n^3)
multiplication per CG iteration. With a primal-dual D it is the Hessian of
the corrector's Newton step (see ``corrector``), and the online mode solves
it for the tangent in mu, so :func:`cg_solve` is the one linear solver.

The path's tangent step (:func:`predictor_step_detail`) moves point and
penalty together. Its length comes in closed form from the box slacks, by
the corrector's fraction-to-boundary rule.
"""

import math
from dataclasses import dataclass

import numpy as np

from .barrier import SIDE, Problem, multipliers, slacks, step_to_boundary
# perfbench/tracing.py wraps predictor.feasible, so the name stays here.
from .barrier import feasible  # noqa: F401
from .symmat import PDFactor

# Relative residual at which CG stops for the path tangent and the online
# tangent in mu; the corrector passes its own (``corrector.CG_REL``).
TANGENT_REL = 1e-2


@dataclass
class CGResult:
    direction: np.ndarray
    iterations: int
    converged: bool
    rel_residual: float


def barrier_curvature(t: float, slack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D = (L^2 + M^2)/t = t/s+^2 + t/s-^2 elementwise, the barrier's
    curvature at the box slacks ``slack`` (``barrier.slacks``) and the D of
    its tangent systems, with the squared multipliers [L^2, M^2] it is made
    from."""
    squares = multipliers(t, slack)
    squares *= squares
    return (squares[0] + squares[1]) / t, squares


def build_system(t: float, slack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, rhs) of the tangent system in rho at a (near-)central iterate U
    with box slacks ``slack``, from differentiating the multiplier maps: D
    is :func:`barrier_curvature` and rhs = -dH/drho = (L^2 - M^2)/t; X is
    U^{-1}."""
    D, squares = barrier_curvature(t, slack)
    return D, (squares[0] - squares[1]) / t


def matvec(X: np.ndarray, D: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Apply the operator X P X + D o P to a symmetric matrix P."""
    out = X @ P @ X
    out += out.T  # symmetric part, as in symmat.symmetrize
    out *= 0.5
    out += D * P
    return out


def operator_diagonal(X: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Diagonal of X P X + D o P on symmetric matrices, as a matrix.

    In the orthonormal basis E_ii, (E_ij + E_ji)/sqrt(2) of the symmetric
    matrices, entry (i, j) is X_ii X_jj + X_ij^2 + D_ij off the diagonal
    and X_ii^2 + D_ii on it.
    """
    x = X.diagonal()
    diag = x[:, None] * x
    diag += X * X
    diag += D
    diag.reshape(-1)[:: x.shape[0] + 1] -= x * x
    return diag


def cg_solve(
    X: np.ndarray, D: np.ndarray, rhs: np.ndarray, rel_drop: float = TANGENT_REL
) -> CGResult:
    """Solve X P X + D o P = rhs by Jacobi-preconditioned conjugate gradient
    on symmetric matrices under the Frobenius product; the preconditioner
    is :func:`operator_diagonal`. Stops once the unpreconditioned residual
    has dropped by ``rel_drop``, or unconverged after n^2 iterations or at
    the first direction of non-positive curvature.

    CG starts from x = 0, so the first iteration takes r = rhs and the
    preconditioned residual as its direction, and writes x and r afresh;
    later ones update the iterate, residual and direction in place. When
    the first direction already has non-positive curvature the result is
    the zero direction after 0 iterations. X, D and rhs are left as they
    are."""
    n = rhs.shape[0]
    r0_norm = math.sqrt(np.vdot(rhs, rhs))
    if r0_norm == 0.0:
        return CGResult(
            direction=np.zeros_like(rhs), iterations=0, converged=True, rel_residual=0.0
        )
    target = rel_drop * r0_norm

    inv_diag = operator_diagonal(X, D)
    np.reciprocal(inv_diag, out=inv_diag)
    p_dir = rhs * inv_diag
    rz = float(np.vdot(rhs, p_dir))
    z = None
    iterations = 0
    r_norm = r0_norm
    converged = False
    while iterations < n * n:
        Ap = matvec(X, D, p_dir)
        denom = float(np.vdot(p_dir, Ap))
        if denom <= 0.0:
            break
        step = rz / denom
        Ap *= step
        if iterations:
            x += step * p_dir
            r -= Ap
        else:
            x = step * p_dir
            # A sum from x = 0 turns -0.0 into 0.0 and changes nothing else.
            x += 0.0
            r = rhs - Ap
        iterations += 1
        r_norm = math.sqrt(np.vdot(r, r))
        if r_norm <= target:
            converged = True
            break
        z = np.multiply(r, inv_diag, out=z)
        rz_new = float(np.vdot(r, z))
        p_dir *= rz_new / rz
        p_dir += z
        rz = rz_new
    if not iterations:
        x = np.zeros_like(rhs)
    x += x.T  # symmetric part, as in symmat.symmetrize
    x *= 0.5
    return CGResult(
        direction=x, iterations=iterations,
        converged=converged, rel_residual=r_norm / r0_norm,
    )


def predictor_step_detail(
    p: Problem, U: PDFactor, t: float, h: float
) -> tuple[np.ndarray, float, CGResult]:
    """Tangent step from the central point ``U`` at rho toward rho + h.

    Returns (U_new, h_used, cg_result): cg_result is the CG solve of the
    tangent system at ``U``, with direction dU, and U_new is the array
    U + h_used dU. Penalty and point move together, so a step h' leaves
    the box slacks s+ + h' (1 - dU) and s- + h' (1 + dU). The step length
    is the corrector's fraction-to-boundary rule
    (``barrier.step_to_boundary``), in closed form: with reach the largest
    entry of -h (1 - dU)/s+ and -h (1 + dU)/s-, h_used = h when
    reach <= ``STEP_FRAC`` and h STEP_FRAC/reach otherwise. So U_new is
    inside the box at rho + h_used up to rounding; it is neither tested
    for positive definiteness nor factored here. The start that the path
    driver builds from U_new is tested once, by the corrector run that
    starts from it (``path.run_path``).
    """
    slack = slacks(p, U.matrix)
    D, rhs = build_system(t, slack)
    result = cg_solve(U.inverse, D, rhs)
    dU = result.direction
    # Largest relative move of a slack toward zero over the full step h.
    reach = (-h * (1.0 - SIDE * dU) / slack).max()
    h_used = h * step_to_boundary(reach)
    # dU is exactly symmetric, so U + h_used dU is too.
    return U.matrix + h_used * dU, h_used, result
