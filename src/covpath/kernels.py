"""Row kernels and inverse updates of ``reference.block_cd_run``.

The path drivers re-center with the Newton-CG ``corrector.corrector_run``,
which calls nothing here; this module serves the paper's block
coordinate-descent corrector, which the tests hold it to. Each row kernel
solves the block problem (the barrier objective restricted to one
row/column of U):

* :func:`row_inner_numpy`, the one that ``block_cd_run`` runs (see
  :func:`row_solver`): damped Newton on the whole (m+1)-variable block with
  one Cholesky solve per iteration, so the work is done in BLAS/LAPACK
  rather than in a Python loop per coordinate. It starts from the
  closed-form diagonal move of the CD body.
* :func:`_row_inner_loops`, the paper's closed-form coordinate descent in
  scalar loops, run uncompiled as the oracle that the tests hold the
  Newton kernel to. Every off-diagonal coordinate moves to the middle root
  of its stationarity cubic (trigonometric form), then the diagonal entry
  moves to the larger root of its stationarity quadratic. Each 1-D
  objective is strictly convex on its feasible interval, which picks that
  root in closed form; it is clamped into the box. Passes repeat until the
  largest move drops below tolerance.

Both kernels stop at the block tolerance, so they agree on the block
minimizer to that tolerance, not to roundoff, and their pass counts differ
(coordinate sweeps against Newton iterations). The kernels return values
only; they raise Infeasible or NumericalBreakdown where a move fails.

Around the kernels, ``block_cd_run`` keeps the inverse of U current in
O(n^2) per row: :func:`sub_inverse` gives the inverse with one row/column
deleted (Schur complement), and :func:`swm_update_inverse` the inverse
after a row/column replacement (Sherman-Woodbury-Morrison).
"""

import math

import numpy as np

from .exceptions import Infeasible, NumericalBreakdown, SingularUpdate
from .symmat import scipy_linalg_extension

_dsyr = scipy_linalg_extension("_fblas").dsyr
_dposv = scipy_linalg_extension("_flapack").dposv


# --------------------------------------------------------------------------
# Scalar coordinate-descent moves of the CD body.
# --------------------------------------------------------------------------


def _middle_cubic_root(c3, c2, c1, c0):
    """Middle real root of c3 x^3 + c2 x^2 + c1 x + c0 = 0 (c3 != 0).

    With three real roots this is the trigonometric root k = 1; with a
    single real root (which the coordinate cubic never has on feasible
    data, see :func:`_solve_coordinate`) it is that root. Returns NaN on
    non-finite coefficients. A zero constant term is deflated exactly, so
    x = 0 comes back exactly when it is the middle root.
    """
    if not (math.isfinite(c3) and math.isfinite(c2) and math.isfinite(c1) and math.isfinite(c0)):
        return np.nan
    if c0 == 0.0:
        disc = c2 * c2 - 4.0 * c3 * c1
        if disc < 0.0:
            return 0.0
        sq = math.sqrt(disc)
        qq = -0.5 * (c2 + sq) if c2 >= 0.0 else -0.5 * (c2 - sq)
        if qq == 0.0:
            return 0.0
        r1 = qq / c3
        r2 = c1 / qq
        return max(min(r1, r2), min(max(r1, r2), 0.0))

    a = c2 / c3
    b = c1 / c3
    c = c0 / c3
    # depressed cubic y^3 + p y + q with x = y - a/3
    shift = a / 3.0
    p = b - a * a / 3.0
    q = 2.0 * a * a * a / 27.0 - a * b / 3.0 + c
    half_q = 0.5 * q
    third_p = p / 3.0
    disc = half_q * half_q + third_p * third_p * third_p
    if disc > 0.0:
        sq = math.sqrt(disc)
        u1 = -half_q + sq
        u2 = -half_q - sq
        y = math.copysign(abs(u1) ** (1.0 / 3.0), u1) + math.copysign(abs(u2) ** (1.0 / 3.0), u2)
        return y - shift
    if p == 0.0:
        return -shift
    r = math.sqrt(-third_p)
    arg = half_q / (r * r * r)
    if arg > 1.0:
        arg = 1.0
    elif arg < -1.0:
        arg = -1.0
    theta = math.acos(-arg)
    # The roots are 2 r cos((theta - 2 pi k) / 3) - shift, k = 0, 1, 2, in
    # descending order for theta in [0, pi].
    return 2.0 * r * math.cos((theta - 2.0 * math.pi) / 3.0) - shift


def _coord_quadratic(vjj, qj, uj, schur):
    """Quadratic alpha x^2 + beta x + gamma tracing w - u^T V_inv u in x = u_j.

    Takes V_inv[j, j], q[j] = (V_inv u)[j], u[j] and the current Schur
    value w - u^T V_inv u; returns (alpha, beta, gamma).
    """
    alpha = -vjj
    beta = -2.0 * (qj - vjj * uj)
    gamma = schur - alpha * uj * uj - beta * uj
    return alpha, beta, gamma


def _cubic_coefficients(alpha, beta, gamma, bj, rho, t):
    """Stationarity cubic p1 x^3 + p2 x^2 + p3 x + p4 of the coordinate objective.

    Matches the expansion of d/dx of
    -log(alpha x^2 + beta x + gamma) - 2t[log(rho+bj-x) + log(rho-bj+x)]
    multiplied through by the (positive) denominators.
    """
    p1 = 2.0 * (1.0 + 2.0 * t) * alpha
    p2 = (1.0 + 4.0 * t) * beta - 4.0 * (1.0 + t) * alpha * bj
    p3 = 4.0 * t * gamma - 2.0 * (1.0 + 2.0 * t) * beta * bj + 2.0 * alpha * (bj * bj - rho * rho)
    p4 = beta * (bj * bj - rho * rho) - 4.0 * t * gamma * bj
    return p1, p2, p3, p4


def _solve_coordinate(alpha, beta, gamma, bj, rho, t, x_cur, guard):
    """Minimize the 1-D off-diagonal objective; returns x_new.

    The objective ``-log(alpha x^2 + beta x + gamma) - 2t[log(rho+bj-x) +
    log(rho-bj+x)]`` (alpha < 0) is strictly convex on its feasible
    interval, and its stationarity cubic is the derivative times positive
    denominators: negative at the left end of the interval, positive at the
    right end, with leading coefficient 2(1+2t) alpha < 0. Such a cubic has
    three real roots and crosses zero upward only at the middle one, which
    is therefore the minimizer. It is clamped ``guard`` inside the box;
    ``x_cur`` is kept if the clamped root leaves the quadratic non-positive
    (a feasible interval narrower than the guard). Raises
    NumericalBreakdown on non-finite cubic coefficients.
    """
    p1, p2, p3, p4 = _cubic_coefficients(alpha, beta, gamma, bj, rho, t)
    root = _middle_cubic_root(p1, p2, p3, p4)
    if not math.isfinite(root):
        raise NumericalBreakdown("coordinate cubic has non-finite coefficients")
    lo = bj - rho + guard
    hi = bj + rho - guard
    x = min(max(root, lo), hi)
    if not (alpha * x * x + beta * x + gamma > 0.0):
        return x_cur
    return x


def _solve_diagonal(s, c, rho, t, guard):
    """Minimize the 1-D diagonal objective; returns w_new.

    The objective ``-log(w - s) - t[log(rho+c-w) + log(rho-c+w)]`` is the
    coordinate objective with (alpha, beta, gamma) = (0, 1, -s), bj = c and
    barrier weight t. Its stationary point solves
    ``(1+2t) w^2 - 2(t s + c(1+t)) w + c^2 - rho^2 + 2 t c s = 0``, the
    derivative times positive denominators, so by the same convexity
    argument the minimizer is the larger root. It is clamped ``guard``
    inside the box. Raises Infeasible when the quadratic has no real root
    or the clamped root is not above s.
    """
    a = 1.0 + 2.0 * t
    half_b = -(t * s + c * (1.0 + t))
    cc = c * c - rho * rho + 2.0 * t * c * s
    disc = half_b * half_b - a * cc
    if disc < 0.0:
        raise Infeasible("diagonal quadratic has no real root")
    lo = c - rho + guard
    hi = c + rho - guard
    w = min(max((-half_b + math.sqrt(disc)) / a, lo), hi)
    if not (w - s > 0.0):
        raise Infeasible("diagonal quadratic has no root above s in the box")
    return w


def _row_inner_loops(V_inv, u, w, b, c, rho, t, tol, max_passes, guard):
    """Closed-form coordinate descent over one row block; mutates ``u``.

    Scalar loops, the reference for :func:`row_inner_numpy`. Maintains
    q = V_inv @ u and the quadratic term s = u^T V_inv u incrementally; the
    identity alpha x^2 + beta x + gamma = w - s(x) refreshes s in O(1) per
    move.

    Returns (w, passes).
    """
    m = u.shape[0]
    q = np.zeros(m)
    for j in range(m):
        acc = 0.0
        for k in range(m):
            acc += V_inv[j, k] * u[k]
        q[j] = acc
    s = 0.0
    for j in range(m):
        s += u[j] * q[j]

    passes = 0
    for _ in range(max_passes):
        passes += 1
        max_delta = 0.0
        for j in range(m):
            alpha, beta, gamma = _coord_quadratic(V_inv[j, j], q[j], u[j], w - s)
            x_new = _solve_coordinate(alpha, beta, gamma, b[j], rho, t, u[j], guard)
            dx = x_new - u[j]
            if dx != 0.0:
                s = w - (alpha * x_new * x_new + beta * x_new + gamma)
                for k in range(m):
                    q[k] += dx * V_inv[j, k]
                u[j] = x_new
                if abs(dx) > max_delta:
                    max_delta = abs(dx)
        w_new = _solve_diagonal(s, c, rho, t, guard)
        if abs(w_new - w) > max_delta:
            max_delta = abs(w_new - w)
        w = w_new
        if max_delta < tol:
            break
    return w, passes


def row_inner_numpy(V_inv, u, w, b, c, rho, t, tol, max_passes, guard):
    """Damped Newton on the row block ``z = (u, w)``; mutates ``u``.

    The block objective is ``-log r - sum_k wt_k [log lo_k + log hi_k]``
    with ``r = w - u^T V_inv u``, slacks ``lo = rho + (b, c) - z`` and
    ``hi = rho - (b, c) + z``, and barrier weights ``wt = (2t, ..., 2t, t)``.
    With ``q = V_inv u`` and ``e = (-2q, 1)``, the gradient of ``r``, its
    gradient is ``-e/r + wt (1/lo - 1/hi)`` and its Hessian
    ``(2/r) blockdiag(V_inv, 0) + e e^T / r^2 + diag(wt (1/lo^2 + 1/hi^2))``,
    solved by Cholesky (LAPACK ``dposv`` on the upper triangle).

    Each step is damped to stay inside the box, then backtracked (Armijo)
    on the objective decrease, evaluated with ``log1p`` so that it stays
    resolvable near the minimizer. Once the Newton decrement is below the
    stopping scale the full step is taken whenever it is feasible and keeps
    ``r > 0``. Iteration stops after a full step ``d`` whose square is
    below ``1e-3 * tol`` in both the Euclidean norm (``d^T d``) and the
    Hessian norm (the Newton decrement ``d^T H d``): Newton converges
    quadratically, so what is left is far below ``tol``. The Euclidean
    test alone is not enough: from a start very close to a face of the
    box, Newton only doubles the small slack per step, and those steps are
    tiny long before the slack is right.

    A feasible start first moves ``w`` to its closed-form 1-D minimizer
    given ``u`` (:func:`_solve_diagonal`, the CD kernel's diagonal step,
    which stays ``guard`` inside the faces); the move is kept only if that
    solve succeeds. After it, the damping keeps every slack positive. A
    start outside the box raises Infeasible with ``u`` untouched; a Newton
    system that is not positive definite, or whose step is not finite,
    raises NumericalBreakdown.

    Returns (w, passes), where passes counts Newton iterations.
    """
    m = u.shape[0]
    z = np.append(u, w)
    upper = rho + np.append(b, c)
    lower = upper - 2.0 * rho
    wt = np.full(m + 1, 2.0 * t)
    wt[m] = t
    stop = 1e-3 * tol
    H = np.empty((m + 1, m + 1), order="F")
    H_diag = H.reshape(-1, order="F")[:: m + 2]
    e = np.empty(m + 1)
    e[m] = 1.0

    passes = 0
    while passes < max_passes:
        q = V_inv @ z[:m]
        s = z[:m] @ q
        r = z[m] - s
        lo = upper - z
        hi = z - lower
        if not (r > 0.0 and lo.min() > 0.0 and hi.min() > 0.0):
            raise Infeasible("row block left the box, or r = w - u^T V_inv u is not positive")
        if passes == 0:
            # Closed-form diagonal start: move w to its 1-D minimizer given
            # u, as the CD kernel's diagonal step does. From a diagonal slack
            # orders of magnitude off its optimum, fraction-to-boundary
            # damping would walk it there about 100x per Newton iteration.
            try:
                w0 = _solve_diagonal(s, c, rho, t, guard)
            except Infeasible:
                pass
            else:
                z[m] = w0
                r = w0 - s
                lo[m] = upper[m] - w0
                hi[m] = w0 - lower[m]
        passes += 1
        ilo = 1.0 / lo
        ihi = 1.0 / hi
        np.multiply(q, -2.0, out=e[:m])
        g = wt * (ilo - ihi)
        g -= e / r
        # V_inv is symmetric: its transpose is the same matrix in H's
        # Fortran order, which makes this a contiguous copy.
        np.multiply(V_inv.T, 2.0 / r, out=H[:m, :m])
        H[:, m] = 0.0
        _dsyr(1.0 / (r * r), e, a=H, overwrite_a=1)
        H_diag += wt * (ilo * ilo + ihi * ihi)
        _, d, info = _dposv(H, -g, overwrite_a=1)
        lam2 = -(g @ d)
        if info != 0 or not math.isfinite(lam2):
            raise NumericalBreakdown("row Newton system is not PD, or its step is not finite")

        # Along z + a d: r(a) = r + a (lin - a kappa), and the slacks scale
        # by (1 - a dl) and (1 + a dh); the largest feasible a is 1 / reach.
        du = d[:m]
        lin = e @ d
        kappa = du @ (V_inv @ du)
        dl = d * ilo
        dh = d * ihi
        reach = max(dl.max(), -dh.min(), 0.0)
        if reach < 1.0 and lam2 < stop and r + lin - kappa > 0.0:
            a = 1.0
        else:
            a = 1.0 if reach < 1.0 else 0.99 / reach
            while a >= 1e-12:
                ra = a * (lin - a * kappa) / r
                if ra > -1.0:
                    df = -math.log1p(ra) - wt @ (np.log1p(-a * dl) + np.log1p(a * dh))
                    if df <= -0.25 * a * lam2:
                        break
                a *= 0.5
            else:  # no acceptable step along d: stop where we are
                break
        z += a * d
        if a == 1.0 and max(lam2, d @ d) < stop:
            break

    u[:] = z[:m]
    return float(z[m]), passes


# The one row kernel's name, which benchmark environment records read.
DEFAULT_BACKEND = "numpy"


def row_solver():
    """Return the row-block kernel that ``block_cd_run`` runs."""
    return row_inner_numpy


# --------------------------------------------------------------------------
# Inverse maintenance around the row kernels.
# --------------------------------------------------------------------------


def swm_update_inverse(inv, i, new_row, new_diag, old_row, old_diag):
    """Update ``inv`` in place to the inverse of U after replacing its
    row/column ``i``, in O(n^2); returns ``inv``.

    ``inv`` is the symmetric inverse of the current U; ``old_row``/
    ``old_diag`` are the off-diagonal entries (positions != i, ascending)
    and diagonal entry of row i of that U, and ``new_row``/``new_diag`` the
    replacement values. The replacement is the rank-2 update U + A B^T with
    A = [e_i, d], B = [d, e_i] and d the change of row i, whose diagonal
    entry carries half the diagonal change. By Sherman-Woodbury-Morrison,
    inv becomes inv - (inv A) S^{-1} (B^T inv) with the 2x2 capacitance
    S = I + B^T inv A; a final average with the transpose makes it exactly
    symmetric.

    Raises SingularUpdate, leaving ``inv`` untouched, when S is numerically
    singular (the updated matrix would not be PD).
    """
    d = np.insert(np.subtract(new_row, old_row), i, 0.5 * (new_diag - old_diag))
    if not d.any():
        return inv
    A = np.column_stack((np.arange(d.size) == i, d))
    B = A[:, ::-1]
    inv_A = inv @ A
    S = np.eye(2) + B.T @ inv_A
    det = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
    if abs(det) <= 1e-14 * max(abs(S[0, 0] * S[1, 1]), abs(S[0, 1] * S[1, 0]), 1.0):
        raise SingularUpdate("rank-2 capacitance matrix is numerically singular")
    inv -= inv_A @ np.linalg.solve(S, B.T @ inv)
    inv += inv.T
    inv *= 0.5
    return inv


def sub_inverse(inv, i):
    """Inverse of U with row/column ``i`` deleted, from the symmetric
    ``inv = U^{-1}``: the Schur complement
    ``inv(-i,-i) - inv(-i,i) inv(i,-i) / inv(i,i)``, in O(n^2), averaged
    with its transpose so that it is exactly symmetric.
    """
    col = np.delete(inv[i], i)
    out = np.delete(np.delete(inv, i, axis=0), i, axis=1)
    out -= np.outer(col, col / inv[i, i])
    out += out.T
    out *= 0.5
    return out
