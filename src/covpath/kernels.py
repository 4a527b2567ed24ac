"""Hot numerical kernels for the row/column block subproblem.

Two backends solve the same block problem (the barrier objective restricted
to one row/column of U) by different methods:

* ``numba`` -- the paper's closed-form coordinate descent,
  :func:`_row_inner_loops`, compiled with ``@njit`` (the default whenever
  numba imports successfully). Every off-diagonal coordinate moves to the
  feasible root of its stationarity cubic (Cardano/trigonometric, plus one
  guarded Newton polish), then the diagonal entry moves to the feasible
  root of its stationarity quadratic; passes repeat until the largest move
  drops below tolerance. Run uncompiled, the same function is the
  reference the tests hold the numpy backend to.
* ``numpy`` -- :func:`row_inner_numpy`, damped Newton on the whole
  (m+1)-variable block with one Cholesky solve per iteration, so the work
  is done in BLAS/LAPACK rather than in a Python loop per coordinate. It
  starts from the closed-form diagonal move of the CD kernel.

The default is ``numba`` whenever numba imports and ``numpy`` otherwise;
callers can request a backend explicitly via :func:`row_solver`. The
scalar helpers carry ``@_njit``, which compiles them under numba and leaves
them plain Python without it; the corrector's coordinate-level functions
call the same helpers, so each closed form is written once.

Both backends stop at the block tolerance, so they agree on the block
minimizer to that tolerance, not to roundoff, and their pass counts differ
(coordinate sweeps against Newton iterations).
``benchmarks/compare_backends.py`` times one against the other.
"""

import math

import numpy as np
from scipy.linalg.blas import dsyr as _dsyr
from scipy.linalg.lapack import dposv as _dposv

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    HAVE_NUMBA = False

STATUS_OK = 0
STATUS_NO_DIAG_ROOT = 1
STATUS_BAD_COEFFS = 2
STATUS_INFEASIBLE = 3

_njit = numba.njit(cache=True) if HAVE_NUMBA else (lambda fn: fn)


# --------------------------------------------------------------------------
# Scalar coordinate-descent kernels, written in njit-compatible style and
# compiled in place when numba is available.
# --------------------------------------------------------------------------


@_njit
def _real_cubic_roots(c3, c2, c1, c0, roots):
    """Real roots of c3 x^3 + c2 x^2 + c1 x + c0 = 0 (c3 != 0).

    Fills ``roots`` (length >= 3) and returns the count, or -1 on
    non-finite coefficients. A zero constant term is deflated exactly so
    that x = 0 comes back as an exact root.
    """
    if not (math.isfinite(c3) and math.isfinite(c2) and math.isfinite(c1) and math.isfinite(c0)):
        return -1
    if c0 == 0.0:
        roots[0] = 0.0
        count = 1
        disc = c2 * c2 - 4.0 * c3 * c1
        if disc >= 0.0:
            sq = math.sqrt(disc)
            qq = -0.5 * (c2 + sq) if c2 >= 0.0 else -0.5 * (c2 - sq)
            if qq != 0.0:
                roots[count] = qq / c3
                count += 1
                root2 = c1 / qq
                if root2 != roots[count - 1]:
                    roots[count] = root2
                    count += 1
        return count

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
        roots[0] = y - shift
        return 1
    if p == 0.0:
        roots[0] = -shift
        return 1
    r = math.sqrt(-third_p)
    arg = half_q / (r * r * r)
    if arg > 1.0:
        arg = 1.0
    elif arg < -1.0:
        arg = -1.0
    theta = math.acos(-arg)
    for k in range(3):
        y = 2.0 * r * math.cos((theta - 2.0 * math.pi * k) / 3.0)
        roots[k] = y - shift
    return 3


@_njit
def _coord_quadratic(vjj, qj, uj, schur):
    """Quadratic alpha x^2 + beta x + gamma tracing w - u^T V_inv u in x = u_j.

    Takes V_inv[j, j], q[j] = (V_inv u)[j], u[j] and the current Schur
    value w - u^T V_inv u; returns (alpha, beta, gamma).
    """
    alpha = -vjj
    beta = -2.0 * (qj - vjj * uj)
    gamma = schur - alpha * uj * uj - beta * uj
    return alpha, beta, gamma


@_njit
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


@_njit
def _coord_objective(x, alpha, beta, gamma, bj, rho, t):
    """1-D block objective along an off-diagonal coordinate."""
    quad = alpha * x * x + beta * x + gamma
    lo = rho + bj - x
    hi = rho - bj + x
    if quad <= 0.0 or lo <= 0.0 or hi <= 0.0:
        return np.inf
    return -math.log(quad) - 2.0 * t * (math.log(lo) + math.log(hi))


@_njit
def _solve_coordinate(alpha, beta, gamma, bj, rho, t, x_cur, guard, roots):
    """Minimize the 1-D off-diagonal objective; returns (x_new, status).

    Candidates are the real roots of the stationarity cubic
    ``p1 x^3 + p2 x^2 + p3 x + p4 = 0`` clamped into the guarded box; a
    candidate must also keep the Schur quadratic positive. Keeps ``x_cur``
    when no candidate improves the objective, then applies one Newton
    polish on the derivative, accepted only if it stays feasible and does
    not increase the objective.
    """
    p1, p2, p3, p4 = _cubic_coefficients(alpha, beta, gamma, bj, rho, t)
    nroots = _real_cubic_roots(p1, p2, p3, p4, roots)
    if nroots < 0:
        return x_cur, STATUS_BAD_COEFFS

    lo = bj - rho + guard
    hi = bj + rho - guard
    best_x = x_cur
    best_f = _coord_objective(x_cur, alpha, beta, gamma, bj, rho, t)
    for k in range(nroots):
        x = roots[k]
        if x < lo:
            x = lo
        elif x > hi:
            x = hi
        f = _coord_objective(x, alpha, beta, gamma, bj, rho, t)
        if f < best_f:
            best_f = f
            best_x = x

    x = best_x
    quad = alpha * x * x + beta * x + gamma
    slack_lo = rho + bj - x
    slack_hi = rho - bj + x
    if quad > 0.0 and slack_lo > 0.0 and slack_hi > 0.0:
        qp = 2.0 * alpha * x + beta
        g1 = -qp / quad + 2.0 * t / slack_lo - 2.0 * t / slack_hi
        g2 = (
            -2.0 * alpha / quad
            + (qp / quad) * (qp / quad)
            + 2.0 * t / (slack_lo * slack_lo)
            + 2.0 * t / (slack_hi * slack_hi)
        )
        # Steps below a few ulps of the coordinate scale are float noise:
        # the point is already numerically stationary.
        if g2 > 0.0 and abs(g1) > g2 * 4e-16 * (abs(x) + rho):
            x_pol = x - g1 / g2
            quad_pol = alpha * x_pol * x_pol + beta * x_pol + gamma
            if lo < x_pol < hi and quad_pol > 0.0:
                qp_pol = 2.0 * alpha * x_pol + beta
                g1_pol = (
                    -qp_pol / quad_pol
                    + 2.0 * t / (rho + bj - x_pol)
                    - 2.0 * t / (rho - bj + x_pol)
                )
                # Accept only on a strict stationarity improvement so
                # float noise cannot wobble a converged coordinate.
                if abs(g1_pol) < abs(g1):
                    best_x = x_pol
    return best_x, STATUS_OK


@_njit
def _diag_objective(w, s, c, rho, t):
    schur = w - s
    lo = rho + c - w
    hi = rho - c + w
    if schur <= 0.0 or lo <= 0.0 or hi <= 0.0:
        return np.inf
    return -math.log(schur) - t * (math.log(lo) + math.log(hi))


@_njit
def _solve_diagonal(s, c, rho, t, w_cur, guard):
    """Minimize the 1-D diagonal objective; returns (w_new, status).

    The stationary point solves
    ``(1+2t) w^2 - 2(t s + c(1+t)) w + c^2 - rho^2 + 2 t c s = 0``;
    exactly one root satisfies w > s and |w - c| < rho for feasible data.
    """
    a = 1.0 + 2.0 * t
    half_b = -(t * s + c * (1.0 + t))
    cc = c * c - rho * rho + 2.0 * t * c * s
    disc = half_b * half_b - a * cc
    if disc < 0.0:
        return w_cur, STATUS_NO_DIAG_ROOT
    sq = math.sqrt(disc)
    lo = c - rho + guard
    hi = c + rho - guard
    best_w = w_cur
    best_f = _diag_objective(w_cur, s, c, rho, t)
    improved = False
    for sign in (1.0, -1.0):
        w = (-half_b + sign * sq) / a
        if w < lo:
            w = lo
        elif w > hi:
            w = hi
        if w - s <= 0.0:
            continue
        f = _diag_objective(w, s, c, rho, t)
        if f <= best_f:
            best_f = f
            best_w = w
            improved = True
    if not improved and best_f == np.inf:
        return w_cur, STATUS_NO_DIAG_ROOT

    # One Newton polish on the derivative: the quadratic-formula root
    # carries absolute error ~eps * c^2, which the near-active barrier
    # curvature amplifies into the residual.
    w = best_w
    schur = w - s
    slack_lo = rho + c - w
    slack_hi = rho - c + w
    if schur > 0.0 and slack_lo > 0.0 and slack_hi > 0.0:
        g1 = -1.0 / schur + t / slack_lo - t / slack_hi
        g2 = (
            1.0 / (schur * schur)
            + t / (slack_lo * slack_lo)
            + t / (slack_hi * slack_hi)
        )
        if g2 > 0.0 and abs(g1) > g2 * 4e-16 * (abs(w) + rho):
            w_pol = w - g1 / g2
            if lo < w_pol < hi and w_pol - s > 0.0:
                g1_pol = (
                    -1.0 / (w_pol - s)
                    + t / (rho + c - w_pol)
                    - t / (rho - c + w_pol)
                )
                if abs(g1_pol) < abs(g1):
                    best_w = w_pol
    return best_w, STATUS_OK


def _row_inner_loops(V_inv, u, w, b, c, rho, t, tol, max_passes, guard):
    """Closed-form coordinate descent over one row block; mutates ``u``.

    Scalar loops, compiled for the numba backend; run uncompiled, this is
    the reference for :func:`row_inner_numpy`. Maintains q = V_inv @ u and
    the quadratic term s = u^T V_inv u incrementally; the identity
    alpha x^2 + beta x + gamma = w - s(x) refreshes s in O(1) per move.

    Returns (w, passes, status).
    """
    m = u.shape[0]
    roots = np.empty(3)
    q = np.zeros(m)
    for j in range(m):
        acc = 0.0
        for k in range(m):
            acc += V_inv[j, k] * u[k]
        q[j] = acc
    s = 0.0
    for j in range(m):
        s += u[j] * q[j]

    status = STATUS_OK
    passes = 0
    for _ in range(max_passes):
        passes += 1
        max_delta = 0.0
        for j in range(m):
            alpha, beta, gamma = _coord_quadratic(V_inv[j, j], q[j], u[j], w - s)
            x_new, st = _solve_coordinate(alpha, beta, gamma, b[j], rho, t, u[j], guard, roots)
            if st != STATUS_OK:
                status = st
            dx = x_new - u[j]
            if dx != 0.0:
                s = w - (alpha * x_new * x_new + beta * x_new + gamma)
                for k in range(m):
                    q[k] += dx * V_inv[j, k]
                u[j] = x_new
                if abs(dx) > max_delta:
                    max_delta = abs(dx)
        w_new, st = _solve_diagonal(s, c, rho, t, w, guard)
        if st != STATUS_OK:
            status = st
        if abs(w_new - w) > max_delta:
            max_delta = abs(w_new - w)
        w = w_new
        if max_delta < tol:
            break
    return w, passes, status


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
    start outside the box returns ``STATUS_INFEASIBLE`` with ``u`` and
    ``w`` untouched; a Newton system that is not positive definite, or
    whose step is not finite, returns ``STATUS_BAD_COEFFS``.

    Returns (w, passes, status), where passes counts Newton iterations.
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

    status = STATUS_OK
    passes = 0
    while passes < max_passes:
        q = V_inv @ z[:m]
        s = z[:m] @ q
        r = z[m] - s
        lo = upper - z
        hi = z - lower
        if not (r > 0.0 and lo.min() > 0.0 and hi.min() > 0.0):
            status = STATUS_INFEASIBLE
            break
        if passes == 0:
            # Closed-form diagonal start: move w to its 1-D minimizer given
            # u, as the CD kernel's diagonal step does. From a diagonal slack
            # orders of magnitude off its optimum, fraction-to-boundary
            # damping would walk it there about 100x per Newton iteration.
            w0, st = _solve_diagonal(s, c, rho, t, z[m], guard)
            if st == STATUS_OK:
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
            status = STATUS_BAD_COEFFS
            break

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
    return float(z[m]), passes, status


row_inner_numba = _njit(_row_inner_loops) if HAVE_NUMBA else None


_SOLVERS = {"numpy": row_inner_numpy, "numba": row_inner_numba}

DEFAULT_BACKEND = "numba" if HAVE_NUMBA else "numpy"


def available_backends() -> tuple[str, ...]:
    return ("numba", "numpy") if HAVE_NUMBA else ("numpy",)


def row_solver(backend: str | None = None):
    """Return the row-block kernel for ``backend`` (default ``DEFAULT_BACKEND``)."""
    name = backend or DEFAULT_BACKEND
    if name not in _SOLVERS:
        raise ValueError(f"unknown backend {name!r}; expected 'numba' or 'numpy'")
    fn = _SOLVERS[name]
    if fn is None:
        raise ValueError("numba backend requested but numba is not installed")
    return fn


def warm_up(backend: str | None = None) -> None:
    """Trigger JIT compilation on a tiny, strictly feasible block so later
    timings are honest."""
    fn = row_solver(backend)
    fn(np.eye(2), np.zeros(2), 0.5, np.zeros(2), 0.0, 1.0, 0.1, 1e-9, 2, 1e-12)
