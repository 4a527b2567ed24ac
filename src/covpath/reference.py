"""Slow trusted oracles: dense Newton solve, golden-section search, and the
explicit n^2 x n^2 tangent-system operator.

These exist for validation, not speed: the test suite checks the
corrector, the row kernels and the tangent system against them. They ship
with the library so that other code can check a solve the same way.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .barrier import (
    Problem,
    barrier_objective,
    feasible,
    initial_point,
    multipliers,
)
from .exceptions import Infeasible, LineSearchFailure, MaxItersExceeded
from .predictor import PredictorSystem, matvec
from .symmat import PDFactor, symmetrize


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


def _sym_basis(n):
    """Orthogonal-ish basis of the symmetric matrices: E_ii and E_ij + E_ji."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    mats = []
    for i, j in pairs:
        E = np.zeros((n, n))
        E[i, j] = 1.0
        E[j, i] = 1.0
        mats.append(E)
    return pairs, mats


def newton_solve(
    p: Problem, U0: np.ndarray, t: float, cfg: OracleConfig | None = None
) -> PDFactor:
    """Damped Newton on the barrier problem over the free symmetric entries.

    Builds the dense Hessian of the barrier objective on the n(n+1)/2
    coordinates, takes Newton steps with feasibility-preserving
    backtracking, and stops when ||H||_F <= tol. Intended for n <= 30.
    Each point is factored once, by ``barrier.feasible``.
    """
    cfg = cfg or OracleConfig()
    U = symmetrize(np.asarray(U0, dtype=float))
    factor, slack = feasible(p, U, "newton_solve start")
    n = p.n
    pairs, basis = _sym_basis(n)
    m = len(pairs)

    for _ in range(cfg.max_iters):
        state = multipliers(p, U, t, slack)
        H = state.L - state.M - factor.inverse
        hnorm = float(np.linalg.norm(H))
        if hnorm <= cfg.tol:
            return factor

        grad = np.array([H[i, j] if i == j else 2.0 * H[i, j] for i, j in pairs])
        D = (state.L**2 + state.M**2) / t
        sys = PredictorSystem(U_inv=factor.inverse, D=D, rhs=H)
        cols = [matvec(sys, E) for E in basis]
        hess = np.empty((m, m))
        for a in range(m):
            Ea = basis[a]
            for b in range(a, m):
                val = float(np.sum(Ea * cols[b]))
                hess[a, b] = val
                hess[b, a] = val

        try:
            chol = scipy.linalg.cho_factor(hess)
            step_vec = scipy.linalg.cho_solve(chol, -grad)
        except scipy.linalg.LinAlgError:
            step_vec = np.linalg.lstsq(hess, -grad, rcond=None)[0]

        step = np.zeros((n, n))
        for val, (i, j) in zip(step_vec, pairs):
            step[i, j] = val
            step[j, i] = val

        f0 = barrier_objective(p, factor, t, slack)
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
            if barrier_objective(p, trial, t, trial_slack) <= f0 + 1e-4 * tau * slope + f_slack:
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
    state = multipliers(p, U.matrix, t)
    D = (state.L**2 + state.M**2) / t
    return np.kron(U.inverse, U.inverse) + np.diag(D.reshape(-1))
