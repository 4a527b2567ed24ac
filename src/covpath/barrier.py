"""Problem definition and central-path quantities for covariance selection.

The estimation problem is solved through its box-constrained log-det dual:
minimize -log det U - n subject to |U_ij - sigma_ij| <= rho, smoothed by a
log-barrier with weight t on every box face. This module holds the problem
container, the barrier multipliers L and M, the central-path residual
H = L - M - U^{-1}, objectives, feasibility tests, and the two warm starts
(sparse-end diagonal start and penalty rescaling).
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateInstance, Infeasible
from .symmat import PDFactor, cholesky_logdet, is_pd, symmetrize


@dataclass(frozen=True)
class Problem:
    """One covariance-selection instance: sample covariance plus penalty."""

    sigma: np.ndarray
    rho: float

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError("sigma must be a square matrix")
        # Most callers pass an exactly symmetric sigma; only the rest pay
        # for the tolerance check and the averaging. NaN fails both tests.
        if np.array_equal(sigma, sigma.T):
            sigma = sigma.copy()
        elif np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(sigma).max())):
            sigma = symmetrize(sigma)
        else:
            raise ValueError("sigma must be symmetric")
        if np.any(np.diagonal(sigma) <= 0.0):
            raise ValueError("sigma must have a positive diagonal")
        if not self.rho > 0.0:
            raise ValueError("rho must be positive")
        object.__setattr__(self, "sigma", sigma)

    @property
    def n(self) -> int:
        return self.sigma.shape[0]

    @property
    def rho_max(self) -> float:
        return float(np.max(np.diagonal(self.sigma)))


@dataclass(frozen=True)
class BarrierState:
    """Barrier weight with the elementwise multipliers it induces."""

    t: float
    L: np.ndarray
    M: np.ndarray


def feasible(p: Problem, U: np.ndarray) -> bool:
    """Strict dual feasibility: |U - sigma| < rho elementwise and U PD."""
    if U.shape != p.sigma.shape:
        return False
    if not np.all(np.abs(U - p.sigma) < p.rho):
        return False
    return is_pd(U)


def slacks(p: Problem, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Box slacks (slack+, slack-) = (rho + sigma - U, rho - sigma + U).

    Raises Infeasible unless every slack is positive (a NaN is not).
    """
    slack_plus = p.rho + p.sigma - U
    slack_minus = p.rho - p.sigma + U
    if not (np.all(slack_plus > 0.0) and np.all(slack_minus > 0.0)):
        raise Infeasible("box slack is non-positive")
    return slack_plus, slack_minus


def multipliers(
    p: Problem, U: np.ndarray, t: float, slack: tuple[np.ndarray, np.ndarray] | None = None
) -> BarrierState:
    """Elementwise barrier multipliers L = t/slack+, M = t/slack-.

    ``slack`` is ``slacks(p, U)`` when the caller already has it. Raises
    Infeasible when any box slack is non-positive.
    """
    if not t > 0.0:
        raise ValueError("t must be positive")
    slack_plus, slack_minus = slacks(p, U) if slack is None else slack
    return BarrierState(t=t, L=t / slack_plus, M=t / slack_minus)


def residual(p: Problem, U: PDFactor, t: float) -> np.ndarray:
    """Central-path residual H = L - M - U^{-1}; zero exactly on the path."""
    state = multipliers(p, U.matrix, t)
    return state.L - state.M - U.inverse


def dual_objective(U: PDFactor) -> float:
    """Dual objective -log det U - n."""
    return -U.logdet - U.n


def primal_objective(p: Problem, X: np.ndarray) -> float:
    """Penalized log-likelihood log det X - tr(sigma X) - rho ||X||_1."""
    _, logdet = cholesky_logdet(X)
    return float(logdet - np.sum(p.sigma * X) - p.rho * np.sum(np.abs(X)))


def barrier_objective(
    p: Problem, U: PDFactor, t: float, slack: tuple[np.ndarray, np.ndarray] | None = None
) -> float:
    """Barrier function value at U.

    The barrier sums log slacks over all n^2 ordered index pairs, so each
    off-diagonal face is counted twice; this convention is what produces
    the factor 2t on off-diagonal terms in the row/column block problem.
    ``slack`` is ``slacks(p, U.matrix)`` when the caller already has it.
    """
    slack_plus, slack_minus = slacks(p, U.matrix) if slack is None else slack
    return float(-U.logdet - t * (np.sum(np.log(slack_plus)) + np.sum(np.log(slack_minus))))


def gap_bound(n: int, t: float) -> float:
    """Surrogate duality gap bound 2 n^2 t for the barrier solution."""
    if not t > 0.0:
        raise ValueError("t must be positive")
    return 2.0 * n * n * t


def initial_point(p_max: Problem, eps: float = 0.01) -> np.ndarray:
    """Sparse-end diagonal start U_ii = sigma_ii + (1 - eps) rho_max.

    Valid for rho = rho_max = max_i sigma_ii. Raises DegenerateInstance if
    some off-diagonal |sigma_ij| >= rho_max, in which case no diagonal
    start is strictly feasible.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    sigma = p_max.sigma
    rho_max = p_max.rho_max
    off = np.abs(sigma - np.diag(np.diagonal(sigma)))
    if np.any(off >= rho_max):
        raise DegenerateInstance(
            "some |sigma_ij| >= max_i sigma_ii; diagonal start infeasible"
        )
    return np.diag(np.diagonal(sigma) + (1.0 - eps) * rho_max)


def scaling_warm_start(
    sigma: np.ndarray, U_k: np.ndarray, rho_k: float, rho_next: float
) -> np.ndarray:
    """Feasibility-preserving rescaling of a solution to a smaller penalty.

    Returns (1 - rho_next/rho_k) sigma + (rho_next/rho_k) U_k, which is
    strictly feasible for rho_next whenever U_k is strictly feasible for
    rho_k and sigma is PSD.
    """
    if not (0.0 < rho_next <= rho_k):
        raise ValueError("need 0 < rho_next <= rho_k")
    r = rho_next / rho_k
    return (1.0 - r) * sigma + r * U_k
