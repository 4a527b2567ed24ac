"""Problem definition and central-path quantities for covariance selection.

The estimation problem is solved through its box-constrained log-det dual:
minimize -log det U - n subject to |U_ij - sigma_ij| <= rho, smoothed by a
log-barrier with weight t on every box face. This module holds the problem
container, the barrier multipliers L and M, the central-path residual
H = L - M - U^{-1}, objectives, feasibility tests, and the two warm starts
(sparse-end diagonal start and penalty rescaling).
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateInstance, Infeasible, NotPositiveDefinite
from .symmat import PDFactor, cholesky_logdet, pd_factor, symmetrize

# Steps toward the box boundary (the corrector's primal and dual steps, the
# predictor's tangent step) stop STEP_FRAC of the way there.
STEP_FRAC = 0.99


@dataclass(frozen=True)
class Problem:
    """One covariance-selection instance: sample covariance plus penalty.

    ``upper`` = sigma + rho and ``lower`` = sigma - rho are the faces of
    the dual box, computed once.
    """

    sigma: np.ndarray
    rho: float
    upper: np.ndarray = field(init=False, repr=False, compare=False)
    lower: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError("sigma must be a square matrix")
        # Most callers pass an exactly symmetric sigma; only the rest pay
        # for the tolerance check and the averaging. NaN fails both tests.
        if (sigma == sigma.T).all():
            sigma = sigma.copy()
        elif np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(sigma).max())):
            sigma = symmetrize(sigma)
        else:
            raise ValueError("sigma must be symmetric")
        if (sigma.diagonal() <= 0.0).any():
            raise ValueError("sigma must have a positive diagonal")
        if not self.rho > 0.0:
            raise ValueError("rho must be positive")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "upper", sigma + self.rho)
        object.__setattr__(self, "lower", sigma - self.rho)

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


def feasible(
    p: Problem, U: np.ndarray | PDFactor
) -> tuple[PDFactor, tuple[np.ndarray, np.ndarray]] | None:
    """Strict dual feasibility: every box slack positive (:func:`slacks`)
    and U PD.

    Returns the factorization of a feasible U with its slacks, and None
    otherwise, so the caller that goes on to use U neither factors it nor
    computes its slacks a second time. A PDFactor is already factored:
    only its box is tested, and it comes back as it is.
    """
    matrix = U.matrix if isinstance(U, PDFactor) else U
    if matrix.shape != p.sigma.shape:
        return None
    try:
        slack = slacks(p, matrix)
        return (U if isinstance(U, PDFactor) else pd_factor(U)), slack
    except (Infeasible, NotPositiveDefinite):
        return None


def slacks(p: Problem, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Box slacks (slack+, slack-) = (sigma + rho - U, U - (sigma - rho)).

    Raises Infeasible unless every slack is positive (a NaN is not).
    """
    slack_plus = p.upper - U
    slack_minus = U - p.lower
    if not (slack_plus.min() > 0.0 and slack_minus.min() > 0.0):
        raise Infeasible("box slack is non-positive")
    return slack_plus, slack_minus


def step_to_boundary(reach: float) -> float:
    """Step length along a direction whose largest relative move toward
    zero, over the quantities that must stay positive, is ``reach`` per
    unit step: 1, or ``STEP_FRAC`` of the distance to the boundary."""
    return 1.0 if reach <= STEP_FRAC else STEP_FRAC / reach


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


def primal_objective(p: Problem, X: np.ndarray, logdet: float | None = None) -> float:
    """Penalized log-likelihood log det X - tr(sigma X) - rho ||X||_1.

    ``logdet`` is log det X when the caller already has it.
    """
    if logdet is None:
        _, logdet = cholesky_logdet(X)
    return float(logdet - np.vdot(p.sigma, X) - p.rho * np.abs(X).sum())


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
    return float(-U.logdet - t * np.log(slack_plus * slack_minus).sum())


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
