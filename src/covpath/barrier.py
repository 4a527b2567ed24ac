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
from .symmat import PDFactor, checked_symmetric, pd_factor

# Steps toward the box boundary (the corrector's primal and dual steps, the
# predictor's tangent step) stop STEP_FRAC of the way there.
STEP_FRAC = 0.99
# Orientation of the box faces along axis 0, upper then lower: face k lies
# at sigma + SIDE[k] rho, and its slack is (face - U) * SIDE[k] > 0.
SIDE = np.array([1.0, -1.0]).reshape(2, 1, 1)


@dataclass(frozen=True)
class Problem:
    """One covariance-selection instance: sample covariance plus penalty.

    ``faces`` = [sigma + rho, sigma - rho], the upper and lower faces of
    the dual box stacked along axis 0 (:data:`SIDE`), is computed once.
    """

    sigma: np.ndarray
    rho: float
    faces: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._store(checked_symmetric(np.array(self.sigma, dtype=float), "sigma"))

    @classmethod
    def from_symmetric(cls, sigma: np.ndarray, rho: float) -> "Problem":
        """The instance of a float64 ``sigma`` already known to be finite
        and exactly symmetric, stored as given: no copy and no symmetry or
        finiteness test. The diagonal and rho are tested as the
        constructor tests them."""
        p = object.__new__(cls)
        object.__setattr__(p, "rho", rho)
        p._store(sigma)
        return p

    def _store(self, sigma: np.ndarray) -> None:
        if (sigma.diagonal() <= 0.0).any():
            raise ValueError("sigma must have a positive diagonal")
        if not 0.0 < self.rho < np.inf:
            raise ValueError("rho must be finite and positive")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "faces", sigma + SIDE * self.rho)

    @property
    def n(self) -> int:
        return self.sigma.shape[0]

    @property
    def rho_max(self) -> float:
        return float(np.max(np.diagonal(self.sigma)))


def feasible(p: Problem, U: np.ndarray, name: str = "U") -> tuple[PDFactor, np.ndarray]:
    """Strict dual feasibility: U exactly symmetric (Cholesky reads one
    triangle), every box slack positive (:func:`slacks`) and U PD.

    Returns the factorization of U with its slacks, so the caller that goes
    on to use U neither factors it nor computes its slacks a second time.
    Otherwise raises Infeasible naming U as ``name`` and the failed test.
    """
    if U.shape != p.sigma.shape:
        raise Infeasible(f"{name} has shape {U.shape}, not {p.sigma.shape}")
    if not (U == U.T).all():
        fault = "has a NaN entry" if np.isnan(U).any() else "is not exactly symmetric"
        raise Infeasible(f"{name} {fault}")
    slack = slacks(p, U, name)
    try:
        return pd_factor(U), slack
    except NotPositiveDefinite as exc:
        raise Infeasible(f"{name} is not positive definite: {exc}") from exc


def slacks(p: Problem, U: np.ndarray, name: str = "U") -> np.ndarray:
    """Box slacks [s+, s-] = [sigma + rho - U, U - (sigma - rho)], stacked
    as ``p.faces`` is.

    Raises Infeasible naming ``name`` unless every slack is positive (a NaN is not).
    """
    slack = (p.faces - U) * SIDE
    if not slack.min() > 0.0:
        raise Infeasible(f"{name} leaves the box: a box slack is non-positive")
    return slack


def step_to_boundary(reach: float) -> float:
    """Step length along a direction whose largest relative move toward
    zero, over the quantities that must stay positive, is ``reach`` per
    unit step: 1, or ``STEP_FRAC`` of the distance to the boundary."""
    return 1.0 if reach <= STEP_FRAC else STEP_FRAC / reach


def multipliers(t: float, slack: np.ndarray) -> np.ndarray:
    """Elementwise barrier multipliers [L, M] = t / [s+, s-] of the box
    slacks ``slack`` (:func:`slacks`), stacked as they are, so
    ``L, M = multipliers(...)`` unpacks them."""
    if not t > 0.0:
        raise ValueError("t must be positive")
    return t / slack


def residual(LM: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Central-path residual H = L - M - X, with [L, M] the multipliers at U
    (:func:`multipliers`) and X = U^{-1}; zero exactly on the path."""
    H = LM[0] - LM[1]
    H -= X
    return H


def dual_objective(U: PDFactor) -> float:
    """Dual objective -log det U - n."""
    return -U.logdet - U.n


def primal_objective(p: Problem, X: np.ndarray, logdet: float) -> float:
    """Penalized log-likelihood log det X - tr(sigma X) - rho ||X||_1, with
    ``logdet`` = log det X."""
    return float(logdet - np.vdot(p.sigma, X) - p.rho * np.abs(X).sum())


def barrier_objective(U: PDFactor, t: float, slack: np.ndarray) -> float:
    """Barrier function value at U, whose box slacks are ``slack``.

    The barrier sums log slacks over all n^2 ordered index pairs, so each
    off-diagonal face is counted twice; this convention is what produces
    the factor 2t on off-diagonal terms in the row/column block problem.
    """
    return float(-U.logdet - t * np.log(slack[0] * slack[1]).sum())


def gap_bound(n: int, t: float) -> float:
    """Surrogate duality gap bound 2 n^2 t for the barrier solution."""
    if not t > 0.0:
        raise ValueError("t must be positive")
    return 2.0 * n * n * t


def initial_point(p: Problem) -> np.ndarray:
    """Sparse-end start that is strictly feasible at ``p.rho``.

    The diagonal U_ii = sigma_ii + 0.99 rho_max is valid for every
    rho >= rho_max = max_i sigma_ii; below rho_max it is carried to p.rho by
    :func:`scaling_warm_start`. Raises DegenerateInstance if some
    off-diagonal |sigma_ij| >= rho_max, in which case no diagonal start is
    strictly feasible.
    """
    sigma = p.sigma
    rho_max = p.rho_max
    off = np.abs(sigma - np.diag(np.diagonal(sigma)))
    if np.any(off >= rho_max):
        raise DegenerateInstance(
            "some |sigma_ij| >= max_i sigma_ii; diagonal start infeasible"
        )
    U = np.diag(np.diagonal(sigma) + 0.99 * rho_max)
    if p.rho < rho_max:
        U = scaling_warm_start(sigma, U, rho_max, p.rho)
    return U


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
