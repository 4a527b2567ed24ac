"""Exception types shared across the package."""


class CovpathError(Exception):
    """Base class for all covpath errors."""


class NotPositiveDefinite(CovpathError):
    """Matrix failed the positive-definiteness test (pivot below tolerance)."""


class SingularUpdate(CovpathError):
    """Rank-two inverse update has a numerically zero denominator."""


class Infeasible(CovpathError):
    """Point violates the strict box constraints or positive definiteness."""


class DegenerateInstance(CovpathError):
    """The instance admits no path start: some |sigma_ij| >= max_i sigma_ii,
    so the diagonal start is infeasible, or sigma is not positive
    semidefinite, so the scaling warm start can leave the feasible set."""


class NoFeasibleRoot(CovpathError):
    """Neither root of the diagonal quadratic satisfies the feasibility bounds."""


class NumericalBreakdown(CovpathError):
    """A row kernel broke down: non-finite cubic coefficients, or a Newton
    system that is not positive definite."""


class MaxSweepsExceeded(CovpathError):
    """Corrector hit the sweep cap before reaching the residual tolerance.

    Carries the best iterate seen so far in ``best`` and its residual norm
    in ``residual``.
    """

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class MaxItersExceeded(CovpathError):
    """Iterative solver hit its iteration cap."""


class LineSearchFailure(CovpathError):
    """Backtracking line search could not find an acceptable step."""


class StepCollapse(CovpathError):
    """Predictor step stayed infeasible after the maximum number of halvings."""


class ParseError(CovpathError):
    """Input file could not be parsed as a numeric matrix."""


class AsymmetricInput(CovpathError):
    """Input matrix asymmetry exceeds the acceptance tolerance."""


class NonPositiveDiagonal(CovpathError):
    """Covariance input has a non-positive diagonal entry."""
