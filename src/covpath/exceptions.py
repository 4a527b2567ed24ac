"""Exception types shared across the package."""


class CovpathError(Exception):
    """Base class for all covpath errors."""


class NotPositiveDefinite(CovpathError):
    """Matrix failed the positive-definiteness test (pivot below tolerance)."""


class SingularUpdate(CovpathError):
    """Rank-two inverse update has a numerically zero denominator."""


class Infeasible(CovpathError):
    """Point is not symmetric, inside the box and PD, or a 1-D move has no
    root in the box; the message names the failed condition."""


class DegenerateInstance(CovpathError):
    """The instance admits no path start: some |sigma_ij| >= max_i sigma_ii,
    so the diagonal start is infeasible, or sigma is not positive
    semidefinite, so the scaling warm start can leave the feasible set."""


class NumericalBreakdown(CovpathError):
    """A row kernel broke down: non-finite cubic coefficients, or a Newton
    system that is not positive definite."""


class MaxSweepsExceeded(CovpathError):
    """Corrector stopped short of the residual tolerance: it hit its step
    or sweep cap, or (``corrector.corrector_run``) its residual stalled
    above the tolerance for ``corrector.STALL_STEPS`` full Newton steps.

    Carries an iterate in ``best`` and its residual norm in ``residual``:
    at the cap the run's last iterate, on a stall its lowest-residual one.
    """

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class MaxItersExceeded(CovpathError):
    """Iterative solver hit its iteration cap."""


class LineSearchFailure(CovpathError):
    """Backtracking line search could not find an acceptable step."""


class ParseError(CovpathError):
    """Input file could not be parsed as a numeric matrix."""


class AsymmetricInput(CovpathError):
    """Input matrix asymmetry exceeds the acceptance tolerance."""


class NonPositiveDiagonal(CovpathError):
    """Covariance input has a non-positive diagonal entry."""
