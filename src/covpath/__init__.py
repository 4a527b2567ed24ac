"""Regularization paths for l1-penalized covariance selection.

Solves the box-constrained log-det dual of the penalized maximum-likelihood
precision estimation problem along a grid of penalties, using a barrier
formulation with scaling warm starts or conjugate-gradient tangent steps
and a primal-dual Newton-CG corrector; the paper's closed-form block
coordinate-descent corrector stays as the reference. Includes an online
mode that carries a solved instance to a perturbed covariance.

The package namespace holds the library API: the path, online and
single-penalty solvers, the instance loaders and generator, their
configuration, problem and result types, and the exceptions that these
entry points raise. Building blocks live in the submodules: the Newton-CG
corrector and the reference block coordinate-descent corrector with its
row kernel (``corrector``, ``kernels``), CG, and the oracles; the
exceptions that only they raise stay in ``covpath.exceptions``.
"""

from .barrier import Problem
from .corrector import CorrectorConfig
from .data import GeneratorSpec, generate_problem, load_covariance, load_samples
from .exceptions import (
    AsymmetricInput,
    CovpathError,
    DegenerateInstance,
    Infeasible,
    LineSearchFailure,
    MaxSweepsExceeded,
    NonPositiveDiagonal,
    NotPositiveDefinite,
    ParseError,
)
from .path import (
    PathConfig,
    PathFailure,
    PathPoint,
    RegularizationPath,
    run_online,
    run_path,
    solve_at,
)
from .symmat import PDFactor

__version__ = "0.1.0"
