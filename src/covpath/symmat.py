"""Dense symmetric positive-definite linear algebra.

Symmetry checks, factorization, log-determinant and inversion of plain
float64 numpy arrays. A fresh inverse comes from one LAPACK Cholesky
factorization L L^T as L^{-T} L^{-1}, a product that numpy computes as one
triangle and mirrors, so it is exactly symmetric. The rank-2 inverse
updates of the paper's block coordinate-descent corrector, which only the
tests run, are kept with that corrector's row solvers.

LAPACK and BLAS come from scipy's f2py extension modules
``scipy.linalg._flapack`` and ``scipy.linalg._fblas``, which
:func:`scipy_linalg_extension` loads without running ``scipy.linalg``'s
package import. That import clones the numpy namespace for scipy's array
API layer, which loads numpy.f2py, numpy.testing, numpy.ma and
numpy.random, and would take about half of covpath's start-up. The
routines are the very objects that ``scipy.linalg.lapack`` and
``scipy.linalg.blas`` export, in whichever order the two are imported.
"""

import importlib.util
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from types import ModuleType

import numpy as np

from .exceptions import NotPositiveDefinite


def scipy_linalg_extension(name: str) -> ModuleType:
    """scipy's compiled module ``scipy.linalg.<name>``, such as ``_flapack``,
    loaded without importing the ``scipy`` or ``scipy.linalg`` packages.

    The module goes into ``sys.modules`` under its own name, so a later
    ``import scipy.linalg`` reuses it (scipy takes it with ``from
    scipy.linalg import _flapack``, which looks there; the package gets no
    such attribute). After that import it is the module already there.

    Raises ModuleNotFoundError naming ``scipy`` when scipy is not installed,
    and naming ``scipy.linalg.<name>`` when it has no such extension module.
    """
    qualified = f"scipy.linalg.{name}"
    if qualified in sys.modules:
        return sys.modules[qualified]
    scipy_spec = importlib.util.find_spec("scipy")  # locates, does not import
    if scipy_spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    linalg = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
    spec = FileFinder(linalg, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(qualified)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {qualified!r}", name=qualified)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[qualified] = module
    return module


_flapack = scipy_linalg_extension("_flapack")
_dpotrf = _flapack.dpotrf
_dtrtri = _flapack.dtrtri

# A Cholesky pivot d with d^2 not above PIVOT_RTOL * max(diag) counts as
# not PD; so does a non-finite pivot.
PIVOT_RTOL = 1e-12


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part (m + m.T)/2 as a new array."""
    return 0.5 * (m + m.T)


def checked_symmetric(m: np.ndarray, name: str) -> np.ndarray:
    """The symmetric matrix a finite input ``m`` stands for: ``m`` itself when
    exactly symmetric, its symmetric part when every |m_ij - m_ji| is at
    most 1e-12 max(1, max|m_ij|); otherwise ValueError naming ``name``.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    # Most callers pass an exactly symmetric matrix; only the rest pay
    # for the tolerance check and the averaging. A NaN fails the exact
    # test, so a non-finite matrix skips both and fails the last one.
    if not (m == m.T).all() and np.isfinite(m).all():
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(m).max())):
            raise ValueError(f"{name} must be symmetric")
        m = symmetrize(m)
    if not np.isfinite(m).all():
        raise ValueError(f"{name} must be finite")
    return m


def cholesky_logdet(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor (Fortran order, upper triangle zero) and
    log-determinant of a symmetric PD matrix; reads the lower triangle.

    Raises NotPositiveDefinite if the factorization fails or any squared
    pivot is not above ``PIVOT_RTOL * max(diag(m))``, which a NaN or
    infinite entry never is.
    """
    # LAPACK flags go in by position, as f2py parses keywords slowly:
    # (lower, clean) here, (lower, unitdiag, overwrite_c) for dtrtri.
    chol, info = _dpotrf(m, 1, 1)
    if info != 0:
        raise NotPositiveDefinite(f"Cholesky factorization failed (info {info})")
    d = chol.diagonal()
    # Rounded squaring is monotone on the pivots, which are positive (a NaN
    # fails either way), so the smallest squared pivot is the smallest
    # pivot squared.
    smallest = d.min()
    if not smallest * smallest > PIVOT_RTOL * m.diagonal().max():
        raise NotPositiveDefinite("pivot below relative tolerance")
    return chol, 2.0 * float(np.log(d).sum())


@dataclass(frozen=True)
class PDFactor:
    """A symmetric PD matrix together with its cached inverse and log-det."""

    matrix: np.ndarray
    logdet: float
    inverse: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def pd_factor(m: np.ndarray) -> PDFactor:
    """Factor a symmetric PD matrix, caching inverse and log-determinant.

    With m = L L^T, the inverse is L^{-T} L^{-1}: LAPACK ``dtrtri`` inverts
    the Cholesky factor and one product forms it. numpy evaluates
    A^T A with one symmetric rank-k update (BLAS ``syrk``) and mirrors its
    triangle, so the inverse is exactly symmetric. At n <= 30 this takes
    30-60 % less time than LAPACK ``dpotri`` followed by mirroring a
    triangle; at n = 100 the two cost the same.
    """
    chol, logdet = cholesky_logdet(m)
    half, info = _dtrtri(chol, 1, 0, 1)
    if info != 0:
        raise NotPositiveDefinite(f"inversion of the Cholesky factor failed (info {info})")
    return PDFactor(matrix=np.array(m, dtype=float), logdet=logdet, inverse=half.T @ half)


def invert_pd(m: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric PD matrix via Cholesky; output is exactly
    symmetric."""
    return pd_factor(m).inverse
