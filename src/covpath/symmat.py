"""Dense symmetric positive-definite linear algebra.

Factorization, log-determinant, inversion, rank-structured inverse updates
after a row/column replacement, and sub-inverse extraction. Everything
operates on plain float64 numpy arrays. A fresh inverse comes from one
LAPACK Cholesky factorization L L^T as L^{-T} L^{-1}, a product that numpy
computes as one triangle and mirrors, so it is exactly symmetric; the
O(n^2) updates of a symmetric inverse add ``±y y^T`` terms only, which keep
it so.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger as _dger
from scipy.linalg.lapack import dpotrf as _dpotrf
from scipy.linalg.lapack import dtrtri as _dtrtri

from .exceptions import NotPositiveDefinite, SingularUpdate

# A Cholesky pivot d with d^2 not above PIVOT_RTOL * max(diag) counts as
# not PD; so does a non-finite pivot.
PIVOT_RTOL = 1e-12


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part (m + m.T)/2 as a new array."""
    return 0.5 * (m + m.T)


def cholesky_logdet(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor (Fortran order, upper triangle zero) and
    log-determinant of a symmetric PD matrix; reads the lower triangle.

    Raises NotPositiveDefinite if the factorization fails or any squared
    pivot is not above ``PIVOT_RTOL * max(diag(m))``, which a NaN or
    infinite entry never is.
    """
    chol, info = _dpotrf(m, lower=1, clean=1)
    if info != 0:
        raise NotPositiveDefinite(f"Cholesky factorization failed (info {info})")
    d = chol.diagonal()
    if not (d * d).min() > PIVOT_RTOL * m.diagonal().max():
        raise NotPositiveDefinite("pivot below relative tolerance")
    return chol, 2.0 * float(np.log(d).sum())


def is_pd(m: np.ndarray) -> bool:
    """True iff ``m`` passes the Cholesky pivot test."""
    try:
        cholesky_logdet(m)
    except NotPositiveDefinite:
        return False
    return True


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
    triangle, so the inverse is exactly symmetric, and it is C-contiguous,
    as the in-place rank-1 updates of ``_add_outer`` want it. At n <= 30
    this takes 30-60 % less time than LAPACK ``dpotri`` followed by
    mirroring a triangle; at n = 100 the two cost the same.
    """
    chol, logdet = cholesky_logdet(m)
    half, info = _dtrtri(chol, lower=1, overwrite_c=1)
    if info != 0:
        raise NotPositiveDefinite(f"inversion of the Cholesky factor failed (info {info})")
    return PDFactor(matrix=np.array(m, dtype=float), logdet=logdet, inverse=half.T @ half)


def invert_pd(m: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric PD matrix via Cholesky; output is exactly
    symmetric."""
    return pd_factor(m).inverse


def _add_outer(a: np.ndarray, sign: float, y: np.ndarray) -> None:
    """``a += sign * y y^T`` in place, with ``sign`` = +1 or -1.

    Entry (i, j) receives ``±y_i y_j`` and entry (j, i) ``±y_j y_i``, the same
    product, so an exactly symmetric ``a`` stays exactly symmetric.
    """
    if a.flags.c_contiguous:
        # BLAS sees the transposed (Fortran-order) view; y y^T is symmetric.
        _dger(sign, y, y, a=a.T, overwrite_a=1)
    else:
        a += sign * np.outer(y, y)


def swm_update_inverse(
    inv: np.ndarray,
    i: int,
    new_row: np.ndarray,
    new_diag: float,
    old_row: np.ndarray,
    old_diag: float,
) -> np.ndarray:
    """Update ``inv`` in place to the inverse of U after replacing its
    row/column ``i``, in O(n^2); returns ``inv``.

    ``inv`` is the (symmetric) inverse of the current U; ``old_row``/
    ``old_diag`` are the off-diagonal entries (positions != i, ascending) and
    diagonal entry of row i of that U, and ``new_row``/``new_diag`` the
    replacement values. The replacement is the symmetric rank-2 update
    ``U + e_i d^T + d e_i^T`` with ``d[i] = (new_diag - old_diag)/2``,
    inverted with the Sherman-Woodbury-Morrison identity and applied as two
    signed symmetric rank-1 updates, so a symmetric ``inv`` stays exactly
    symmetric.

    Raises SingularUpdate, leaving ``inv`` untouched, when the 2x2
    capacitance matrix is numerically singular (the updated matrix would not
    be PD).
    """
    n = inv.shape[0]
    new_row = np.asarray(new_row, dtype=float)
    old_row = np.asarray(old_row, dtype=float)
    d = np.empty(n)
    np.subtract(new_row[:i], old_row[:i], out=d[:i])
    np.subtract(new_row[i:], old_row[i:], out=d[i + 1:])
    d[i] = 0.5 * (new_diag - old_diag)
    if not np.any(d):
        return inv

    # U_new = U + A B^T with A = [e_i, d], B = [d, e_i]. Row i of the
    # symmetric inv is its column i; copy it, since inv is overwritten below.
    inv_ei = inv[i].copy()
    inv_d = inv @ d
    # capacitance S = I2 + B^T inv A
    s11 = 1.0 + d @ inv_ei
    s12 = d @ inv_d
    s21 = inv_ei[i]
    s22 = 1.0 + inv_d[i]
    det = s11 * s22 - s12 * s21
    scale = max(abs(s11 * s22), abs(s12 * s21), 1.0)
    if abs(det) <= 1e-14 * scale:
        raise SingularUpdate("rank-2 capacitance matrix is numerically singular")
    # inv_new = inv - W S^{-1} Z^T with W = [inv_ei, inv_d] and Z = W P, P the
    # 2x2 swap, so the core M = S^{-1} P = 1/det [[-s12, s22], [s11, -s21]] is
    # symmetric (s11 = s22 up to roundoff; their mean is used). Rotating W
    # onto the eigenvectors (cos, sin) and (-sin, cos) of M leaves
    # inv - lam1 y1 y1^T - lam2 y2 y2^T with y_k = W v_k.
    m11 = -s12 / det
    m12 = 0.5 * (s11 + s22) / det
    m22 = -s21 / det
    theta = 0.5 * math.atan2(2.0 * m12, m11 - m22)
    cs, sn = math.cos(theta), math.sin(theta)
    for lam, a, b in (
        (m11 * cs * cs + 2.0 * m12 * cs * sn + m22 * sn * sn, cs, sn),
        (m11 * sn * sn - 2.0 * m12 * cs * sn + m22 * cs * cs, -sn, cs),
    ):
        if lam != 0.0:
            root = math.sqrt(abs(lam))
            _add_outer(inv, -math.copysign(1.0, lam), (root * a) * inv_ei + (root * b) * inv_d)
    return inv


def sub_inverse(inv: np.ndarray, i: int) -> np.ndarray:
    """Inverse of U with row/column ``i`` deleted, from the symmetric
    ``inv = U^{-1}``.

    Uses the Schur-complement identity
    ``(U_del)^{-1} = inv(-i,-i) - inv(-i,i) inv(i,-i) / inv(i,i)`` in O(n^2):
    four slice copies of ``inv(-i,-i)`` and one symmetric rank-1 update.
    """
    n = inv.shape[0]
    out = np.empty((n - 1, n - 1))
    out[:i, :i] = inv[:i, :i]
    out[:i, i:] = inv[:i, i + 1:]
    out[i:, :i] = inv[i + 1:, :i]
    out[i:, i:] = inv[i + 1:, i + 1:]
    if n > 1:
        y = np.concatenate((inv[i, :i], inv[i, i + 1:])) / math.sqrt(inv[i, i])
        _add_outer(out, -1.0, y)
    return out
