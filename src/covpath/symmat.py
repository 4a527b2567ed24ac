"""Dense symmetric positive-definite linear algebra.

Factorization, log-determinant, inversion, rank-structured inverse updates
after a row/column replacement, and sub-inverse extraction. Everything
operates on plain float64 numpy arrays; symmetry is preserved by explicit
symmetrization where floating point could break it.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import NotPositiveDefinite, SingularUpdate

# A Cholesky pivot at or below PIVOT_RTOL * max(diag) counts as not PD.
PIVOT_RTOL = 1e-12


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part (m + m.T)/2 as a new array."""
    return 0.5 * (m + m.T)


def cholesky_logdet(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor and log-determinant of a symmetric PD matrix.

    Raises NotPositiveDefinite if the factorization fails or any pivot
    falls at or below ``PIVOT_RTOL * max(diag(m))``.
    """
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    d = np.diagonal(chol)
    if np.any(d * d <= PIVOT_RTOL * np.max(np.diagonal(m))):
        raise NotPositiveDefinite("pivot below relative tolerance")
    return chol, float(2.0 * np.sum(np.log(d)))


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
    """Factor a symmetric PD matrix, caching inverse and log-determinant."""
    chol, logdet = cholesky_logdet(m)
    inv = symmetrize(scipy.linalg.cho_solve((chol, True), np.eye(m.shape[0])))
    return PDFactor(matrix=np.array(m, dtype=float), logdet=logdet, inverse=inv)


def invert_pd(m: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric PD matrix via Cholesky; output is symmetric."""
    return pd_factor(m).inverse


def swm_update_inverse(
    inv: np.ndarray,
    i: int,
    new_row: np.ndarray,
    new_diag: float,
    old_row: np.ndarray,
    old_diag: float,
) -> np.ndarray:
    """Inverse of U after replacing its row/column ``i``, in O(n^2).

    ``inv`` is the inverse of the current U; ``old_row``/``old_diag`` are the
    off-diagonal entries (positions != i, ascending) and diagonal entry of
    row i of that U, and ``new_row``/``new_diag`` the replacement values.
    The replacement is the symmetric rank-2 update ``U + e_i d^T + d e_i^T``
    with ``d[i] = (new_diag - old_diag)/2``, inverted with the
    Sherman-Woodbury-Morrison identity.

    Raises SingularUpdate when the 2x2 capacitance matrix is numerically
    singular (the updated matrix would not be PD).
    """
    n = inv.shape[0]
    d = np.zeros(n)
    mask = np.arange(n) != i
    d[mask] = np.asarray(new_row, dtype=float) - np.asarray(old_row, dtype=float)
    d[i] = 0.5 * (new_diag - old_diag)
    if not np.any(d):
        return inv.copy()

    # U_new = U + A B^T with A = [e_i, d], B = [d, e_i].
    inv_ei = inv[:, i]
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
    # inv_new = inv - W S^{-1} Z^T with W = [inv_ei, inv_d], Z = [inv_d, inv_ei]
    # and S^{-1} = 1/det [[s22, -s12], [-s21, s11]].
    c11 = s22 / det
    c12 = -s12 / det
    c21 = -s21 / det
    c22 = s11 / det
    left1 = inv_ei * c11 + inv_d * c21
    left2 = inv_ei * c12 + inv_d * c22
    correction = np.outer(left1, inv_d) + np.outer(left2, inv_ei)
    return symmetrize(inv - correction)


def sub_inverse(inv: np.ndarray, i: int) -> np.ndarray:
    """Inverse of U with row/column ``i`` deleted, from ``inv = U^{-1}``.

    Uses the Schur-complement identity
    ``(U_del)^{-1} = inv(-i,-i) - inv(-i,i) inv(i,-i) / inv(i,i)`` in O(n^2).
    """
    n = inv.shape[0]
    mask = np.arange(n) != i
    col = inv[mask, i]
    block = inv[np.ix_(mask, mask)]
    return symmetrize(block - np.outer(col, col) / inv[i, i])
