import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_pd
from covpath.exceptions import NotPositiveDefinite, SingularUpdate
from covpath.kernels import sub_inverse, swm_update_inverse
from covpath.symmat import (
    cholesky_logdet,
    invert_pd,
    pd_factor,
    scipy_linalg_extension,
    symmetrize,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def det_by_cofactors(m):
    """Independent determinant oracle: recursive cofactor expansion."""
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * m[0, j] * det_by_cofactors(minor)
    return total


class TestCholeskyLogdet:
    def test_identity(self):
        _, logdet = cholesky_logdet(np.eye(3))
        assert logdet == 0.0

    def test_diagonal(self):
        _, logdet = cholesky_logdet(np.diag([2.0, 3.0]))
        assert logdet == pytest.approx(np.log(6.0), rel=1e-15)

    def test_matches_cofactor_determinant(self):
        rng = np.random.default_rng(5)
        m = random_pd(rng, 5)
        _, logdet = cholesky_logdet(m)
        assert logdet == pytest.approx(np.log(det_by_cofactors(m)), rel=1e-12)

    def test_factor_reconstructs(self):
        rng = np.random.default_rng(6)
        m = random_pd(rng, 7)
        chol, _ = cholesky_logdet(m)
        assert np.allclose(chol @ chol.T, m, atol=1e-10)

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_logdet(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_near_singular_pivot_raises(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
        with pytest.raises(NotPositiveDefinite):
            cholesky_logdet(m)


class TestInvertPd:
    def test_diagonal(self):
        assert np.allclose(invert_pd(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), rtol=1e-15)

    def test_identity(self):
        assert np.array_equal(invert_pd(np.eye(4)), np.eye(4))

    def test_residual(self):
        rng = np.random.default_rng(7)
        m = random_pd(rng, 4)
        assert np.linalg.norm(invert_pd(m) @ m - np.eye(4)) <= 1e-10

    def test_roundtrip_property(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3, 5, 8, 13):
            m = random_pd(rng, n)
            back = invert_pd(invert_pd(m))
            assert np.linalg.norm(back - m) <= 1e-8 * np.linalg.norm(m)


class TestPDFactor:
    def test_inverse_identity_residual(self):
        rng = np.random.default_rng(9)
        m = random_pd(rng, 6)
        factor = pd_factor(m)
        rel = np.linalg.norm(factor.inverse @ m - np.eye(6)) / np.linalg.norm(np.eye(6))
        assert rel <= 1e-10
        assert factor.logdet == pytest.approx(np.linalg.slogdet(m)[1], rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 10, 30, 100])
    def test_inverse_is_exactly_symmetric_and_c_contiguous(self, n):
        rng = np.random.default_rng(100 + n)
        m = random_pd(rng, n)
        factor = pd_factor(m)
        inv = factor.inverse
        assert np.array_equal(inv, inv.T)
        assert inv.flags.c_contiguous
        ref = np.linalg.inv(m)
        assert np.linalg.norm(inv - ref) <= 1e-12 * np.linalg.norm(ref)
        assert factor.logdet == pytest.approx(np.linalg.slogdet(m)[1], rel=1e-12, abs=1e-12)


# Symmetric placements of a non-finite value: on the diagonal, off it.
NON_FINITE = [
    np.array([[v, 0.0], [0.0, 1.0]]) for v in (np.nan, np.inf, -np.inf)
] + [
    np.array([[1.0, v], [v, 1.0]]) for v in (np.nan, np.inf, -np.inf)
] + [np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, np.nan]])]


@pytest.mark.parametrize("m", NON_FINITE)
def test_non_finite_matrix_is_not_pd(m):
    with pytest.raises(NotPositiveDefinite):
        pd_factor(m)
    with pytest.raises(NotPositiveDefinite, match="Cholesky factorization failed|pivot below"):
        cholesky_logdet(m)


def _feasible_row_update(rng, U, i, scale=0.05):
    """Random row replacement that keeps U positive definite."""
    n = U.shape[0]
    mask = np.arange(n) != i
    for _ in range(50):
        new_row = U[i, mask] + scale * rng.standard_normal(n - 1)
        new_diag = U[i, i] + abs(scale * rng.standard_normal())
        trial = U.copy()
        trial[i, mask] = new_row
        trial[mask, i] = new_row
        trial[i, i] = new_diag
        if np.all(np.linalg.eigvalsh(trial) > 1e-8):
            return trial, new_row, new_diag
    raise AssertionError("no feasible row update found")


class TestSwmUpdate:
    def test_noop_update_is_identity(self):
        rng = np.random.default_rng(10)
        U = random_pd(rng, 5)
        inv = invert_pd(U)
        mask = np.arange(5) != 2
        out = swm_update_inverse(inv, 2, U[2, mask], U[2, 2], U[2, mask], U[2, 2])
        assert np.array_equal(out, inv)

    def test_2x2_closed_form(self):
        out = swm_update_inverse(np.eye(2), 0, np.array([0.5]), 1.0, np.array([0.0]), 1.0)
        expected = np.array([[1.0, -0.5], [-0.5, 1.0]]) / 0.75
        assert np.allclose(out, expected, atol=1e-14)

    def test_twenty_successive_updates_track_fresh_inverse(self):
        rng = np.random.default_rng(11)
        U = random_pd(rng, 10)
        inv = invert_pd(U)
        for _ in range(20):
            i = int(rng.integers(10))
            mask = np.arange(10) != i
            trial, new_row, new_diag = _feasible_row_update(rng, U, i)
            inv = swm_update_inverse(inv, i, new_row, new_diag, U[i, mask], U[i, i])
            U = trial
        assert np.linalg.norm(inv - invert_pd(U)) <= 1e-8

    def test_composition_up_to_n_stays_tight(self):
        rng = np.random.default_rng(12)
        n = 8
        U = random_pd(rng, n)
        inv = invert_pd(U)
        for i in range(n):
            mask = np.arange(n) != i
            trial, new_row, new_diag = _feasible_row_update(rng, U, i)
            inv = swm_update_inverse(inv, i, new_row, new_diag, U[i, mask], U[i, i])
            U = trial
        assert np.linalg.norm(inv - invert_pd(U)) <= 1e-8

    def test_singular_update_raises(self):
        inv = np.eye(2)
        with pytest.raises(SingularUpdate):
            swm_update_inverse(inv, 0, np.array([1.0]), 1.0, np.array([0.0]), 1.0)
        assert np.array_equal(inv, np.eye(2))  # the in-place update wrote nothing

    def test_in_place_updates_keep_inverse_exactly_symmetric(self):
        # Each update ends by averaging inv with its transpose in place:
        # entries (i, j) and (j, i) receive the same sum, so symmetry is exact.
        rng = np.random.default_rng(14)
        n = 30
        U = random_pd(rng, n)
        inv = invert_pd(U)
        for _ in range(200):
            i = int(rng.integers(n))
            mask = np.arange(n) != i
            trial, new_row, new_diag = _feasible_row_update(rng, U, i)
            out = swm_update_inverse(inv, i, new_row, new_diag, U[i, mask], U[i, i])
            assert out is inv
            assert np.array_equal(inv, inv.T)
            U = trial
        assert np.linalg.norm(inv - invert_pd(U)) <= 1e-8


class TestSubInverse:
    def test_identity(self):
        assert np.allclose(sub_inverse(np.eye(3), 2), np.eye(2))

    def test_2x2_closed_form(self):
        U = np.array([[2.0, 1.0], [1.0, 2.0]])
        out = sub_inverse(invert_pd(U), 1)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_matches_deleted_submatrix_inverse(self, n):
        rng = np.random.default_rng(100 + n)
        U = random_pd(rng, n)
        inv = invert_pd(U)
        for i in range(n):
            keep = np.arange(n) != i
            direct = invert_pd(U[np.ix_(keep, keep)])
            out = sub_inverse(inv, i)
            assert np.linalg.norm(out - direct) <= 1e-10
            assert np.array_equal(out, out.T)


def test_symmetrize_exact_on_symmetric_input():
    rng = np.random.default_rng(13)
    m = random_pd(rng, 4)
    assert np.array_equal(symmetrize(m), m)


def _run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports covpath from this
    tree; return its standard output."""
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestScipyLinalgExtension:
    # Checks that run after both covpath and scipy.linalg are imported, in
    # either order: reference and the tests import scipy.linalg in the same
    # process as the library.
    ONE_COPY = """
import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack
from covpath import kernels, symmat
assert symmat._dpotrf is lapack.dpotrf
assert symmat._dtrtri is lapack.dtrtri
assert kernels._dposv is lapack.dposv
assert kernels._dsyr is blas.dsyr
assert sys.modules["scipy.linalg._flapack"] is symmat.scipy_linalg_extension("_flapack")
assert np.array_equal(scipy.linalg.cholesky(4.0 * np.eye(3)), 2.0 * np.eye(3))
print("one copy")
"""

    @pytest.mark.parametrize("first", ["covpath", "scipy.linalg"])
    def test_one_copy_of_each_routine_whatever_the_import_order(self, first):
        assert _run_fresh(f"import {first}\n{self.ONE_COPY}").strip() == "one copy"

    def test_missing_extension_is_named(self):
        with pytest.raises(ModuleNotFoundError, match="scipy.linalg._no_such_module") as err:
            scipy_linalg_extension("_no_such_module")
        assert err.value.name == "scipy.linalg._no_such_module"
        assert "scipy.linalg._no_such_module" not in sys.modules

    def test_missing_scipy_is_named(self):
        # A None entry in sys.modules makes scipy unimportable.
        out = _run_fresh(
            "sys.modules['scipy'] = None\n"
            "try:\n    import covpath\n"
            "except ModuleNotFoundError as exc:\n    print(exc.name)\n"
        )
        assert out.strip() == "scipy"
