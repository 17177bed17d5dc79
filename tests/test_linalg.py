"""Contract tests for the dense linear-algebra kernels."""

import numpy as np
import pytest

from transferlab.errors import ContractViolation, DegenerateInput, SingularMatrixError
from transferlab.linalg import (
    ROW_BLOCK,
    logdet_psd,
    row_blocks,
    orthonormalize,
    singular_values,
    sym_spectral,
)


def charpoly_roots_by_bisection(m, tol=1e-12):
    """Independent eigenvalue oracle: bisect sign changes of det(M - t I).

    Scans a fine grid inside the Gershgorin interval; assumes simple
    eigenvalues, which holds almost surely for random symmetric input.
    """
    m = np.asarray(m, dtype=np.float64)
    radius = np.abs(m).sum(axis=1).max() + 1.0

    def f(t):
        return np.linalg.det(m - t * np.eye(m.shape[0]))

    grid = np.linspace(-radius, radius, 20001)
    vals = [f(t) for t in grid]
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0:
            lo, hi, flo = a, b, fa
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                fm = f(mid)
                if fm == 0.0:
                    lo = hi = mid
                elif flo * fm < 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    return np.array(sorted(roots, reverse=True))


class TestSymSpectral:
    def test_identity(self):
        lam, vec = sym_spectral(np.eye(3))
        np.testing.assert_allclose(lam, [1.0, 1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(vec @ vec.T, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        lam, _ = sym_spectral(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(lam, [4.0, 1.0], atol=1e-14)

    def test_matches_charpoly_bisection_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5))
        m = a + a.T
        lam, vec = sym_spectral(m)
        oracle = charpoly_roots_by_bisection(m)
        assert oracle.size == 5
        np.testing.assert_allclose(lam, oracle, atol=1e-8)
        recon = (vec * lam) @ vec.T
        assert np.linalg.norm(recon - m) <= 1e-8 * np.linalg.norm(m)

    def test_descending_and_reconstruction(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(2, 30))
            a = rng.standard_normal((k, k))
            m = 0.5 * (a + a.T)
            lam, vec = sym_spectral(m)
            assert np.all(np.diff(lam) <= 1e-12)
            recon = (vec * lam) @ vec.T
            assert np.linalg.norm(recon - m) <= 1e-8 * max(np.linalg.norm(m), 1e-12)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        m = a + a.T
        eps = 1e-3
        lam, _ = sym_spectral(m)
        lam_shift, _ = sym_spectral(m + eps * np.eye(6))
        np.testing.assert_allclose(lam_shift - eps, lam, atol=1e-8)

    def test_rejects_asymmetric_and_nonsquare(self):
        with pytest.raises(ContractViolation):
            sym_spectral(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ContractViolation):
            sym_spectral(np.ones((2, 3)))
        with pytest.raises(ContractViolation):
            sym_spectral(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestOrthonormalize:
    def test_orthonormal_input_unchanged(self):
        rng = np.random.default_rng(0)
        q = orthonormalize(rng.standard_normal((5, 3)))
        again = orthonormalize(q)
        np.testing.assert_allclose(again, q, atol=1e-13)

    def test_scaled_axes(self):
        m = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        q = orthonormalize(m)
        np.testing.assert_allclose(q, np.eye(3)[:, :2], atol=1e-14)

    def test_span_preserved_random(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((6, 3))
        q = orthonormalize(m)
        assert np.linalg.norm(q.T @ q - np.eye(3)) < 1e-10
        p = q @ q.T
        np.testing.assert_allclose(p @ m, m, atol=1e-10)

    def test_rank_deficient_rejected(self):
        m = np.ones((4, 2))
        with pytest.raises(DegenerateInput):
            orthonormalize(m)

    def test_wide_rejected(self):
        with pytest.raises(ContractViolation):
            orthonormalize(np.ones((2, 3)))


class TestLogdetPsd:
    def test_identity_is_zero(self):
        assert logdet_psd(np.eye(7)) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal(self):
        assert logdet_psd(np.diag([1.0, 4.0])) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_matches_spectral_oracle(self):
        rng = np.random.default_rng(8)
        b = rng.standard_normal((6, 6))
        m = b @ b.T + 0.1 * np.eye(6)
        lam, _ = sym_spectral(m)
        assert logdet_psd(m) == pytest.approx(float(np.log(lam).sum()), abs=1e-9)

    def test_product_rule_commuting_diagonals(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            a = np.diag(rng.uniform(0.1, 5.0, 4))
            b = np.diag(rng.uniform(0.1, 5.0, 4))
            assert logdet_psd(a @ b) == pytest.approx(
                logdet_psd(a) + logdet_psd(b), abs=1e-9
            )

    def test_nonpd_reports_pivot(self):
        m = np.diag([1.0, 2.0, 0.0, 3.0])
        with pytest.raises(SingularMatrixError):
            logdet_psd(m)

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractViolation):
            logdet_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_singular_values_descending():
    rng = np.random.default_rng(10)
    sv = singular_values(rng.standard_normal((5, 3)))
    assert np.all(np.diff(sv) <= 0)


class TestRowBlocks:
    @pytest.mark.parametrize("n", [0, 1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
                                   ROW_BLOCK + 2, 2 * ROW_BLOCK + 1, 3 * ROW_BLOCK + 7])
    def test_blocks_cover_the_rows_in_order(self, n):
        blocks = list(row_blocks(n))
        assert [i for rows in blocks for i in range(n)[rows]] == list(range(n))
        sizes = [len(range(n)[rows]) for rows in blocks]
        assert all(size == ROW_BLOCK for size in sizes[:-1])
        # a one-row tail joins the block before it
        assert not sizes or 1 < sizes[-1] <= ROW_BLOCK + 1 or n == 1
