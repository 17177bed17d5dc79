"""Dense linear-algebra kernels used throughout the package.

All matrices are plain float64 ``numpy.ndarray`` objects in row-major
layout; dimensions and symmetry are validated at operation boundaries.
Matrices here are small (a few hundred square at most), so the kernels
favor accuracy and strict contracts over scalability.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation, DegenerateInput, SingularMatrixError

__all__ = [
    "as_matrix",
    "sym_spectral",
    "orthonormalize",
    "logdet_psd",
    "singular_values",
]

_SYM_RTOL = 1e-10
_RANK_RTOL = 1e-12
# Rows per block wherever the package walks an n-row array. A power of two, so
# each block starts on the whole array's BLAS row unroll and its products keep the bits.
ROW_BLOCK = 2048


def row_blocks(n: int):
    """The row slices of an n-row array, ``ROW_BLOCK`` rows each. A one-row
    tail joins the block before it: a one-row product takes BLAS's
    matrix-vector path, whose last bits can differ from the whole array's."""
    stops = [*range(ROW_BLOCK, n - 1, ROW_BLOCK), n] if n else []
    return map(slice, [0, *stops], stops)


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return ``m`` as a finite 2-D float64 array, checked by row block."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ContractViolation(f"{name} must be 2-D, got shape {a.shape}")
    if not all(np.isfinite(a[rows]).all() for rows in row_blocks(a.shape[0])):
        raise ContractViolation(f"{name} contains non-finite entries")
    return a


def _check_symmetric(a: np.ndarray, name: str) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise ContractViolation(f"{name} must be square, got shape {a.shape}")
    scale = np.linalg.norm(a)
    asym = np.linalg.norm(a - a.T)
    if asym > _SYM_RTOL * max(scale, 1.0):
        raise ContractViolation(
            f"{name} is asymmetric: relative asymmetry {asym / max(scale, 1e-300):.3e}"
        )
    # work on the symmetrized matrix so downstream results are exactly symmetric
    return 0.5 * (a + a.T)


def sym_spectral(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted
    descending and eigenvectors as orthonormal columns, so that
    ``m ~= V @ diag(lam) @ V.T``.
    """
    a = _check_symmetric(as_matrix(m, "sym_spectral input"), "sym_spectral input")
    lam, vec = np.linalg.eigh(a)
    return lam[::-1].copy(), vec[:, ::-1].copy()


def singular_values(m) -> np.ndarray:
    """Singular values of a general matrix, descending."""
    a = as_matrix(m, "singular_values input")
    return np.linalg.svd(a, compute_uv=False)


def orthonormalize(m) -> np.ndarray:
    """Columns orthonormalized, preserving the column span.

    QR-based with the sign convention diag(R) > 0, so an
    already-orthonormal input is returned unchanged up to rounding.
    Raises ``DegenerateInput`` when the columns are numerically dependent
    (smallest singular value below 1e-12 of the largest).
    """
    a = as_matrix(m, "orthonormalize input")
    d, r = a.shape
    if d < r:
        raise ContractViolation(f"need rows >= cols, got {a.shape}")
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= _RANK_RTOL * sv[0]:
        raise DegenerateInput(
            f"columns numerically dependent: least/largest singular value = "
            f"{sv[-1] / max(sv[0], 1e-300):.3e}"
        )
    q, rr = np.linalg.qr(a)
    signs = np.sign(np.diag(rr))
    signs[signs == 0.0] = 1.0
    return q * signs


def logdet_psd(m) -> float:
    """log det of a symmetric positive-definite matrix.

    Computed as twice the log-sum of Cholesky pivots; a matrix that does
    not factor, or factors with a non-finite pivot, raises
    ``SingularMatrixError``.
    """
    a = _check_symmetric(as_matrix(m, "logdet_psd input"), "logdet_psd input")
    try:
        diag = np.diagonal(np.linalg.cholesky(a))
    except np.linalg.LinAlgError:
        raise SingularMatrixError("matrix is not positive definite") from None
    if not np.all(np.isfinite(diag)):
        raise SingularMatrixError("Cholesky factor has a non-finite pivot")
    return 2.0 * float(np.log(diag).sum())
