"""Banded linear algebra: storage, matvec, LU and Cholesky factors.

Matrices are n x n with equal lower/upper bandwidth ``kband`` and are stored
diagonal-wise, ``data[kband + i - j, j] = A[i, j]`` (the classic banded
layout, 2*kband + 1 rows).  ``stacked_matvec`` multiplies several bands
with one vector in a single pass over the diagonals, in the order of
``BandedMatrix.matvec``, so each product is bitwise the single one.

Factorisations are factor-once solve-many objects.  ``BandedLU`` is LU with
partial pivoting: LAPACK ``gttrf``/``gttrs`` on the three diagonals when
``kband == 1`` and n >= 3 (the degree-1 and finite-difference systems),
``gbtrf``/``gbtrs`` otherwise, where pivoting widens the fill to
3*kband + 1 rows inside the factor object only.  ``BandedCholesky`` serves
symmetric positive definite matrices such as the Galerkin mass matrix, from
their upper triangle: ``pttrf``/``pttrs`` when ``kband == 1`` and n >= 2,
``pbtrf``/``pbtrs`` otherwise.  It needs no pivoting, and a tridiagonal
solve takes about half the time of the pivoted LU one (34 against 69 us
at n = 4095, measured on a 2-core host).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import lapack

__all__ = ["BandedMatrix", "BandedLU", "BandedCholesky", "SingularMatrixError",
           "stacked_matvec"]


class SingularMatrixError(RuntimeError):
    """Raised when elimination meets an exactly zero pivot, or a Cholesky
    factorisation a pivot that is not positive."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"singular system: zero pivot at index {pivot_index}")


@lru_cache(maxsize=None)
def _diagonals(n: int, kband: int) -> tuple[tuple[int, slice, slice], ...]:
    """(band row, row slice, column slice) of each diagonal that fits."""
    out = []
    for r in range(2 * kband + 1):
        d = r - kband  # row index i = j + d
        jlo = max(0, -d)
        jhi = min(n, n - d)
        if jlo < jhi:
            out.append((r, slice(jlo + d, jhi + d), slice(jlo, jhi)))
    return tuple(out)


def stacked_matvec(data: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Bands stacked as data (s, 2k+1, n) times one x (n,): (s, n).

    The diagonals come in the order ``BandedMatrix.matvec`` takes them, so
    each product is bitwise that band's ``matvec``.
    """
    n_bands, n_rows, n = data.shape
    y = np.zeros((n_bands, n))
    for r, rows, cols in _diagonals(n, (n_rows - 1) // 2):
        y[:, rows] += data[:, r, cols] * x[cols]
    return y


class BandedMatrix:
    """Square banded matrix with symmetric bandwidth."""

    def __init__(self, n: int, kband: int, data: np.ndarray | None = None):
        if n < 1 or kband < 0:
            raise ValueError("need n >= 1 and kband >= 0")
        self.n = n
        self.kband = kband
        if data is None:
            self.data = np.zeros((2 * kband + 1, n))
        else:
            data = np.asarray(data, dtype=float)
            if data.shape != (2 * kband + 1, n):
                raise ValueError(f"band data must have shape {(2 * kband + 1, n)}")
            self.data = data

    def __getitem__(self, ij: tuple[int, int]) -> float:
        i, j = ij
        if abs(i - j) > self.kband:
            return 0.0
        return float(self.data[self.kband + i - j, j])

    def set(self, i: int, j: int, value: float) -> None:
        if abs(i - j) > self.kband:
            raise IndexError("entry outside the band")
        self.data[self.kband + i - j, j] = value

    def add(self, i: int, j: int, value: float) -> None:
        self.data[self.kband + i - j, j] += value

    def copy(self) -> "BandedMatrix":
        return BandedMatrix(self.n, self.kband, self.data.copy())

    def __add__(self, other: "BandedMatrix") -> "BandedMatrix":
        if (other.n, other.kband) != (self.n, self.kband):
            raise ValueError("shape/bandwidth mismatch")
        return BandedMatrix(self.n, self.kband, self.data + other.data)

    def __sub__(self, other: "BandedMatrix") -> "BandedMatrix":
        if (other.n, other.kband) != (self.n, self.kband):
            raise ValueError("shape/bandwidth mismatch")
        return BandedMatrix(self.n, self.kband, self.data - other.data)

    def scaled(self, c: float) -> "BandedMatrix":
        return BandedMatrix(self.n, self.kband, c * self.data)

    def scale_columns(self, s: np.ndarray) -> "BandedMatrix":
        """A @ diag(s) -- used for penalty terms M @ P with diagonal P."""
        return BandedMatrix(self.n, self.kband, self.data * np.asarray(s))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        data = self.data
        y = np.zeros(self.n)
        for r, rows, cols in _diagonals(self.n, self.kband):
            y[rows] += data[r, cols] * x[cols]
        return y

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for r, _, cols in _diagonals(self.n, self.kband):
            j = np.arange(cols.start, cols.stop)
            out[j + r - self.kband, j] = self.data[r, cols]
        return out

    @classmethod
    def from_dense(cls, a: np.ndarray, kband: int) -> "BandedMatrix":
        a = np.asarray(a, dtype=float)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("matrix must be square")
        out = cls(n, kband)
        for i in range(n):
            for j in range(max(0, i - kband), min(n, i + kband + 1)):
                out.data[kband + i - j, j] = a[i, j]
        # refuse silent truncation
        if not np.allclose(out.to_dense(), a, rtol=0.0, atol=0.0):
            raise ValueError("matrix has entries outside the requested band")
        return out

    def lu_factor(self) -> "BandedLU":
        return BandedLU(self)

    def cholesky(self) -> "BandedCholesky":
        return BandedCholesky(self)


class BandedLU:
    """LU factors of a BandedMatrix; reusable for many right-hand sides."""

    def __init__(self, mat: BandedMatrix):
        n, k = mat.n, mat.kband
        # LAPACK's gttrf wrapper cannot size its second superdiagonal for n < 3
        self._tridiagonal = k == 1 and n >= 3
        if self._tridiagonal:
            *factors, info = lapack.dgttrf(mat.data[2, :-1], mat.data[1],
                                           mat.data[0, 1:])
        else:
            ab = np.zeros((3 * k + 1, n), order="F")
            ab[k:, :] = mat.data
            *factors, info = lapack.dgbtrf(ab, k, k)
        if info > 0:
            raise SingularMatrixError(info - 1)
        if info < 0:
            raise ValueError(f"illegal argument {-info} to banded factorisation")
        self.n = n
        self.kband = k
        self._factors = factors

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise ValueError("right-hand side length mismatch")
        if self._tridiagonal:
            x, info = lapack.dgttrs(*self._factors, b)
        else:
            lu, ipiv = self._factors
            x, info = lapack.dgbtrs(lu, self.kband, self.kband, b, ipiv)
        if info != 0:
            raise ValueError(f"banded back-substitution failed (info={info})")
        return x


class BandedCholesky:
    """Cholesky factors of a symmetric positive definite BandedMatrix.

    Only the diagonal and the superdiagonals are read; the matrix is taken
    to be symmetric.  Reusable for many right-hand sides, 1-D or 2-D.
    """

    def __init__(self, mat: BandedMatrix):
        n, k = mat.n, mat.kband
        # LAPACK's pttrf wrapper cannot size the empty off-diagonal for n = 1
        self._tridiagonal = k == 1 and n >= 2
        if self._tridiagonal:
            *factors, info = lapack.dpttrf(mat.data[1], mat.data[0, 1:])
        else:
            ab, info = lapack.dpbtrf(mat.data[:k + 1])
            factors = [ab]
        if info > 0:
            raise SingularMatrixError(info - 1)
        if info < 0:
            raise ValueError(f"illegal argument {-info} to banded Cholesky")
        self.n = n
        self._factors = factors

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise ValueError("right-hand side length mismatch")
        if self._tridiagonal:
            x, info = lapack.dpttrs(*self._factors, b)
        else:
            x, info = lapack.dpbtrs(*self._factors, b)
        if info != 0:
            raise ValueError(f"banded Cholesky solve failed (info={info})")
        return x
