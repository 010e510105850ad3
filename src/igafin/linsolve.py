"""Banded linear algebra: storage, matvec, LU and Cholesky factors.

Matrices are n x n with equal lower/upper bandwidth ``kband`` and are stored
diagonal-wise, ``data[kband + i - j, j] = A[i, j]`` (the classic banded
layout, 2*kband + 1 rows).  Every banded product goes through one kernel,
``band_products``: a stack of bands times one shared vector or one vector
per band, all diagonals in a single multiply and a single sum, or on three
diagonals in three multiplies and two adds, so that
``BandedMatrix.matvec`` is the one-band case and each product of a stack
is bitwise that band's ``matvec``.  ``scipy.sparse`` is not used: its
import alone would add to the start-up time of every run.

Factorisations are factor-once solve-many objects.  ``BandedLU`` is LU with
partial pivoting: LAPACK ``gttrf``/``gttrs`` on the three diagonals when
``kband == 1`` and n >= 3 (the degree-1 and finite-difference systems),
``gbtrf``/``gbtrs`` otherwise, where pivoting widens the fill to
3*kband + 1 rows inside the factor object only.  ``BandedCholesky`` serves
symmetric positive definite matrices such as the Galerkin mass matrix, from
their upper triangle: ``pttrf``/``pttrs`` when ``kband == 1`` and n >= 2,
``pbtrf``/``pbtrs`` otherwise.  It needs no pivoting, and a tridiagonal
solve takes about half the time of the pivoted LU one (34 against 69 us
at n = 4095, measured on a 2-core host).  Both ``solve`` methods take
``overwrite_b``, passed on to LAPACK: with it a C-contiguous float64 ``b``
of one right-hand side is overwritten by the solution and is the array
returned, which saves a copy.  Without it, the default, ``b`` is left as
it was.

The eight LAPACK routines come from scipy's compiled f2py wrapper
``scipy.linalg._flapack``, which ``_load_lapack`` loads from scipy's
``linalg`` directory.  It runs neither ``scipy/linalg/__init__.py``, whose
package import reaches scipy's array-API layer and with it ``numpy.f2py``,
``numpy.ma``, ``numpy.random``, ``numpy.testing`` and
``concurrent.futures``, nor ``scipy/__init__.py``, which loads
``scipy._lib``, ``subprocess`` and ``sysconfig``:
``importlib.util.find_spec`` finds the directory without executing the
package.  Beyond numpy, ``import igafin.cli`` thus loads 7 modules that
are not igafin's, ``_flapack`` among them, where an ``import scipy`` made
it 30.  Under ``python -X importtime -c "import igafin.cli"`` (medians of
11 runs on a 2-core host) ``igafin.linsolve`` takes 7 ms, against 21 ms
with ``import scipy``, and the whole import 162 ms.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

__all__ = ["BandedMatrix", "BandedLU", "BandedCholesky", "SingularMatrixError",
           "band_products"]


def _load_lapack():
    """scipy's f2py LAPACK wrappers, the module ``scipy.linalg.lapack``
    takes its routines from.  An already loaded copy is reused; loading
    one enters it in ``sys.modules``, so a later ``scipy.linalg`` import
    reuses it in turn."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    # find_spec locates the scipy package without running its __init__
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("scipy is not installed", name="scipy")
    linalg_dir = os.path.join(os.path.dirname(scipy_spec.origin), "linalg")
    spec = importlib.machinery.PathFinder.find_spec(name, [linalg_dir])
    if spec is None:
        raise ImportError(f"scipy's LAPACK wrappers are missing: no _flapack "
                          f"extension module in {linalg_dir}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lapack = _load_lapack()


class SingularMatrixError(RuntimeError):
    """Raised when elimination meets an exactly zero pivot, or a Cholesky
    factorisation a pivot that is not positive."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"singular system: zero pivot at index {pivot_index}")


def band_products(data: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Banded products: data (..., 2k+1, n) times x (..., n) -> (..., n).

    Leading axes broadcast, so one x may serve a stack of bands or each band
    may take its own vector.  The products of diagonal r land in row r of a
    buffer whose rows are n + 2k long, written through a view whose rows are
    one element longer, which shifts row r by r places; only the cells no
    diagonal reaches are zeroed.  The rows are then added in diagonal
    order, so y_i sums the same products in the same order as a loop over
    diagonal slices: bitwise that loop's result, up to the sign of an
    exact zero.  numpy starts that sum from +0.0, so no y_i is -0.0.

    Three diagonals (k = 1, the degree-1 and finite-difference systems)
    skip the buffer, its reshapes and the reduction: y = (super + diag) +
    sub, three multiplies and two adds in the kernel's order, with a zero
    where no diagonal reaches, and a last y += 0.0 for the sum's start.
    It is bitwise the kernel's result, the sign of an exact zero included,
    wherever that is not NaN (a NaN may differ in its sign bit).
    """
    x = np.asarray(x, dtype=float)
    *lead, n_rows, n = data.shape
    lead = (tuple(lead) if x.ndim == 1
            else np.broadcast(data[..., 0, 0], x[..., 0]).shape)
    kband = n_rows // 2
    if kband == 1:
        y, part = np.empty(lead + (n,)), np.empty(lead + (n,))
        y[..., -1] = 0.0
        np.multiply(data[..., 0, 1:], x[..., 1:], out=y[..., :-1])
        y += np.multiply(data[..., 1, :], x, out=part)
        part[..., 0] = 0.0
        np.multiply(data[..., 2, :-1], x[..., :-1], out=part[..., 1:])
        y += part
        y += 0.0
        return y
    width = n + 2 * kband
    buf = np.empty(lead + (n_rows, width + 1))
    buf[..., n:] = 0.0
    np.multiply(data, x[..., None, :], out=buf[..., :n])
    rows = buf.reshape(lead + (-1,))[..., :n_rows * width]
    y = np.add.reduce(rows.reshape(lead + (n_rows, width)), axis=-2)
    return y[..., kband:kband + n]


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
        return band_products(self.data, x)

    def to_dense(self) -> np.ndarray:
        r, j = np.indices(self.data.shape)
        i = j + r - self.kband
        inside = (i >= 0) & (i < self.n)
        out = np.zeros((self.n, self.n))
        out[i[inside], j[inside]] = self.data[inside]
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

    def solve(self, b: np.ndarray, overwrite_b: bool = False) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise ValueError("right-hand side length mismatch")
        if self._tridiagonal:
            x, info = lapack.dgttrs(*self._factors, b,
                                    overwrite_b=overwrite_b)
        else:
            lu, ipiv = self._factors
            x, info = lapack.dgbtrs(lu, self.kband, self.kband, b, ipiv,
                                    overwrite_b=overwrite_b)
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

    def solve(self, b: np.ndarray, overwrite_b: bool = False) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise ValueError("right-hand side length mismatch")
        if self._tridiagonal:
            x, info = lapack.dpttrs(*self._factors, b,
                                    overwrite_b=overwrite_b)
        else:
            x, info = lapack.dpbtrs(*self._factors, b,
                                    overwrite_b=overwrite_b)
        if info != 0:
            raise ValueError(f"banded Cholesky solve failed (info={info})")
        return x
