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
at n = 4095, measured on a 2-core host).  Both ``solve`` methods keep
one contract for the right-hand side, in ``_checked_solve``: ``b`` is
(n,) or (n, k) with k >= 1, and anything else is a ``ValueError``.  With
``overwrite_b``, a float64 ``b`` that is Fortran-contiguous (as a
contiguous 1-D array is) and writeable is overwritten by the solution
and is the array returned, which saves a copy.  Any other ``b``, and
every ``b`` without ``overwrite_b`` (the default), is first copied to
Fortran order and left as it was.  A binding only solves in place.

The eight LAPACK routines are numpy's own.  numpy's wheels link
``numpy.linalg._umath_linalg`` against an OpenBLAS built with 64-bit
integers, which exports them as ``scipy_<routine>_64_``.  A symbol looked
up through that extension with ``ctypes`` is found in the libraries it
links against, so ``_NumpyLapack`` binds the routines once, at import,
and no second copy of LAPACK is loaded.  Each factor object binds every
argument of its solve but the right-hand side.  At n = 4095 an in-place
``gttrs`` solve takes about 69 us, against 77 us through scipy's f2py
wrapper, and a ``pttrs`` one 40 against 38 us: numpy's OpenBLAS runs
``gttrs`` faster, and a ctypes call costs about 1.5 us more than an f2py
one (medians of 21 interleaved rounds in one process, 2-core host).
Where numpy's library does not export the routines (MKL or Accelerate
builds), ``_Wrappers`` calls scipy's compiled f2py wrapper
``scipy.linalg._flapack`` instead, which ``_load_lapack`` loads from
scipy's ``linalg`` directory, found with ``importlib.util.find_spec``.
It runs neither ``scipy/linalg/__init__.py``, whose package import
reaches scipy's array-API layer and with it ``numpy.f2py``, ``numpy.ma``,
``numpy.random``, ``numpy.testing`` and ``concurrent.futures``, nor
``scipy/__init__.py``, which loads ``scipy._lib``, ``subprocess`` and
``sysconfig``.  The two bindings give the same bits.  Beyond numpy,
``import igafin.cli`` loads 5 modules that are not igafin's, none of them
scipy's; ``_flapack`` was a sixth, and brought scipy's own OpenBLAS.
Under ``python -X importtime -c "import igafin.cli"`` (medians of 21
interleaved runs on a 2-core host, without bytecode caches)
``igafin.linsolve`` takes 7.3 ms against 9.8 ms with ``_flapack``, and
the process peaks at 29.5 MB resident against 32.1 MB.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
from numpy.linalg import _umath_linalg

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


_ROUTINES = ("dgttrf", "dgttrs", "dgbtrf", "dgbtrs",
             "dpttrf", "dpttrs", "dpbtrf", "dpbtrs")
_INT = ctypes.c_int64
_ONE_CHAR = ctypes.c_size_t(1)      # the hidden length of a CHARACTER*1


def _int(value: int):
    """A LAPACK integer argument; the reference keeps the integer alive."""
    return ctypes.byref(_INT(value))


def _address(a: np.ndarray):
    """A pointer to the data of a 1-D or a Fortran-ordered array, which
    must not be empty; it keeps the array alive.  from_buffer, the
    cheapest way to it, needs a C-ordered array: the transpose."""
    return ctypes.byref(ctypes.c_char.from_buffer(a.T))


def _lu_band(data: np.ndarray, k: int) -> np.ndarray:
    """The band in gbtrf's layout: k more rows on top for the fill that
    pivoting makes."""
    ab = np.zeros((3 * k + 1, data.shape[1]), order="F")
    ab[k:] = data
    return ab


class _Solve:
    """One factor's LAPACK solve with every argument bound but the
    right-hand side: ``routine(*head, B, *tail)``.  A call solves ``b`` in
    place and writes the bound nrhs and info, so one factor object serves
    one thread at a time."""

    def __init__(self, routine, head, nrhs, tail, info):
        self._routine, self._head, self._nrhs = routine, head, nrhs
        self._tail, self._info = tail, info

    def __call__(self, b: np.ndarray):
        self._nrhs.value = b.shape[1] if b.ndim == 2 else 1
        self._routine(*self._head, _address(b), *self._tail)
        return b, self._info.value


class _NumpyLapack:
    """The routines of numpy's own OpenBLAS, called through ctypes.  Built
    with 64-bit integers, it exports each as ``scipy_<routine>_64_``: int64
    integers and pivots, and the length of each character argument as a
    hidden size_t after the last argument.  ``lu`` and ``cholesky`` return
    the factor arrays, a solve and LAPACK's info."""

    def __init__(self, lib):
        # no argtypes: they would convert every argument on every call,
        # about 1.8 us a solve, and each argument is already a ctypes
        # object of LAPACK's width (bytes for a CHARACTER)
        for name in _ROUTINES:
            routine = getattr(lib, f"scipy_{name}_64_")
            routine.restype = None
            setattr(self, name, routine)

    def lu(self, data: np.ndarray, k: int, tridiagonal: bool):
        n = data.shape[1]
        size, nrhs, info = _int(n), _INT(1), _INT()
        if tridiagonal:
            factors = [np.array(v) for v in (data[2, :-1], data[1],
                                              data[0, 1:])]
            factors += [np.empty(n - 2), np.empty(n, dtype=np.int64)]
            arrays = [_address(a) for a in factors]
            self.dgttrf(size, *arrays, ctypes.byref(info))
            routine = self.dgttrs
            head = (b"N", size, ctypes.byref(nrhs), *arrays)
        else:
            factors = [_lu_band(data, k), np.empty(n, dtype=np.int64)]
            ab, ipiv = (_address(a) for a in factors)
            kband, ldab = _int(k), _int(3 * k + 1)
            self.dgbtrf(size, size, kband, kband, ab, ldab, ipiv,
                        ctypes.byref(info))
            routine = self.dgbtrs
            head = (b"N", size, kband, kband, ctypes.byref(nrhs), ab, ldab,
                    ipiv)
        tail = (size, ctypes.byref(info), _ONE_CHAR)
        return (factors, _Solve(routine, head, nrhs, tail, info),
                info.value)

    def cholesky(self, data: np.ndarray, k: int, tridiagonal: bool):
        n = data.shape[1]
        size, nrhs, info = _int(n), _INT(1), _INT()
        if tridiagonal:
            factors = [np.array(data[1]), np.array(data[0, 1:])]
            d, e = (_address(a) for a in factors)
            self.dpttrf(size, d, e, ctypes.byref(info))
            routine = self.dpttrs
            head = (size, ctypes.byref(nrhs), d, e)
            tail = (size, ctypes.byref(info))
        else:
            factors = [np.array(data[:k + 1], order="F")]
            ab, kband, ldab = _address(factors[0]), _int(k), _int(k + 1)
            self.dpbtrf(b"U", size, kband, ab, ldab, ctypes.byref(info),
                        _ONE_CHAR)
            routine = self.dpbtrs
            head = (b"U", size, kband, ctypes.byref(nrhs), ab, ldab)
            tail = (size, ctypes.byref(info), _ONE_CHAR)
        return (factors, _Solve(routine, head, nrhs, tail, info),
                info.value)


class _Wrappers:
    """scipy's f2py wrappers (``_load_lapack``) behind ``_NumpyLapack``'s
    two methods, for a numpy whose library does not export the routines.
    A solve passes ``overwrite_b=True`` and returns what the wrapper does."""

    def __init__(self, module):
        self._module = module

    def lu(self, data: np.ndarray, k: int, tridiagonal: bool):
        m = self._module
        if tridiagonal:
            *factors, info = m.dgttrf(data[2, :-1], data[1], data[0, 1:])
            return factors, lambda b: m.dgttrs(
                *factors, b, overwrite_b=True), info
        lu, ipiv, info = m.dgbtrf(_lu_band(data, k), k, k)
        return [lu, ipiv], lambda b: m.dgbtrs(
            lu, k, k, b, ipiv, overwrite_b=True), info

    def cholesky(self, data: np.ndarray, k: int, tridiagonal: bool):
        m = self._module
        if tridiagonal:
            d, e, info = m.dpttrf(data[1], data[0, 1:])
            return [d, e], lambda b: m.dpttrs(d, e, b, overwrite_b=True), info
        c, info = m.dpbtrf(data[:k + 1])
        return [c], lambda b: m.dpbtrs(c, b, overwrite_b=True), info


def _bind_lapack(lib):
    """The routines of ``lib`` where it exports them, else scipy's."""
    try:
        return _NumpyLapack(lib)
    except AttributeError:
        return _Wrappers(_load_lapack())


# a symbol looked up in numpy's linear-algebra extension is looked up in
# the libraries it links against too, its OpenBLAS among them
lapack = _bind_lapack(ctypes.CDLL(_umath_linalg.__file__))


class SingularMatrixError(RuntimeError):
    """Raised when elimination meets an exactly zero pivot, or a Cholesky
    factorisation a pivot that is not positive."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(f"singular system: zero pivot at index {pivot_index}")


def _check_factor(info: int) -> None:
    """Raise on a factorisation's LAPACK ``info``."""
    if info > 0:
        raise SingularMatrixError(info - 1)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to a banded factorisation")


def _checked_solve(factors, b, overwrite_b: bool) -> np.ndarray:
    """``solve`` of both factor classes, under the module's one contract
    for ``b``; the binding solves the array it is given in place."""
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[-1] == 0:
        raise ValueError(f"right-hand side must be (n,) or (n, k >= 1), "
                         f"got shape {b.shape}")
    if b.shape[0] != factors.n:
        raise ValueError("right-hand side length mismatch")
    if not (overwrite_b and b.flags.f_contiguous and b.flags.writeable):
        b = np.array(b, order="F")
    x, info = factors._solve(b)
    if info != 0:
        raise ValueError(f"banded solve failed (info={info})")
    return x


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
        # refuse silent truncation; a NaN inside the band is kept
        if not np.array_equal(out.to_dense(), a, equal_nan=True):
            raise ValueError("matrix has entries outside the requested band")
        return out


class BandedLU:
    """LU factors of a BandedMatrix; reusable for many right-hand sides."""

    def __init__(self, mat: BandedMatrix):
        n, k = mat.n, mat.kband
        # scipy's gttrf wrapper cannot size its second superdiagonal for
        # n < 3; both bindings take the same branch
        self._tridiagonal = k == 1 and n >= 3
        self._factors, self._solve, info = lapack.lu(mat.data, k,
                                                     self._tridiagonal)
        _check_factor(info)
        self.n = n

    def solve(self, b: np.ndarray, overwrite_b: bool = False) -> np.ndarray:
        return _checked_solve(self, b, overwrite_b)


class BandedCholesky:
    """Cholesky factors of a symmetric positive definite BandedMatrix.

    Only the diagonal and the superdiagonals are read; the matrix is taken
    to be symmetric.  Reusable for many right-hand sides, 1-D or 2-D.
    """

    def __init__(self, mat: BandedMatrix):
        n, k = mat.n, mat.kband
        # scipy's pttrf wrapper cannot size the empty off-diagonal for n = 1
        self._tridiagonal = k == 1 and n >= 2
        self._factors, self._solve, info = lapack.cholesky(
            mat.data, k, self._tridiagonal)
        _check_factor(info)
        self.n = n

    def solve(self, b: np.ndarray, overwrite_b: bool = False) -> np.ndarray:
        return _checked_solve(self, b, overwrite_b)
