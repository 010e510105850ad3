"""Banded storage and the banded LU solver."""

import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

from igafin import linsolve
from igafin.linsolve import (BandedCholesky, BandedLU, BandedMatrix,
                             SingularMatrixError, band_products)
from igafin.stepper import build_discretization

ROOT = Path(__file__).resolve().parents[1]


def _run_fresh(code):
    """stdout of ``code`` run in a new interpreter that imports igafin."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, check=True, capture_output=True,
                          text=True).stdout


# a library that exports none of the routines: the binder falls back to
# scipy's f2py wrappers
_NO_ROUTINES = types.SimpleNamespace()


def _wrappers():
    return linsolve._bind_lapack(_NO_ROUTINES)


@pytest.fixture(params=["numpy", "scipy"])
def binding(request, monkeypatch):
    """Run a test on numpy's LAPACK, as bound at import, then on scipy's
    wrappers, the binding of a numpy whose library lacks the routines."""
    if request.param == "scipy":
        monkeypatch.setattr(linsolve, "lapack", _wrappers())
    return request.param


def _random_banded(rng, n, k, dominant=True):
    a = np.zeros((n, n))
    for i in range(n):
        lo, hi = max(0, i - k), min(n, i + k + 1)
        a[i, lo:hi] = rng.normal(size=hi - lo)
        if dominant:
            a[i, i] = np.abs(a[i]).sum() + 1.0
    return a


class TestBandedMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BandedMatrix(0, 1)
        with pytest.raises(ValueError):
            BandedMatrix(4, 1, np.zeros((2, 4)))

    def test_dense_roundtrip_and_matvec(self):
        rng = np.random.default_rng(310)
        # the last four have diagonals that do not fit in the matrix
        for n, k in ((1, 0), (4, 1), (9, 3), (17, 2),
                     (1, 1), (2, 1), (3, 2), (5, 3)):
            a = _random_banded(rng, n, k, dominant=False)
            m = BandedMatrix.from_dense(a, k)
            assert np.array_equal(m.to_dense(), a)
            x = rng.normal(size=n)
            assert m.matvec(x) == pytest.approx(a @ x, rel=1e-13, abs=1e-13)

    def test_stacked_bands_give_each_matvec_bitwise(self):
        rng = np.random.default_rng(314)
        for n, k in ((1, 1), (2, 1), (4095, 1), (259, 3), (5, 3)):
            mats = [BandedMatrix(n, k, rng.normal(size=(2 * k + 1, n)))
                    for _ in range(2)]
            x = rng.normal(size=n)
            both = band_products(np.stack([m.data for m in mats]), x)
            for m, y in zip(mats, both):
                assert np.array_equal(y, m.matvec(x))

    def test_mismatched_shapes_are_refused(self):
        m = BandedMatrix(4, 1)
        for other in (BandedMatrix(5, 1), BandedMatrix(4, 2)):
            with pytest.raises(ValueError, match="mismatch"):
                m + other
            with pytest.raises(ValueError, match="mismatch"):
                m - other
        with pytest.raises(ValueError, match="square"):
            BandedMatrix.from_dense(np.ones((3, 4)), 1)

    def test_from_dense_refuses_truncation(self):
        a = np.eye(4)
        a[0, 3] = 1.0
        with pytest.raises(ValueError, match="band"):
            BandedMatrix.from_dense(a, 1)

    def test_from_dense_keeps_a_nan_inside_the_band(self):
        a = np.eye(4)
        a[2, 2] = np.nan
        m = BandedMatrix.from_dense(a, 1)
        assert np.array_equal(m.to_dense(), a, equal_nan=True)
        a[0, 3] = 1.0
        with pytest.raises(ValueError, match="outside the requested band"):
            BandedMatrix.from_dense(a, 1)

    def test_arithmetic(self):
        rng = np.random.default_rng(311)
        a = _random_banded(rng, 6, 2, dominant=False)
        b = _random_banded(rng, 6, 2, dominant=False)
        ma, mb = (BandedMatrix.from_dense(v, 2) for v in (a, b))
        assert np.allclose((ma + mb).to_dense(), a + b)
        assert np.allclose((ma - mb).to_dense(), a - b)
        assert np.allclose(ma.scaled(-2.5).to_dense(), -2.5 * a)
        s = rng.uniform(0.5, 1.5, 6)
        assert np.allclose(ma.scale_columns(s).to_dense(), a @ np.diag(s))


def _diagonal_loop(data, x):
    """Reference banded product: one slice per diagonal, in diagonal order."""
    n_rows, n = data.shape[-2:]
    k = n_rows // 2
    lead = np.broadcast_shapes(data.shape[:-2], np.shape(x)[:-1])
    y = np.zeros(lead + (n,))
    for r in range(n_rows):
        d = r - k
        lo, hi = max(0, -d), min(n, n - d)
        if lo < hi:
            y[..., lo + d:hi + d] += data[..., r, lo:hi] * x[..., lo:hi]
    return y


class TestBandProducts:
    SIZES = [(1, 1), (1, 3), (2, 1), (5, 3), (35, 1), (259, 3), (4095, 1)]

    @pytest.mark.parametrize("n,k", SIZES)
    def test_bitwise_the_diagonal_loop(self, n, k):
        rng = np.random.default_rng(340 + n + k)
        x = rng.normal(size=n)
        one = rng.normal(size=(2 * k + 1, n))
        assert np.array_equal(band_products(one, x), _diagonal_loop(one, x))
        stack = rng.normal(size=(3, 2 * k + 1, n))
        # one shared vector, then one vector per band
        assert np.array_equal(band_products(stack, x),
                              _diagonal_loop(stack, x))
        xs = rng.normal(size=(3, n))
        got = band_products(stack, xs)
        assert got.shape == (3, n)
        assert np.array_equal(got, _diagonal_loop(stack, xs))
        for data, v, y in zip(stack, xs, got):
            assert np.array_equal(y, BandedMatrix(n, k, data).matvec(v))

    @pytest.mark.parametrize("n,k", [(5, 3), (35, 1), (259, 3)])
    def test_non_finite_entries_spread_as_in_the_loop(self, n, k):
        rng = np.random.default_rng(350 + n)
        data = rng.normal(size=(2, 2 * k + 1, n))
        x = rng.normal(size=(2, n))
        x[0, n // 2] = np.inf            # one infinite term per row it reaches
        x[1, 0] = np.nan
        data[1, :, n - 1] = 0.0          # 0 * inf is nan
        x[1, n - 1] = np.inf
        with np.errstate(invalid="ignore"):
            got, ref = band_products(data, x), _diagonal_loop(data, x)
        assert np.isinf(got).any() and np.isnan(got).any()
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        assert np.array_equal(np.isinf(got), np.isinf(ref))
        assert np.array_equal(got, ref, equal_nan=True)


def _shifted_buffer_kernel(data, x):
    """``band_products`` as it was before its three-diagonal branch: every
    diagonal's products in one shifted buffer, added row by row."""
    x = np.asarray(x, dtype=float)
    *lead, n_rows, n = data.shape
    lead = (tuple(lead) if x.ndim == 1
            else np.broadcast(data[..., 0, 0], x[..., 0]).shape)
    kband = n_rows // 2
    width = n + 2 * kband
    buf = np.empty(lead + (n_rows, width + 1))
    buf[..., n:] = 0.0
    np.multiply(data, x[..., None, :], out=buf[..., :n])
    rows = buf.reshape(lead + (-1,))[..., :n_rows * width]
    y = np.add.reduce(rows.reshape(lead + (n_rows, width)), axis=-2)
    return y[..., kband:kband + n]


class TestThreeDiagonals:
    # signed zeros among the entries, so that every sign of an exact zero
    # product, and of a sum of them, occurs
    VALUES = np.array([-2.5, -1.0, -0.0, 0.0, 0.5, 3.0])

    def _draw(self, rng, shape):
        return np.where(rng.random(shape) < 0.5, rng.normal(size=shape),
                        rng.choice(self.VALUES, size=shape))

    @pytest.mark.parametrize("n", [1, 2, 3, 4095])
    def test_bitwise_the_shifted_buffer_kernel(self, n):
        rng = np.random.default_rng(360 + n)
        for _ in range(1 if n > 3 else 200):
            x, xs = self._draw(rng, n), self._draw(rng, (4, n))
            one, stack = self._draw(rng, (3, n)), self._draw(rng, (4, 3, n))
            # one shared x, one x per band of a stack, one band for many x,
            # and stacked bands on one x
            for data, v in ((one, x), (stack, xs), (one, xs), (stack, x)):
                got, want = band_products(data, v), \
                    _shifted_buffer_kernel(data, v)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


# each factor class on its tridiagonal LAPACK branch, then on its general
# band one
BRANCHES = pytest.mark.parametrize("kind,n,k,tridiagonal", [
    ("lu", 9, 1, True), ("lu", 9, 3, False), ("lu", 2, 1, False),
    ("cholesky", 9, 1, True), ("cholesky", 9, 3, False),
    ("cholesky", 1, 1, False)])


def _factors(kind, n, k, tridiagonal, rng):
    if kind == "cholesky":
        factors = BandedCholesky(BandedMatrix.from_dense(
            _random_spd(rng, n, k), k))
    else:
        factors = BandedLU(BandedMatrix.from_dense(
            _random_banded(rng, n, k), k))
    assert factors._tridiagonal == tridiagonal
    return factors


@pytest.mark.usefixtures("binding")
class TestOverwriteB:
    @BRANCHES
    def test_overwrite_b_solves_in_place(self, kind, n, k, tridiagonal):
        rng = np.random.default_rng(370 + n + k)
        factors = _factors(kind, n, k, tridiagonal, rng)
        b = rng.normal(size=n)
        kept = b.copy()
        x = factors.solve(b)
        assert b.tobytes() == kept.tobytes()
        assert factors.solve(b, overwrite_b=True) is b
        assert b.tobytes() == x.tobytes()


@pytest.mark.usefixtures("binding")
class TestRightHandSideContract:
    # both bindings refuse the same shapes, and neither writes a b it may
    # not; left to the bindings, numpy's would solve only b[:, 0, 0] of a
    # 3-D b, and scipy's would write a read-only b and could corrupt the
    # heap on an (n, 0) one
    @BRANCHES
    @pytest.mark.parametrize("overwrite_b", [False, True])
    @pytest.mark.parametrize("shape", [(2, 2), (0,), ()],
                             ids=["3-D", "no-columns", "0-D"])
    def test_refuses_a_b_that_is_not_n_or_n_by_k(
            self, kind, n, k, tridiagonal, overwrite_b, shape):
        factors = _factors(kind, n, k, tridiagonal,
                           np.random.default_rng(380 + n + k))
        b = np.ones((n, *shape) if shape else ())
        with pytest.raises(ValueError, match=r"must be \(n,\) or \(n, k"):
            factors.solve(b, overwrite_b=overwrite_b)

    @BRANCHES
    @pytest.mark.parametrize("columns", [(), (3,)], ids=["1-D", "2-D"])
    def test_read_only_b_is_left_as_it_was(self, kind, n, k, tridiagonal,
                                           columns):
        rng = np.random.default_rng(390 + n + k)
        factors = _factors(kind, n, k, tridiagonal, rng)
        b = np.asfortranarray(rng.normal(size=(n, *columns)))
        kept = b.copy(order="K")
        b.flags.writeable = False
        x = factors.solve(b, overwrite_b=True)
        assert x is not b and b.tobytes() == kept.tobytes()
        assert x.tobytes() == factors.solve(kept).tobytes()


@pytest.mark.usefixtures("binding")
class TestBandedLU:
    def test_solve_matches_dense(self):
        rng = np.random.default_rng(312)
        for n, k in ((1, 0), (5, 1), (12, 3), (40, 2)):
            a = _random_banded(rng, n, k)
            lu = BandedLU(BandedMatrix.from_dense(a, k))
            for _ in range(3):
                b = rng.normal(size=n)
                x = lu.solve(b)
                assert x == pytest.approx(np.linalg.solve(a, b),
                                          rel=1e-11, abs=1e-11)

    def test_factor_reuse(self):
        rng = np.random.default_rng(313)
        a = _random_banded(rng, 8, 2)
        m = BandedMatrix.from_dense(a, 2)
        lu = BandedLU(m)
        b1, b2 = rng.normal(size=8), rng.normal(size=8)
        assert np.allclose(a @ lu.solve(b1), b1)
        assert np.allclose(a @ lu.solve(b2), b2)

    def test_rhs_length_mismatch(self):
        lu = BandedLU(BandedMatrix.from_dense(np.eye(4), 1))
        with pytest.raises(ValueError, match="length"):
            lu.solve(np.ones(3))

    def test_singular_reports_pivot(self):
        m = BandedMatrix.from_dense(np.diag([1.0, 0.0, 1.0]), 1)
        with pytest.raises(SingularMatrixError) as err:
            BandedLU(m)
        assert err.value.pivot_index == 1

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_tridiagonal_with_row_swaps_matches_dense(self, n):
        # tiny diagonal against large subdiagonals: partial pivoting swaps
        # rows at every step; n < 3 takes the general banded path
        rng = np.random.default_rng(315 + n)
        a = np.diag(rng.uniform(1e-3, 2e-3, n)) \
            + np.diag(rng.uniform(1.0, 2.0, n - 1), -1) \
            + np.diag(rng.normal(size=n - 1), 1)
        lu = BandedLU(BandedMatrix.from_dense(a, 1))
        b = rng.normal(size=n)
        assert lu.solve(b) == pytest.approx(np.linalg.solve(a, b),
                                            rel=1e-10, abs=1e-10)
        rhs = rng.normal(size=(n, 3))
        x = lu.solve(rhs)
        assert x.shape == (n, 3)
        assert np.allclose(x, np.linalg.solve(a, rhs), rtol=1e-10,
                           atol=1e-10)

    def test_singular_reports_pivot_on_the_general_band(self):
        a = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
        a[3, 3] = 0.0
        with pytest.raises(SingularMatrixError) as err:
            BandedLU(BandedMatrix.from_dense(a, 2))
        assert err.value.pivot_index == 3


def _random_spd(rng, n, k):
    a = _random_banded(rng, n, k, dominant=False)
    a = a + a.T
    a[np.diag_indices(n)] = np.abs(a).sum(axis=1) + 1.0
    return a


@pytest.mark.usefixtures("binding")
class TestBandedCholesky:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_solve_matches_dense(self, n, k):
        # n = 1 takes the general band path on the tridiagonal matrix, and
        # n <= k leaves the outer diagonals without entries
        rng = np.random.default_rng(320 + 10 * k + n)
        a = _random_spd(rng, n, k)
        chol = BandedCholesky(BandedMatrix.from_dense(a, k))
        b = rng.normal(size=n)
        assert chol.solve(b) == pytest.approx(np.linalg.solve(a, b),
                                              rel=1e-12, abs=1e-12)
        rhs = rng.normal(size=(n, 3))
        x = chol.solve(rhs)
        assert x.shape == (n, 3)
        assert np.allclose(x, np.linalg.solve(a, rhs), rtol=1e-12,
                           atol=1e-12)

    def test_agrees_with_lu_on_a_mass_matrix(self):
        for degree in (1, 3):
            mass = build_discretization(-2.0, 2.0, 64, degree=degree).system.mass
            b = np.random.default_rng(330 + degree).normal(size=mass.n)
            x = BandedCholesky(mass).solve(b)
            assert np.allclose(x, BandedLU(mass).solve(b), rtol=1e-13,
                               atol=1e-13 * np.abs(x).max())

    @pytest.mark.parametrize("k", [1, 3])
    def test_not_positive_definite_reports_pivot(self, k):
        a = np.diag([1.0, 2.0, 3.0, -4.0, 5.0])
        with pytest.raises(SingularMatrixError) as err:
            BandedCholesky(BandedMatrix.from_dense(a, k))
        assert err.value.pivot_index == 3

    def test_rhs_length_mismatch(self):
        chol = BandedCholesky(BandedMatrix.from_dense(np.eye(4), 1))
        with pytest.raises(ValueError, match="length"):
            chol.solve(np.ones(3))


def _bits(a):
    """An array's bytes, integers widened to int64: scipy's wrappers
    return 32-bit pivots, numpy's OpenBLAS (ILP64) 64-bit ones."""
    return (a if a.dtype.kind == "f" else a.astype(np.int64)).tobytes()


def _factor_bits(factors, binding):
    arrays = list(factors._factors)
    if (binding == "scipy" and isinstance(factors, BandedLU)
            and not factors._tridiagonal):
        # scipy's gbtrf wrapper numbers the pivots from 0, LAPACK from 1
        arrays[1] = arrays[1] + 1
    return [_bits(a) for a in arrays]


class TestLapackLoader:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 9, 4095])
    def test_factors_match_scipy_lapack_bitwise(self, n, k, monkeypatch):
        # numpy's LAPACK against scipy's _flapack: every factor and every
        # solution, on 1-D and 2-D right-hand sides (C- and
        # Fortran-ordered), with overwrite_b on and off
        rng = np.random.default_rng(10 * n + k)
        # LU on a random band, whose pivoting swaps rows; Cholesky on a
        # dominant diagonal, of which it reads the upper part
        general = rng.normal(size=(2 * k + 1, n))
        spd = rng.normal(size=(2 * k + 1, n))
        spd[k] = 2 * k * np.abs(spd).max() + rng.random(n)
        rhs = [rng.normal(size=n), rng.normal(size=(n, 3)),
               np.asfortranarray(rng.normal(size=(n, 3)))]
        bits = {}
        for name, binding in (("numpy", linsolve.lapack),
                              ("scipy", _wrappers())):
            monkeypatch.setattr(linsolve, "lapack", binding)
            run = []
            for factors in (BandedLU(BandedMatrix(n, k, general)),
                            BandedCholesky(BandedMatrix(n, k, spd))):
                run += _factor_bits(factors, name)
                for overwrite_b in (False, True):
                    for b in rhs:
                        b = b.copy(order="K")
                        x = factors.solve(b, overwrite_b=overwrite_b)
                        run += [x.shape, x is b, _bits(x), _bits(b)]
            bits[name] = run
        assert bits["numpy"] == bits["scipy"]

    def test_reuses_the_module_scipy_linalg_loaded(self):
        # the fallback's start-up branch: scipy.linalg is imported first
        out = _run_fresh("""
            import sys, types
            import scipy.linalg
            from igafin import linsolve
            flapack = sys.modules["scipy.linalg._flapack"]
            wrappers = linsolve._bind_lapack(types.SimpleNamespace())
            print(wrappers._module is flapack,
                  wrappers._module is scipy.linalg.lapack._flapack,
                  linsolve._load_lapack() is flapack)
            """)
        assert out.split() == ["True", "True", "True"]

    def test_missing_wrappers_name_the_file(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack",
                            raising=False)
        # the loader finds scipy's directory without importing scipy
        find_spec = importlib.util.find_spec
        fake = importlib.machinery.ModuleSpec(
            "scipy", None, origin=str(tmp_path / "__init__.py"))
        monkeypatch.setattr(importlib.util, "find_spec", lambda name, *a:
                            fake if name == "scipy" else find_spec(name, *a))
        with pytest.raises(ImportError, match="_flapack") as err:
            _wrappers()
        assert str(tmp_path / "linalg") in str(err.value)
