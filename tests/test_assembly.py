"""Galerkin matrix assembly, collocation and boundary lifting."""

import tracemalloc

import numpy as np
import pytest

from igafin import assembly
from igafin.assembly import Collocation, PhysicalMap, assemble
from igafin.basis import (KnotVector, NurbsBasis, eval_nurbs_all,
                          eval_spline_many, make_refined_open_knots,
                          make_uniform_open_knots)
from igafin.quadrature import gauss_legendre_rule


def _dense_matrices(basis, pmap, rule):
    """Direct dense quadrature of mass, stiffness and advection."""
    n = basis.n_basis
    mats = [np.zeros((n, n)) for _ in range(3)]
    bp = basis.knots.breakpoints
    for a, b in zip(bp[:-1], bp[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for z, wq in zip(rule.nodes, rule.weights):
            xi = float(mid + half * z)
            v0 = eval_nurbs_all(basis, xi)
            v1 = eval_nurbs_all(basis, xi, order=1)
            w = wq * half
            mats[0] += w * np.outer(v0, v0)
            mats[1] += w * np.outer(v1, v1)
            mats[2] += w * np.outer(v1, v0)
    return mats[0] * pmap.dx_dxi, mats[1] * pmap.dxi_dx, mats[2]


class TestPhysicalMap:
    def test_roundtrip_and_jacobian(self):
        pmap = PhysicalMap(-1.2, 3.8)
        assert pmap.dx_dxi == pytest.approx(5.0)
        xs = np.linspace(-1.2, 3.8, 11)
        assert pmap.to_physical(pmap.to_parameter(xs)) \
            == pytest.approx(xs, abs=1e-14)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            PhysicalMap(1.0, 1.0)


class TestAssemble:
    @pytest.mark.parametrize("degree,weighted", [(1, False), (2, False),
                                                 (3, False), (3, True)])
    def test_matches_dense_oracle(self, degree, weighted):
        rng = np.random.default_rng(410 + degree)
        knots = make_uniform_open_knots(7, degree)
        w = rng.uniform(0.5, 2.0, knots.n_basis) if weighted \
            else np.ones(knots.n_basis)
        basis = NurbsBasis(knots, w)
        pmap = PhysicalMap(0.0, 2.5)
        rule = gauss_legendre_rule(degree + 2)
        sys_ = assemble(basis, pmap, rule)
        for banded, cols, dense in zip(
                (sys_.mass, sys_.stiffness, sys_.advection),
                (sys_.mass_cols, sys_.stiffness_cols, sys_.advection_cols),
                _dense_matrices(basis, pmap, rule)):
            assert np.abs(banded.to_dense() - dense[1:-1, 1:-1]).max() < 1e-12
            assert np.abs(cols - dense[1:-1][:, [0, -1]]).max() < 1e-12

    def test_refined_knots_handled(self):
        knots = make_refined_open_knots(12, 3, 0.5)
        basis = NurbsBasis(knots, np.ones(knots.n_basis))
        pmap = PhysicalMap(-2.0, 2.0)
        sys_ = assemble(basis, pmap, gauss_legendre_rule(5))
        dense = _dense_matrices(basis, pmap, gauss_legendre_rule(5))[0]
        assert np.abs(sys_.mass.to_dense() - dense[1:-1, 1:-1]).max() < 1e-12

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    @pytest.mark.parametrize("refined", [False, True])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_blocks_give_the_single_block_bitwise(self, monkeypatch, degree,
                                                  refined, weighted):
        # blocks of 4 spans on meshes below, at, above and not a multiple
        # of a block, and blocks of one span
        rng = np.random.default_rng(20 + degree)
        pmap, rule = PhysicalMap(-6.0, 2.0), gauss_legendre_rule(degree + 2)
        for n_elements in (3, 4, 8, 11):
            if refined:
                # graded spans, and above degree 1 a repeated interior knot
                inner = np.linspace(0.0, 1.0, n_elements + 1)[1:-1] ** 2
                inner = np.sort(np.concatenate([inner,
                                                inner[-1:][:degree - 1]]))
                knots = KnotVector(np.concatenate(
                    [np.zeros(degree + 1), inner, np.ones(degree + 1)]),
                    degree)
            else:
                knots = make_uniform_open_knots(n_elements, degree)
            w = rng.uniform(0.5, 2.0, knots.n_basis) if weighted \
                else np.ones(knots.n_basis)
            basis = NurbsBasis(knots, w)
            systems = []
            for block in (10**9, 4, 1):
                monkeypatch.setattr(assembly, "_BLOCK_SPANS", block)
                systems.append(assemble(basis, pmap, rule))
            whole, *blocked = systems
            for sys_ in blocked:
                for name in ("mass", "stiffness", "advection"):
                    assert np.array_equal(getattr(sys_, name).data,
                                          getattr(whole, name).data)
                    assert np.array_equal(getattr(sys_, name + "_cols"),
                                          getattr(whole, name + "_cols"))

    def test_scratch_memory_does_not_grow_with_the_mesh(self):
        # one basis table of every span took 13.6 times the system's bytes
        knots = make_uniform_open_knots(16384, 1)
        basis = NurbsBasis(knots, np.ones(knots.n_basis))
        tracemalloc.start()
        try:
            sys_ = assemble(basis, PhysicalMap(-6.0, 2.0),
                            gauss_legendre_rule(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(getattr(sys_, name).data.nbytes
                   + getattr(sys_, name + "_cols").nbytes
                   for name in ("mass", "stiffness", "advection"))
        assert peak <= 3 * held

    def test_mass_spd(self):
        knots = make_uniform_open_knots(10, 3)
        basis = NurbsBasis(knots, np.ones(knots.n_basis))
        sys_ = assemble(basis, PhysicalMap(0.0, 1.0), gauss_legendre_rule(5))
        m = sys_.mass.to_dense()
        assert np.abs(m - m.T).max() < 1e-14
        assert np.linalg.eigvalsh(m).min() > 0.0

    def test_stiffness_annihilates_constants(self):
        # the derivative of the constant 1 vanishes pointwise, so the full
        # stiffness row sums are zero even under inexact rational quadrature
        rng = np.random.default_rng(414)
        knots = make_uniform_open_knots(9, 3)
        basis = NurbsBasis(knots, rng.uniform(0.5, 2.0, knots.n_basis))
        sys_ = assemble(basis, PhysicalMap(0.0, 3.0), gauss_legendre_rule(5))
        res = sys_.stiffness.matvec(np.ones(sys_.stiffness.n)) \
            + sys_.stiffness_cols @ np.ones(2)
        assert np.abs(res).max() < 1e-12

    def test_advection_annihilates_constants_polynomial_case(self):
        # unit weights keep the integrands polynomial, so carrying the
        # constant through the advection matrix integrates N_i' exactly
        # and telescopes to zero for interior rows
        knots = make_uniform_open_knots(9, 3)
        basis = NurbsBasis(knots, np.ones(knots.n_basis))
        sys_ = assemble(basis, PhysicalMap(0.0, 3.0), gauss_legendre_rule(5))
        res = sys_.advection.matvec(np.ones(sys_.advection.n)) \
            + sys_.advection_cols @ np.ones(2)
        assert np.abs(res).max() < 1e-12

    def test_operator_combination(self):
        knots = make_uniform_open_knots(6, 2)
        basis = NurbsBasis(knots, np.ones(knots.n_basis))
        sys_ = assemble(basis, PhysicalMap(0.0, 1.0), gauss_legendre_rule(4))
        a, cols = sys_.operator((2.0, -0.5, 3.0))
        expect = 2.0 * sys_.stiffness.to_dense() \
            - 0.5 * sys_.advection.to_dense() + 3.0 * sys_.mass.to_dense()
        assert np.allclose(a.to_dense(), expect, atol=1e-14)
        expect_cols = 2.0 * sys_.stiffness_cols - 0.5 * sys_.advection_cols \
            + 3.0 * sys_.mass_cols
        assert np.allclose(cols, expect_cols, atol=1e-14)

    def test_too_few_basis_functions(self):
        knots = make_uniform_open_knots(1, 1)
        basis = NurbsBasis(knots, np.ones(knots.n_basis))
        with pytest.raises(ValueError):
            assemble(basis, PhysicalMap(0.0, 1.0), gauss_legendre_rule(2))


class TestCollocation:
    def test_project_interpolates(self):
        # the collocation matvec is the spline evaluated at the Greville
        # points, which the run uses for every table it writes
        rng = np.random.default_rng(420)
        knots = make_uniform_open_knots(11, 3)
        basis = NurbsBasis(knots, rng.uniform(0.5, 2.0, knots.n_basis))
        colloc = Collocation(basis)
        coeffs = rng.normal(size=basis.n_basis)
        got = eval_spline_many(basis, coeffs, colloc.points)
        assert colloc.evaluate(coeffs) == pytest.approx(got, abs=1e-13)


class TestLiftBoundary:
    def test_matches_dense_columns(self):
        rng = np.random.default_rng(430)
        knots = make_uniform_open_knots(7, 3)
        basis = NurbsBasis(knots, rng.uniform(0.5, 2.0, knots.n_basis))
        pmap = PhysicalMap(0.0, 2.0)
        rule = gauss_legendre_rule(5)
        sys_ = assemble(basis, pmap, rule)
        dm, dk, dn = _dense_matrices(basis, pmap, rule)
        wb = np.array([1.7, -0.3])
        for cols, dense in ((sys_.mass_cols, dm), (sys_.stiffness_cols, dk),
                            (sys_.advection_cols, dn)):
            expect = dense[1:-1, 0] * wb[0] + dense[1:-1, -1] * wb[1]
            assert cols @ wb == pytest.approx(expect, rel=1e-12, abs=1e-13)
