"""Gauss-Legendre rules."""

import math

import numpy as np
import pytest

from igafin.quadrature import gauss_legendre_rule


class TestRuleConstruction:
    def test_known_low_orders(self):
        r1 = gauss_legendre_rule(1)
        assert r1.nodes == pytest.approx([0.0])
        assert r1.weights == pytest.approx([2.0])
        r2 = gauss_legendre_rule(2)
        c = 1.0 / math.sqrt(3.0)
        assert r2.nodes == pytest.approx([-c, c], abs=1e-15)
        assert r2.weights == pytest.approx([1.0, 1.0], abs=1e-15)
        r3 = gauss_legendre_rule(3)
        c = math.sqrt(0.6)
        assert r3.nodes == pytest.approx([-c, 0.0, c], abs=1e-15)
        assert r3.weights == pytest.approx([5 / 9, 8 / 9, 5 / 9], abs=1e-15)

    def test_weights_sum_and_symmetry(self):
        for n in range(1, 13):
            rule = gauss_legendre_rule(n)
            assert rule.weights.sum() == pytest.approx(2.0, abs=1e-14)
            assert rule.nodes == pytest.approx(-rule.nodes[::-1], abs=1e-15)
            assert np.all(np.diff(rule.nodes) > 0)

    def test_order_validated(self):
        with pytest.raises(ValueError):
            gauss_legendre_rule(0)


class TestExactness:
    def test_monomials_to_design_degree(self):
        # an n-point rule integrates x^k over [-1, 1] exactly for k <= 2n-1
        for n in range(1, 9):
            rule = gauss_legendre_rule(n)
            for k in range(2 * n):
                exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
                got = float(np.sum(rule.weights * rule.nodes ** k))
                assert got == pytest.approx(exact, abs=1e-13)

    def test_random_polynomials(self):
        rng = np.random.default_rng(210)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            deg = 2 * n - 1
            coeffs = rng.normal(size=deg + 1)
            poly = np.polynomial.Polynomial(coeffs)
            exact = float(poly.integ()(1.0) - poly.integ()(-1.0))
            rule = gauss_legendre_rule(n)
            got = float(np.sum(rule.weights * poly(rule.nodes)))
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)
