"""Knot vectors, B-spline/NURBS evaluation and Greville abscissae."""

import numpy as np
import pytest

from igafin.basis import (KnotVector, NurbsBasis, basis_table,
                          eval_nurbs_all, eval_spline_many, greville_abscissae,
                          make_refined_open_knots, make_uniform_open_knots)


def _random_basis(rng, n_elements=9, degree=3, weighted=True):
    knots = make_uniform_open_knots(n_elements, degree)
    w = rng.uniform(0.5, 2.0, knots.n_basis) if weighted \
        else np.ones(knots.n_basis)
    return NurbsBasis(knots, w)


class TestKnotVector:
    def test_uniform_counts(self):
        for n_e, p in ((4, 1), (8, 2), (16, 3)):
            kv = make_uniform_open_knots(n_e, p)
            assert kv.n_basis == n_e + p
            assert len(kv.values) == kv.n_basis + p + 1
            assert kv.values[0] == 0.0 and kv.values[-1] == 1.0
            assert len(kv.breakpoints) == n_e + 1

    def test_refined_contains_full_multiplicity_kink(self):
        kv = make_refined_open_knots(16, 3, 0.5)
        interior = kv.values[4:-4]
        assert np.count_nonzero(interior == 0.5) == 3

    def test_refined_needs_a_span_on_each_side(self):
        # one element used to run on two spans after a division by zero
        for n_elements in (1, 0):
            with pytest.raises(ValueError, match="n_elements >= 2"):
                make_refined_open_knots(n_elements, 3, 0.5)

    def test_refined_span_grading(self):
        # spans shrink geometrically toward the kink from either side
        kv = make_refined_open_knots(16, 3, 0.5)
        left = np.sort(np.unique(kv.values[kv.values <= 0.5]))
        widths = np.diff(left)
        ratios = widths[1:] / widths[:-1]
        assert np.all(ratios < 1.0 + 1e-12)

    def test_breakpoints_are_the_distinct_knots(self):
        for kv in (make_uniform_open_knots(16, 3),
                   make_refined_open_knots(16, 3, 0.5),
                   make_refined_open_knots(9, 3, 0.3),
                   make_uniform_open_knots(5, 1)):
            assert np.array_equal(kv.breakpoints, np.unique(kv.values))

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            KnotVector(np.array([0, 0, 0, 0, 0.6, 0.4, 1, 1, 1, 1.0]), 3)

    def test_rejects_non_open(self):
        with pytest.raises(ValueError, match="open"):
            KnotVector(np.array([0, 0, 0, 0.5, 1, 1, 1, 1.0]), 3)

    @pytest.mark.parametrize("values,degree,match", [
        ([0, 0, 0, 0, 1, 1, 1, 1.0], 0, "degree must be >= 1"),
        ([0, 0, 0, 1, 1, 1.0], 3, "too short"),
        ([0, 0, 0, 0, 0.5, 1, 1, 1.0], 3, "last knot")])
    def test_rejects_a_bad_degree_length_or_last_knot(
            self, values, degree, match):
        with pytest.raises(ValueError, match=match):
            KnotVector(np.array(values), degree)

    def test_uniform_needs_an_element(self):
        with pytest.raises(ValueError, match="n_elements must be >= 1"):
            make_uniform_open_knots(0, 3)

    @pytest.mark.parametrize("kink_xi", [0.0, 1.0, -0.5, 1.5])
    def test_refined_needs_the_kink_inside(self, kink_xi):
        with pytest.raises(ValueError, match="inside"):
            make_refined_open_knots(16, 3, kink_xi)

    def test_rejects_excess_interior_multiplicity(self):
        vals = np.array([0, 0, 0, 0, 0.5, 0.5, 0.5, 0.5, 1, 1, 1, 1.0])
        with pytest.raises(ValueError, match="multiplicity"):
            KnotVector(vals, 3)

    def test_weight_count_checked(self):
        kv = make_uniform_open_knots(4, 2)
        with pytest.raises(ValueError, match="weights"):
            NurbsBasis(kv, np.ones(kv.n_basis + 1))
        with pytest.raises(ValueError, match="positive"):
            NurbsBasis(kv, np.zeros(kv.n_basis))


class TestRefinedKnots:
    """The one rule for refined knots on a grid of meshes and kinks: each
    side of the kink grades its own spans 100:1, and the kink is a knot
    of multiplicity p."""

    KINKS = np.arange(0.01, 0.98, 0.03)

    @pytest.mark.parametrize("degree,meshes", [
        (3, range(2, 130)), (1, range(2, 130, 16)), (2, range(3, 130, 16)),
        (4, range(5, 130, 16)), (5, range(7, 130, 16))])
    def test_each_side_grades_100_to_1_to_a_kink_of_multiplicity_p(
            self, degree, meshes):
        eps = np.finfo(float).eps
        for n in meshes:
            for kink in map(float, self.KINKS):
                kv = make_refined_open_knots(n, degree, kink)
                assert isinstance(kv, KnotVector) and kv.degree == degree
                assert np.count_nonzero(kv.values == kink) == degree
                bp = kv.breakpoints
                at = int(np.searchsorted(bp, kink))
                assert bp[at] == kink and len(bp) == n + 1
                for spans in (np.diff(bp[:at + 1]), np.diff(bp[at:])):
                    if len(spans) > 1:
                        # the knots carry the rounding of a cumulative sum
                        # of the side's spans, some n eps each
                        tol = 1e-12 + len(spans) * eps / spans.min()
                        assert spans.max() / spans.min() == pytest.approx(
                            100.0, rel=tol), (n, kink)


def _span(kv, xi):
    """Index i of the span [xi_i, xi_(i+1)) that basis_table puts xi in:
    its first nonzero function plus the degree."""
    basis = NurbsBasis(kv, np.ones(kv.n_basis))
    return int(basis_table(basis, [xi], 0)[0][0]) + kv.degree


class TestFindSpan:
    def test_endpoints(self):
        kv = make_uniform_open_knots(8, 3)
        lo = _span(kv, 0.0)
        hi = _span(kv, 1.0)
        assert kv.values[lo] <= 0.0 < kv.values[lo + 1]
        # the right endpoint belongs to the last non-empty span
        assert kv.values[hi] < 1.0 <= kv.values[hi + 1]

    def test_interior_knot_starts_its_span(self):
        # a point on a knot takes the span that starts there, a repeated
        # knot included: the span index is the knot's last copy
        for kv, xi in ((make_uniform_open_knots(8, 3), 0.5),
                       (make_refined_open_knots(16, 3, 0.4), 0.4)):
            i = _span(kv, xi)
            assert kv.values[i] == xi < kv.values[i + 1]
            assert _span(kv, float(np.nextafter(xi, 0.0))) < i


class TestPartitionOfUnity:
    def test_bspline(self):
        rng = np.random.default_rng(101)
        for p in (1, 2, 3, 4):
            kv = make_uniform_open_knots(11, p)
            # unit weights reduce the rational basis to the B-splines
            basis = NurbsBasis(kv, np.ones(kv.n_basis))
            for xi in rng.uniform(0.0, 1.0, 40):
                vals = eval_nurbs_all(basis, float(xi))
                assert vals.sum() == pytest.approx(1.0, abs=1e-13)
                assert np.all(vals >= 0.0)

    def test_nurbs_weighted(self):
        rng = np.random.default_rng(102)
        basis = _random_basis(rng)
        for xi in rng.uniform(0.0, 1.0, 60):
            vals = eval_nurbs_all(basis, float(xi))
            assert vals.sum() == pytest.approx(1.0, abs=1e-13)

    def test_derivative_sums_to_zero(self):
        rng = np.random.default_rng(103)
        basis = _random_basis(rng)
        for xi in rng.uniform(0.05, 0.95, 30):
            d1 = eval_nurbs_all(basis, float(xi), order=1)
            assert abs(d1.sum()) < 1e-10


class TestDerivatives:
    def test_first_and_second_vs_finite_difference(self):
        rng = np.random.default_rng(104)
        basis = _random_basis(rng)
        h = 1e-5
        for xi in rng.uniform(0.05, 0.95, 20):
            xi = float(xi)
            v_m = eval_nurbs_all(basis, xi - h)
            v_0 = eval_nurbs_all(basis, xi)
            v_p = eval_nurbs_all(basis, xi + h)
            d1 = eval_nurbs_all(basis, xi, order=1)
            fd1 = (v_p - v_m) / (2.0 * h)
            assert np.abs(d1 - fd1).max() < 1e-5 * np.abs(d1).max()
            d2 = eval_nurbs_all(basis, xi, order=2)
            fd2 = (v_p - 2.0 * v_0 + v_m) / h ** 2
            assert np.abs(d2 - fd2).max() < 1e-3 * max(1.0, np.abs(d2).max())


class TestGreville:
    def test_shape_and_monotone(self):
        kv = make_uniform_open_knots(10, 3)
        g = greville_abscissae(kv)
        assert g.shape == (kv.n_basis,)
        assert g[0] == 0.0 and g[-1] == 1.0
        assert np.all(np.diff(g) > 0)

    def test_linear_precision(self):
        # coefficients equal to the Greville abscissae reproduce identity
        rng = np.random.default_rng(105)
        basis = _random_basis(rng, weighted=False)
        g = greville_abscissae(basis.knots)
        xs = rng.uniform(0.0, 1.0, 50)
        vals = eval_spline_many(basis, g, xs)
        assert np.abs(vals - xs).max() < 1e-13
        ders = eval_spline_many(basis, g, xs, order=1)
        assert np.abs(ders - 1.0).max() < 1e-10


def _scipy_rows(knots, xs, order):
    """Dense B-spline derivative rows from scipy, an independent oracle
    that, like basis_table, evaluates right limits at knots."""
    from scipy.interpolate import BSpline
    t, p = knots.values, knots.degree
    return BSpline(t, np.eye(knots.n_basis), p)(xs, nu=order)


def _dense_table(basis, xs, order):
    first, R = basis_table(basis, xs, order)
    p = basis.degree
    assert R.shape == (len(xs), order + 1, p + 1)
    assert np.all((first >= 0) & (first + p < basis.n_basis))
    out = np.zeros((len(xs), order + 1, basis.n_basis))
    for i, f in enumerate(first):
        out[i, :, f:f + p + 1] = R[i]
    return out


_KERNEL_KNOTS = {
    "uniform1": lambda: make_uniform_open_knots(9, 1),
    "uniform2": lambda: make_uniform_open_knots(9, 2),
    "uniform3": lambda: make_uniform_open_knots(12, 3),
    "uniform4": lambda: make_uniform_open_knots(7, 4),
    "refined3": lambda: make_refined_open_knots(16, 3, 0.4),
}


class TestBasisTable:
    """The batched kernel against scipy.interpolate.BSpline."""

    @staticmethod
    def _points(knots, rng):
        return np.concatenate([rng.uniform(0.0, 1.0, 60), knots.values,
                               [0.0, 1.0]])

    @pytest.mark.parametrize("name", sorted(_KERNEL_KNOTS))
    def test_unit_weights_match_bsplines(self, name):
        knots = _KERNEL_KNOTS[name]()
        basis = NurbsBasis(knots, np.ones(knots.n_basis))
        xs = self._points(knots, np.random.default_rng(201))
        for order in (0, 1, 2):
            got = _dense_table(basis, xs, order)
            for k in range(order + 1):
                want = _scipy_rows(knots, xs, k)
                tol = 1e-12 * max(1.0, np.abs(want).max())
                assert np.abs(got[:, k] - want).max() <= tol, (order, k)

    @pytest.mark.parametrize("name", sorted(_KERNEL_KNOTS))
    def test_weights_enter_by_the_quotient_rule(self, name):
        knots = _KERNEL_KNOTS[name]()
        rng = np.random.default_rng(202)
        w = rng.uniform(0.3, 3.0, knots.n_basis)
        xs = self._points(knots, rng)
        n0, n1, n2 = (w * _scipy_rows(knots, xs, k) for k in range(3))
        W0, W1, W2 = (r.sum(axis=1, keepdims=True) for r in (n0, n1, n2))
        r0 = n0 / W0
        r1 = (n1 - r0 * W1) / W0
        r2 = (n2 - 2.0 * r1 * W1 - r0 * W2) / W0
        got = _dense_table(NurbsBasis(knots, w), xs, 2)
        for k, want in enumerate((r0, r1, r2)):
            tol = 1e-11 * max(1.0, np.abs(want).max())
            assert np.abs(got[:, k] - want).max() <= tol, k

    @pytest.mark.parametrize("name", sorted(_KERNEL_KNOTS))
    def test_smooth_across_knots_to_degree_minus_multiplicity(self, name):
        # one ulp below an interior knot the kernel uses the span ending
        # there; for a knot of multiplicity m, derivatives of order up to
        # p - m agree with the knot's own (right) span to rounding, and the
        # next one jumps
        knots = _KERNEL_KNOTS[name]()
        w = np.random.default_rng(203).uniform(0.3, 3.0, knots.n_basis)
        basis = NurbsBasis(knots, w)
        uniq, mult = np.unique(knots.values, return_counts=True)
        for xi, m in zip(uniq[1:-1], mult[1:-1]):
            xs = np.array([np.nextafter(xi, 0.0), xi])
            below, at = _dense_table(basis, xs, 2)
            smooth = knots.degree - m
            for k in range(min(2, smooth) + 1):
                tol = 1e-12 * max(1.0, np.abs(at[k]).max())
                assert np.abs(below[k] - at[k]).max() <= tol, (xi, k)
            if smooth < 2:
                k = smooth + 1
                jump = np.abs(below[k] - at[k]).max()
                assert jump > 0.1 * np.abs(at[k]).max(), (xi, k)

    def test_kink_gives_the_right_limit(self):
        # the cubic is only C0 at the triple knot: the knot's row is the
        # limit from above, and the slope from below differs from it
        knots = make_refined_open_knots(16, 3, 0.4)
        basis = NurbsBasis(knots, np.ones(knots.n_basis))
        xs = np.array([np.nextafter(0.4, 0.0), 0.4, np.nextafter(0.4, 1.0)])
        below, at, above = _dense_table(basis, xs, 1)
        assert np.abs(at - above).max() <= 1e-9 * np.abs(at).max()
        # continuous values: they move by at most the slope times the step
        step = xs[1] - xs[0]
        assert np.abs(below[0] - at[0]).max() \
            <= 2.0 * np.abs(below[1]).max() * step
        assert np.abs(below[1] - at[1]).max() > 1.0

    def test_rejects_bad_order_and_points(self):
        basis = NurbsBasis(make_uniform_open_knots(4, 3), np.ones(7))
        with pytest.raises(ValueError, match="order"):
            basis_table(basis, np.array([0.5]), 3)
        for bad in (-1e-9, 1.0 + 1e-9, np.nan):
            with pytest.raises(ValueError, match="outside"):
                basis_table(basis, np.array([0.5, bad]), 0)


class TestEvalSplineMany:
    def test_matches_pointwise_dot(self):
        rng = np.random.default_rng(106)
        basis = _random_basis(rng)
        coeffs = rng.normal(size=basis.n_basis)
        xs = rng.uniform(0.0, 1.0, 25)
        vals = eval_spline_many(basis, coeffs, xs)
        for x, v in zip(xs, vals):
            assert v == pytest.approx(
                float(eval_nurbs_all(basis, float(x)) @ coeffs), abs=1e-14)

    def test_rejects_points_outside(self):
        rng = np.random.default_rng(107)
        basis = _random_basis(rng)
        with pytest.raises(ValueError, match="outside"):
            eval_spline_many(basis, np.zeros(basis.n_basis), np.array([1.2]))

    def test_rejects_a_coefficient_length_mismatch(self):
        basis = _random_basis(np.random.default_rng(108))
        with pytest.raises(ValueError, match="length mismatch"):
            eval_spline_many(basis, np.zeros(basis.n_basis + 1), [0.5])
