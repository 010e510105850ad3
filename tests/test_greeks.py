"""Sensitivities from spline derivatives and level differencing."""

import numpy as np
import pytest

from igafin import greeks
from igafin.basis import eval_spline_many
from igafin.greeks import check_greeks, greeks_table, write_greeks_csv
from igafin.models import AfvParams, LelandParams
from igafin.stepper import SchemeConfig, build_discretization, run

LIN = LelandParams(rate=0.1, sigma=0.2, strike=100.0, maturity=1.0)


@pytest.fixture(scope="module")
def linear_run():
    a, b = LIN.domain()
    disc = build_discretization(a, b, 128)
    surf = run(LIN, disc, SchemeConfig(n_steps=500, store_every=0))
    return disc, surf


def _rows(table, lo, hi):
    """The table's stock prices in [lo, hi] and the mask that picks them."""
    s = table[:, 0]
    keep = (s >= lo) & (s <= hi)
    return s[keep], keep


class TestLinearGreeks:
    def test_delta_gamma_against_closed_form(self, linear_run):
        disc, surf = linear_run
        table = greeks_table(LIN, disc, surf)
        s, keep = _rows(table, 70.0, 140.0)
        assert len(s) >= 10
        exact = np.array([LIN.closed_form_greeks(si, 0.0) for si in s])
        _, delta, gamma, _ = table.T
        assert np.abs(delta[keep] - exact[:, 0]).max() < 5e-3
        assert np.abs(gamma[keep] - exact[:, 1]).max() < 5e-4
        assert LIN.t_of(surf.tau(surf.n_steps)) == pytest.approx(0.0)

    def test_theta_against_closed_form(self, linear_run):
        disc, surf = linear_run
        table = greeks_table(LIN, disc, surf)
        s, keep = _rows(table, 70.0, 140.0)
        exact = np.array([LIN.closed_form_greeks(si, 0.0)[2] for si in s])
        assert np.abs(table[keep, 3] - exact).max() < 5e-2

    def test_default_grid_is_the_greville_image(self, linear_run):
        disc, surf = linear_run
        table = greeks_table(LIN, disc, surf)
        expect = np.exp(disc.greville_x - LIN.kappa * surf.tau(surf.n_steps))
        assert table[:, 0] == pytest.approx(expect)

    def test_one_order_two_table_on_the_final_slice(self, linear_run,
                                                    monkeypatch):
        # delta and gamma share one basis table; theta evaluates the two
        # levels it differences and nothing else
        disc, surf = linear_run
        tables, evals = [], []
        basis_table = greeks.basis_table

        def table(basis, xis, order):
            tables.append((len(xis), order))
            return basis_table(basis, xis, order)

        def spline(basis, coeffs, xis, order=0):
            evals.append(order)
            return eval_spline_many(basis, coeffs, xis, order)

        monkeypatch.setattr(greeks, "basis_table", table)
        monkeypatch.setattr(greeks, "eval_spline_many", spline)
        greeks_table(LIN, disc, surf)
        assert tables == [(disc.n_basis, 2)]
        assert evals == [0, 0]

    def test_needs_degree_two(self):
        a, b = LIN.domain()
        disc = build_discretization(a, b, 16, degree=1)
        surf = run(LIN, disc, SchemeConfig(n_steps=4))
        with pytest.raises(ValueError, match="degree"):
            greeks_table(LIN, disc, surf)


class TestLelandGamma:
    def test_continuous_across_simple_knots(self):
        le = LelandParams(rate=0.1, sigma=0.2, strike=100.0, maturity=1.0,
                          leland_number=0.8)
        a, b = le.domain()
        disc = build_discretization(a, b, 128)
        surf = run(le, disc, SchemeConfig(n_steps=320, store_every=0))
        coeffs = surf.final["vhat"]
        interior = disc.basis.knots.breakpoints[1:-1]
        # one ulp below a knot lies in the span that ends there; the two
        # spans sum different basis functions, so the sides agree to the
        # rounding of values up to 8e6 (3e-14 relative), not absolutely
        left = eval_spline_many(disc.basis, coeffs,
                                np.nextafter(interior, 0.0), order=2)
        right = eval_spline_many(disc.basis, coeffs, interior, order=2)
        assert np.all(np.abs(left - right)
                      <= 1e-12 * np.maximum(1.0, np.abs(right)))


class TestLelandGreeks:
    def test_converge_to_the_closed_forms_greeks(self):
        # the exact Greeks are Black-Scholes at sigma sqrt(1 + Le); on the
        # benchmark ladder's first two rungs the errors for S in [50, 200]
        # fall by about 4 per rung
        le = LelandParams(rate=0.1, sigma=0.2, strike=100.0, maturity=1.0,
                          leland_number=0.8)
        a, b = le.domain()
        errors = []
        for n_elements, n_tau in ((256, 80), (512, 320)):
            disc = build_discretization(a, b, n_elements)
            surf = run(le, disc, SchemeConfig(n_steps=n_tau,
                                              store_every=n_tau // 50))
            table = greeks_table(le, disc, surf)
            s, keep = _rows(table, 50.0, 200.0)
            exact = le.closed_form_greeks(s, le.t_of(surf.tau(n_tau)))
            errors.append([np.abs(got[keep] - want).max() for got, want in
                           zip(table[:, 1:].T, exact)])
        # rows are rungs, columns delta, gamma and theta
        errors = np.array(errors)
        assert errors == pytest.approx(np.array(
            [[2.957109e-3, 9.651999e-5, 2.024099e-2],
             [7.761521e-4, 2.669583e-5, 5.840461e-3]]), rel=1e-5)
        assert np.all(errors[0, :2] / errors[1, :2] >= 3.5)


class TestAfvGreeks:
    def _params(self, **overrides):
        base = dict(rate=0.05, sigma=0.2, maturity=5.0, face_value=100.0,
                    conversion_ratio=1.0, s_initial=100.0, hazard_rate=0.02,
                    recovery=0.0, eta=0.0,
                    coupons=tuple((0.5 * i, 4.0) for i in range(1, 11)),
                    call_window=(2.0, 5.0, 110.0),
                    put_window=(3.0, 3.0, 105.0), rho=1.0e6)
        base.update(overrides)
        return AfvParams(**base)

    def test_theta_avoids_a_coupon_on_the_final_level(self):
        # a coupon at t = 0.04 lands on the final level 50 of 50 (dtau =
        # 0.1), as in check_coupon_jump; theta must then difference the
        # two levels before it, not a pair that crosses the jump
        p = self._params(coupons=((0.04, 4.0),) + tuple(
            (0.5 * i, 4.0) for i in range(1, 11)))
        _, jumps = p.calendar(0.1, 50)
        assert 50 in jumps
        disc = build_discretization(-6.0, 2.0, 64)
        surf = run(p, disc, SchemeConfig(n_steps=50, store_every=1))
        assert check_greeks(p, 3, 50) == (48, 49)
        table = greeks_table(p, disc, surf)
        inner = table[1:-1]
        xi = disc.pmap.to_parameter(p.x_of(inner[:, 0], 0.0))
        v0, v1 = (eval_spline_many(disc.basis, surf.levels[m]["U"], xi)
                  for m in (48, 49))
        assert np.array_equal(inner[:, 3], (v1 - v0) / (
            p.t_of(surf.tau(49)) - p.t_of(surf.tau(48))))
        # a jump-straddling difference would be dominated by coupon/dtau,
        # i.e. about 4 / 0.1 = 40 per year
        s, keep = _rows(table, 80.0, 120.0)
        assert len(s) and np.abs(table[keep, 3]).max() < 20.0

    def test_needs_two_slices(self):
        # coupons at t = 0.04 and 0.1 land on levels 50 and 49 of 50, so
        # each pair of the stored levels 48, 49, 50 straddles a jump
        p = self._params(coupons=((0.04, 4.0), (0.1, 4.0)), put_window=None)
        disc = build_discretization(-6.0, 2.0, 16)
        surf = run(p, disc, SchemeConfig(n_steps=50, store_every=0))
        assert list(surf.levels) == [0, 48, 49, 50]
        assert p.calendar(surf.dtau, 50)[1] == {49, 50}
        with pytest.raises(ValueError, match="two"):
            greeks_table(p, disc, surf)

    @pytest.mark.parametrize("coupon_t,n_steps,pair", [
        (None, 1, (0, 1)),
        (None, 2, (1, 2)),
        # the coupon lands on the final level
        (0.01, 1, None),
        (0.01, 2, (0, 1)),
    ])
    def test_theta_pair_reads_the_time_grid_alone(self, coupon_t, n_steps,
                                                  pair):
        # the pair is two time levels, known before the run; the march
        # stores both
        coupons = ((coupon_t, 4.0),) if coupon_t is not None else ()
        p = self._params(coupons=coupons, put_window=None)
        if pair is None:
            with pytest.raises(ValueError, match="theta needs two"):
                check_greeks(p, 3, n_steps)
        else:
            assert check_greeks(p, 3, n_steps) == pair
            disc = build_discretization(-6.0, 2.0, 16)
            surf = run(p, disc, SchemeConfig(n_steps=n_steps, store_every=0))
            assert set(pair) <= surf.levels.keys()

    def test_delta_tends_to_one_deep_in_the_money(self):
        p = self._params()
        disc = build_discretization(-6.0, 2.0, 64)
        surf = run(p, disc, SchemeConfig(n_steps=50, store_every=0))
        table = greeks_table(p, disc, surf)
        s, delta, _, _ = table.T
        j = int(np.argmin(np.abs(s - 400.0)))
        assert s[j] == pytest.approx(400.0, rel=0.02)
        # deep in the conversion region the bond moves one-for-one
        assert delta[j] == pytest.approx(1.0, abs=0.05)


class TestCsvOutput:
    def test_header_and_formatting(self, linear_run, tmp_path):
        disc, surf = linear_run
        table = greeks_table(LIN, disc, surf)
        path = tmp_path / "greeks.csv"
        write_greeks_csv(path, table)
        lines = path.read_text().splitlines()
        assert lines[0] == "S,delta,gamma,theta"
        assert len(lines) == 1 + len(table)
        first = lines[1].split(",")
        assert len(first) == 4
        assert float(first[0]) == pytest.approx(table[0, 0])

    def test_deterministic(self, linear_run, tmp_path):
        disc, surf = linear_run
        table = greeks_table(LIN, disc, surf)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_greeks_csv(p1, table)
        write_greeks_csv(p2, table)
        assert p1.read_bytes() == p2.read_bytes()

    def test_written_atomically_with_the_per_value_format(self, linear_run,
                                                          tmp_path):
        disc, surf = linear_run
        table = greeks_table(LIN, disc, surf)
        path = tmp_path / "greeks.csv"
        write_greeks_csv(path, table)
        expected = "S,delta,gamma,theta\n" + "".join(
            ",".join(f"{v:.10g}" for v in row) + "\n" for row in table)
        assert path.read_text() == expected
        assert [p.name for p in tmp_path.iterdir()] == ["greeks.csv"]

    def test_write_failing_partway_leaves_the_old_file_alone(
            self, linear_run, tmp_path, monkeypatch):
        import igafin.greeks as greeks
        disc, surf = linear_run
        table = greeks_table(LIN, disc, surf)
        path = tmp_path / "greeks.csv"
        path.write_text("old\n")
        real_open = open

        class HalfWritten:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                raise OSError("disk full")

        def half_written(*args, **kwargs):
            return HalfWritten(real_open(*args, **kwargs))

        monkeypatch.setattr(greeks, "open", half_written, raising=False)
        with pytest.raises(OSError, match="disk full"):
            write_greeks_csv(path, table)
        assert [p.name for p in tmp_path.iterdir()] == ["greeks.csv"]
        assert path.read_text() == "old\n"

    def test_failure_leaves_no_file(self, linear_run, tmp_path):
        disc, surf = linear_run
        table = greeks_table(LIN, disc, surf)
        # a cell that "%.10g" cannot format
        bad = table.astype(object)
        bad[-1, -1] = "theta"
        with pytest.raises(TypeError):
            write_greeks_csv(tmp_path / "greeks.csv", bad)
        assert list(tmp_path.iterdir()) == []
