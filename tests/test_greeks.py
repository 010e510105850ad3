"""Sensitivities from spline derivatives and slice differencing."""

import numpy as np
import pytest

from igafin.greeks import delta, gamma, greeks_table, theta, write_greeks_csv
from igafin.models import AfvParams, LelandParams
from igafin.reference import bs_exact_greeks
from igafin.stepper import SchemeConfig, build_discretization, run

LIN = LelandParams(rate=0.1, sigma=0.2, strike=100.0, maturity=1.0)


@pytest.fixture(scope="module")
def linear_run():
    a, b = LIN.domain()
    disc = build_discretization(a, b, 128)
    surf = run(LIN, disc, SchemeConfig(n_steps=500, store_every=0))
    return disc, surf


class TestLinearGreeks:
    def test_delta_gamma_against_closed_form(self, linear_run):
        disc, surf = linear_run
        s = np.linspace(70.0, 140.0, 29)
        d = delta(LIN, disc, surf.final, s_points=s)
        g = gamma(LIN, disc, surf.final, s_points=s)
        exact = np.array([bs_exact_greeks(si, 0.0, LIN) for si in s])
        assert np.abs(d.values - exact[:, 0]).max() < 5e-3
        assert np.abs(g.values - exact[:, 1]).max() < 5e-4
        assert d.time == pytest.approx(0.0)

    def test_theta_against_closed_form(self, linear_run):
        disc, surf = linear_run
        s = np.linspace(70.0, 140.0, 29)
        th = theta(LIN, disc, surf, s_points=s)
        exact = np.array([bs_exact_greeks(si, 0.0, LIN)[2] for si in s])
        assert np.abs(th.values - exact).max() < 5e-2

    def test_default_grid_is_the_greville_image(self, linear_run):
        disc, surf = linear_run
        table = greeks_table(LIN, disc, surf)
        expect = np.exp(disc.greville_x - LIN.kappa * surf.final.tau)
        assert table.s == pytest.approx(expect)

    def test_rejects_nonpositive_price(self, linear_run):
        # outside stock prices enter through the Greeks' s_points
        disc, surf = linear_run
        with pytest.raises(ValueError, match="positive"):
            delta(LIN, disc, surf.final, s_points=[0.0])

    def test_needs_two_slices(self, linear_run):
        disc, _ = linear_run
        single = run(LIN, disc, SchemeConfig(n_steps=0))
        with pytest.raises(ValueError, match="two"):
            theta(LIN, disc, single)


class TestLelandGamma:
    def test_continuous_across_simple_knots(self):
        from igafin.basis import eval_spline_many
        le = LelandParams(rate=0.1, sigma=0.2, strike=100.0, maturity=1.0,
                          leland_number=0.8)
        a, b = le.domain()
        disc = build_discretization(a, b, 128)
        surf = run(le, disc, SchemeConfig(n_steps=320, store_every=0))
        coeffs = surf.final.coeffs["vhat"]
        interior = disc.basis.knots.breakpoints[1:-1]
        left = eval_spline_many(disc.basis, coeffs, interior, order=2,
                                side="left")
        right = eval_spline_many(disc.basis, coeffs, interior, order=2,
                                 side="right")
        assert np.abs(left - right).max() <= 1e-8


class TestAfvGreeks:
    def _params(self):
        return AfvParams(rate=0.05, sigma=0.2, maturity=5.0,
                         face_value=100.0, conversion_ratio=1.0,
                         s_initial=100.0, hazard_rate=0.02, recovery=0.0,
                         eta=0.0,
                         coupons=tuple((0.5 * i, 4.0) for i in range(1, 11)),
                         call_window=(2.0, 5.0, 110.0),
                         put_window=(3.0, 3.0, 105.0), rho=1.0e6)

    def test_theta_avoids_coupon_straddles(self):
        # the final march level sits just after the first coupon (t = 0.5
        # maps to level 45 of 50); theta at a stored level next to a jump
        # must difference a pair that does not cross it
        p = self._params()
        disc = build_discretization(-6.0, 2.0, 64)
        surf = run(p, disc, SchemeConfig(n_steps=50, store_every=1))
        s = np.array([80.0, 100.0, 120.0])
        th_at_jump = theta(p, disc, surf, index=45, s_points=s)
        # a jump-straddling difference would be dominated by coupon/dtau,
        # i.e. about 4 / 0.1 = 40 per year
        assert np.abs(th_at_jump.values).max() < 20.0

    def test_delta_rises_with_conversion(self):
        p = self._params()
        disc = build_discretization(-6.0, 2.0, 64)
        surf = run(p, disc, SchemeConfig(n_steps=50, store_every=0))
        s = np.linspace(150.0, 400.0, 9)
        d = delta(p, disc, surf.final, s_points=s)
        # deep in the conversion region the bond moves one-for-one
        assert d.values[-1] == pytest.approx(1.0, abs=0.05)


class TestCsvOutput:
    def test_header_and_formatting(self, linear_run, tmp_path):
        disc, surf = linear_run
        table = greeks_table(LIN, disc, surf)
        path = tmp_path / "greeks.csv"
        write_greeks_csv(path, table)
        lines = path.read_text().splitlines()
        assert lines[0] == "S,delta,gamma,theta"
        assert len(lines) == 1 + len(table.s)
        first = lines[1].split(",")
        assert len(first) == 4
        assert float(first[0]) == pytest.approx(table.s[0])

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
        rows = zip(table.s, table.delta, table.gamma, table.theta)
        expected = "S,delta,gamma,theta\n" + "".join(
            ",".join(f"{v:.10g}" for v in row) + "\n" for row in rows)
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
        short = type(table)(table.s, table.delta, table.gamma,
                            table.theta[:-1], table.time)
        with pytest.raises(ValueError):
            write_greeks_csv(tmp_path / "greeks.csv", short)
        assert list(tmp_path.iterdir()) == []
