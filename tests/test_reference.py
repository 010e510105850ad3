"""Closed-form, finite-difference and hat-function reference solvers."""

import math
from pathlib import Path

import numpy as np
import pytest

from igafin.cli import parse_config
from igafin.linsolve import BandedLU
from igafin.models import AfvParams, LelandParams, _norm_cdf
from igafin.reference import (_central_differences, fdm_solve,
                              fdm_solve_afv, misfit_epsilon, p1fem_solve)
from igafin.stepper import (NewtonDivergenceError, SchemeConfig,
                            build_discretization, run_leland, value_curve)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
LIN = LelandParams(rate=0.05, sigma=0.2, strike=100.0, maturity=1.0)
LELAND = LelandParams(rate=0.1, sigma=0.2, strike=100.0, maturity=1.0,
                      leland_number=0.8)


def _fdm_call(params, x_min, x_max, n_cells, n_steps):
    """The call twin's nodes and final nodal values of vhat."""
    disc, surf = fdm_solve(params, x_min, x_max, n_cells,
                           SchemeConfig(n_steps, store_every=0))
    return disc.greville_x, surf.final["vhat"]


class TestClosedForm:
    def test_reference_value(self):
        assert LIN.closed_form(100.0, 0.0) \
            == pytest.approx(10.450583572185565, abs=1e-12)

    def test_terminal_payoff(self):
        assert LIN.closed_form(130.0, 1.0) == pytest.approx(30.0)
        assert LIN.closed_form(70.0, 1.0) == pytest.approx(0.0)

    def test_deep_in_the_money_limit(self):
        v = LIN.closed_form(1.0e6, 0.0)
        intrinsic = 1.0e6 - 100.0 * math.exp(-0.05)
        assert v == pytest.approx(intrinsic, rel=1e-9)

    def test_greeks_match_finite_differences(self):
        # without and with transaction costs
        rng = np.random.default_rng(610)
        h = 1e-4
        for params in [LIN] * 20 + [LELAND] * 20:
            price = params.closed_form
            s = float(rng.uniform(60.0, 160.0))
            t = float(rng.uniform(0.0, 0.8))
            delta, gamma, theta = params.closed_form_greeks(s, t)
            fd_delta = (price(s + h, t) - price(s - h, t)) / (2 * h)
            fd_gamma = (price(s + h, t) - 2 * price(s, t)
                        + price(s - h, t)) / h ** 2
            fd_theta = (price(s, t + h) - price(s, t - h)) / (2 * h)
            assert delta == pytest.approx(fd_delta, abs=1e-7)
            assert gamma == pytest.approx(fd_gamma, abs=1e-5)
            assert theta == pytest.approx(fd_theta, abs=1e-5)

    def test_greeks_are_the_textbook_formulas_bitwise(self):
        # Black-Scholes at sigma sqrt(1 + Le), each Greek written out, with
        # the textbook normal cdf N(d) = erfc(-d / sqrt 2) / 2
        def ndtr(d):
            return np.vectorize(math.erfc)(-d / math.sqrt(2.0)) / 2.0

        s = np.geomspace(20.0, 500.0, 41)[:, None]
        t = np.linspace(0.0, 0.95, 9)
        for params in (LIN, LELAND):
            sigma = params.sigma * math.sqrt(1.0 + params.leland_number)
            for ti in t:
                ttm = params.maturity - ti
                vol = sigma * math.sqrt(ttm)
                d1 = (np.log(s / params.strike)
                      + (params.rate + 0.5 * sigma ** 2) * ttm) / vol
                pdf = np.exp(-d1 ** 2 / 2.0) / np.sqrt(2 * np.pi)
                disc = math.exp(-params.rate * ttm)
                want = (ndtr(d1), pdf / (s * vol),
                        -0.5 * s * pdf * sigma / math.sqrt(ttm)
                        - params.rate * params.strike * disc * ndtr(d1 - vol))
                got = params.closed_form_greeks(s, ti)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)

    def test_normal_cdf_is_scipys_ndtr(self):
        # the closed form's N, from math.erfc, against scipy's; the lower
        # end is where N(d1) of a deep out-of-the-money call underflows
        from scipy.special import ndtr
        d = np.linspace(-37.5, 37.5, 30001)
        assert np.abs(_norm_cdf(d) / ndtr(d) - 1.0).max() <= 1e-12

    def test_greeks_need_time_before_maturity(self):
        with pytest.raises(ValueError, match="time to maturity"):
            LIN.closed_form_greeks(100.0, 1.0)

    def test_delta_bounds(self):
        rng = np.random.default_rng(611)
        for _ in range(50):
            s = float(rng.uniform(10.0, 400.0))
            delta, gamma, _ = LIN.closed_form_greeks(s, 0.3)
            assert 0.0 <= delta <= 1.0
            assert gamma >= 0.0


def test_central_differences_are_a_galerkin_system():
    x = np.linspace(-1.0, 1.0, 7)
    h = x[1] - x[0]
    a, cols = _central_differences(x).operator((0.3, -0.7, 0.1))
    # A = -L with L w = Y1 D2 w + Y2 D1 w - Y3 w on the full node vector
    full = np.zeros((5, 7))
    for i in range(5):
        full[i, i:i + 3] = [-0.3 / h ** 2 - 0.7 / (2 * h), 0.6 / h ** 2 + 0.1,
                            -0.3 / h ** 2 + 0.7 / (2 * h)]
    assert np.allclose(a.to_dense(), full[:, 1:-1], rtol=1e-14, atol=0.0)
    assert np.allclose(cols, full[:, [0, -1]], rtol=1e-14, atol=0.0)


class TestFdmLeland:
    def test_converges_without_costs(self):
        a, b = LIN.domain()
        errs = []
        for n in (128, 256):
            nodes, vhat = _fdm_call(LIN, a, b, n, 4 * n)
            tau = LIN.horizon
            x = math.log(100.0) + LIN.kappa * tau
            v = math.exp(-LIN.kappa * tau) * float(np.interp(x, nodes, vhat))
            errs.append(abs(v - LIN.closed_form(100.0, 0.0)))
        assert errs[1] < errs[0]
        assert errs[1] < 0.05

    def test_costs_widen_the_spread(self):
        le = LelandParams(rate=0.1, sigma=0.2, strike=100.0, maturity=1.0,
                          leland_number=0.8)
        a, b = le.domain()
        nodes, vhat_le = _fdm_call(le, a, b, 256, 320)
        lin = LelandParams(rate=0.1, sigma=0.2, strike=100.0, maturity=1.0)
        _, vhat_0 = _fdm_call(lin, a, b, 256, 320)
        tau = le.horizon
        x = math.log(100.0) + le.kappa * tau
        v_le = math.exp(-le.kappa * tau) * np.interp(x, nodes, vhat_le)
        v_0 = math.exp(-lin.kappa * tau) * np.interp(x, nodes, vhat_0)
        assert v_le > v_0 + 1.0

    def test_agrees_with_the_galerkin_march(self):
        le = LelandParams(rate=0.1, sigma=0.2, strike=100.0, maturity=1.0,
                          leland_number=0.8)
        a, b = le.domain()
        disc = build_discretization(a, b, 256)
        surf = run_leland(le, disc, SchemeConfig(n_steps=80))
        v_iga = float(value_curve(le, disc, surf, [100.0])[0])
        nodes, vhat = _fdm_call(le, a, b, 256, 80)
        tau = le.horizon
        x = math.log(100.0) + le.kappa * tau
        v_fdm = math.exp(-le.kappa * tau) * float(np.interp(x, nodes, vhat))
        assert v_iga == pytest.approx(v_fdm, abs=0.25)

    def test_pinned_value(self):
        le = LelandParams(rate=0.1, sigma=0.2, strike=100.0, maturity=1.0,
                          leland_number=0.8)
        a, b = le.domain()
        nodes, vhat = _fdm_call(le, a, b, 256, 80)
        x = math.log(100.0) + le.kappa * le.horizon
        v = math.exp(-le.kappa * le.horizon) * float(np.interp(x, nodes, vhat))
        assert v == pytest.approx(15.58073037598943, rel=1e-12)


@pytest.mark.parametrize("config", ["leland_ladder.ini", "convertible.ini"])
def test_fdm_space_reads_its_nodal_values_by_linear_interpolation(config):
    # the twin's space is the hat functions on its nodes, so the model
    # value at a price is the linear interpolant of the final nodal values
    cfg = parse_config(str(CONFIGS / config))
    params = cfg.params
    disc, surf = fdm_solve(params, cfg.x_min, cfg.x_max, 64,
                           SchemeConfig(20, store_every=0))
    assert np.array_equal(disc.greville_x,
                          np.linspace(cfg.x_min, cfg.x_max, 65))
    s = np.array([60.0, 87.5, 100.0, 113.0, 150.0])
    tau, field = surf.tau(surf.n_steps), params.value_column[1]
    want = params.value_scale(tau) * np.interp(
        params.x_of(s, tau), disc.greville_x, surf.final[field])
    got = value_curve(params, disc, surf, s)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestFdmAfv:
    def _params(self, **overrides):
        base = dict(rate=0.05, sigma=0.2, maturity=5.0, face_value=100.0,
                    conversion_ratio=1.0, s_initial=100.0, hazard_rate=0.02,
                    recovery=0.0, eta=0.0,
                    coupons=tuple((0.5 * i, 4.0) for i in range(1, 11)),
                    call_window=(2.0, 5.0, 110.0),
                    put_window=(3.0, 3.0, 105.0), rho=1.0e6)
        base.update(overrides)
        return AfvParams(**base)

    def test_splitting_identity_when_unconstrained(self):
        p = self._params(rho=0.0, call_window=None, put_window=None,
                         hazard_rate=0.0)
        res = fdm_solve_afv(p, n_cells=64, n_steps=50)
        gap = np.abs(res.values["U"] - res.values["B"]
                     - res.values["C"]).max()
        assert gap < 1e-8

    def test_right_boundary_tracks_conversion(self):
        p = self._params()
        res = fdm_solve_afv(p, n_cells=64, n_steps=50)
        s_right = 100.0 * math.exp(res.x[-1])
        assert res.values["U"][-1] == pytest.approx(s_right, rel=0.02)

    def test_call_ceiling_respected(self):
        p = self._params(put_window=None)
        res = fdm_solve_afv(p, n_cells=128, n_steps=100)
        # at t = 0 the call window is closed, but the cash component can
        # never have grown past the ceiling plus one accrued coupon
        assert res.values["B"].max() <= 110.0 + 4.0 + 1e-6

    def test_first_solve_of_each_level_reuses_the_cached_factor(self,
                                                                monkeypatch):
        factor = BandedLU.__init__
        count = []

        def counting(self, mat):
            count.append(mat.n)
            factor(self, mat)

        monkeypatch.setattr(BandedLU, "__init__", counting)
        cfg = parse_config(str(CONFIGS / "convertible.ini"))
        fdm_solve_afv(cfg.params, cfg.x_min, cfg.x_max, 128, 100, cfg.theta,
                      cfg.rannacher_steps)
        # 2 operators (U and C share theirs) x 2 thetas cached, plus one
        # factorisation per distinct Jacobian: the 65 of 106 Newton
        # iterates with an active penalty have 6 distinct Jacobians, each
        # met again while among the last four; the other 41 reuse the
        # operator's factor
        assert len(count) == 10

    def test_pinned_value(self):
        cfg = parse_config(str(CONFIGS / "convertible.ini"))
        res = fdm_solve_afv(cfg.params, cfg.x_min, cfg.x_max, 128, 100,
                            cfg.theta, cfg.rannacher_steps)
        u = float(np.interp(0.0, res.x, res.values["U"]))
        assert u == pytest.approx(125.0576777062165, rel=1e-12)

    def test_is_the_final_level_of_the_twin(self):
        cfg = parse_config(str(CONFIGS / "convertible.ini"))
        res = fdm_solve_afv(cfg.params, cfg.x_min, cfg.x_max, 64, 40,
                            cfg.theta, cfg.rannacher_steps)
        disc, surf = fdm_solve(cfg.params, cfg.x_min, cfg.x_max, 64,
                               SchemeConfig(40, cfg.theta,
                                            cfg.rannacher_steps))
        assert np.array_equal(res.x, disc.greville_x)
        assert res.values.keys() == surf.final.keys()
        for name, values in res.values.items():
            assert np.array_equal(values, surf.final[name])

    def test_newton_failure_is_raised(self, monkeypatch):
        cfg = parse_config(str(CONFIGS / "convertible.ini"))
        monkeypatch.setattr(AfvParams, "newton_max_iter", 1)
        with pytest.raises(NewtonDivergenceError) as info:
            fdm_solve_afv(cfg.params, cfg.x_min, cfg.x_max, 128, 100, cfg.theta,
                          cfg.rannacher_steps)
        assert info.value.level == 18


class TestP1Fem:
    def test_is_the_degree_one_pipeline(self):
        a, b = LIN.domain()
        disc, surf = p1fem_solve(LIN, a, b, 64, SchemeConfig(n_steps=32))
        assert disc.basis.degree == 1
        direct = build_discretization(a, b, 64, degree=1)
        expect = run_leland(LIN, direct, SchemeConfig(n_steps=32))
        assert np.array_equal(surf.final["vhat"], expect.final["vhat"])

    def test_hat_functions_converge(self):
        a, b = LIN.domain()
        errs = []
        for n in (128, 512):
            disc, surf = p1fem_solve(LIN, a, b, n, SchemeConfig(n_steps=n))
            v = float(value_curve(LIN, disc, surf, [100.0])[0])
            errs.append(abs(v - LIN.closed_form(100.0, 0.0)))
        assert errs[1] < errs[0] / 4.0


class TestMisfit:
    def test_plain_two_norm(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.0, 0.0, 7.0])
        assert misfit_epsilon(a, b) == pytest.approx(math.sqrt(4.0 + 16.0))
        assert misfit_epsilon(a, a) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="grid"):
            misfit_epsilon(np.ones(3), np.ones(4))
