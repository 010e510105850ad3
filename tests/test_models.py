"""Model parameter sets, coefficient tables, transforms and constraints."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from igafin.cli import parse_config
from igafin.models import (AfvParams, LelandParams, accrued_interest,
                           afv_terminal, apply_B_constraints,
                           apply_joint_constraints, constraint_state,
                           default_delta, default_gamma)
from igafin.reference import fdm_discretization
from igafin.stepper import SchemeConfig, build_discretization, run

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _table3_params(**overrides):
    base = dict(rate=0.05, sigma=0.2, maturity=5.0, face_value=100.0,
                conversion_ratio=1.0, s_initial=100.0, hazard_rate=0.02,
                recovery=0.0, eta=0.0,
                coupons=tuple((0.5 * i, 4.0) for i in range(1, 11)),
                call_window=(2.0, 5.0, 110.0), put_window=(3.0, 3.0, 105.0),
                rho=1.0e6, newton_tol=1.0e-6)
    base.update(overrides)
    return AfvParams(**base)


class TestLelandParams:
    def test_derived_quantities(self):
        p = LelandParams(rate=0.05, sigma=0.2, strike=100.0, maturity=1.0)
        assert p.kappa == pytest.approx(2.5)
        assert p.horizon == pytest.approx(0.02)

    @pytest.mark.parametrize("bad", [
        dict(sigma=0.0), dict(strike=-1.0), dict(maturity=0.0),
        dict(rate=-0.01), dict(leland_number=-0.1),
        # sigma^2 overflows, or underflows to zero
        dict(sigma=1e200), dict(sigma=1e-200)])
    def test_validation(self, bad):
        kwargs = dict(rate=0.05, sigma=0.2, strike=100.0, maturity=1.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            LelandParams(**kwargs)

    def test_closed_form_of_the_leland_call(self):
        # Black-Scholes at sigma sqrt(1 + Le) (Leland 1985): bitwise the
        # frictionless price at that volatility, whose sigma sqrt(1) is
        # sigma itself
        le = LelandParams(0.1, 0.2, 100.0, 1.0, 0.8)
        assert le.closed_form(100.0, 0.0) == pytest.approx(15.615964,
                                                           abs=1e-6)
        s = np.array([50.0, 100.0, 200.0])
        bs = LelandParams(0.1, 0.2 * math.sqrt(1.8), 100.0, 1.0)
        assert np.array_equal(le.closed_form(s, 0.3), bs.closed_form(s, 0.3))

    def test_closed_form_refuses_t_beyond_maturity(self):
        p = LelandParams(rate=0.05, sigma=0.2, strike=100.0, maturity=1.0)
        with pytest.raises(ValueError, match="beyond maturity"):
            p.closed_form(100.0, 1.5)

    def test_only_the_call_has_a_closed_form(self):
        assert not hasattr(_table3_params(), "closed_form")


class TestAfvParams:
    def test_terminal_coupon_detection(self):
        p = _table3_params()
        assert p.terminal_coupon == 4.0
        q = _table3_params(coupons=((1.0, 4.0),))
        assert q.terminal_coupon == 0.0

    def test_rho_zero_disables_exercise(self):
        # with rho = 0, convertible.ini's call and put windows change
        # nothing: every level of the march is bitwise that of the bond
        # without them, on the cubic space and on the FDM twin
        cfg = parse_config(str(CONFIGS / "convertible.ini"))
        rights = replace(cfg.params, rho=0.0)
        assert rights.call_window and rights.put_window
        bare = replace(rights, call_window=None, put_window=None)
        scheme = SchemeConfig(50, cfg.theta, cfg.rannacher_steps)
        for disc in (build_discretization(cfg.x_min, cfg.x_max, 64),
                     fdm_discretization(cfg.x_min, cfg.x_max, 64)):
            with_rights = run(rights, disc, scheme)
            without = run(bare, disc, scheme)
            assert with_rights.levels.keys() == without.levels.keys()
            for level, fields in with_rights.levels.items():
                for name in ("U", "B", "C"):
                    assert np.array_equal(fields[name],
                                          without.levels[level][name])

    @pytest.mark.parametrize("bad", [
        dict(sigma=-0.2), dict(eta=1.5), dict(recovery=-0.1),
        dict(hazard_rate=-0.02), dict(rho=0.5), dict(newton_tol=0.0),
        dict(conversion_ratio=0.0), dict(s_initial=-100.0),
        dict(coupons=((1.0, 4.0), (0.5, 4.0))),
        dict(coupons=((6.0, 4.0),)),
        dict(call_window=(4.0, 2.0, 110.0)),
        dict(coupons=((0.5, 4.0), (1.0, -4.0))),
        dict(call_window=(2.0, 5.0, -110.0)), dict(call_window=(2.0, 5.0, 0.0)),
        dict(put_window=(3.0, 3.0, -105.0)), dict(put_window=(3.0, 3.0, 0.0)),
        # the call is tested on (start, end], which one date leaves empty
        dict(call_window=(3.0, 3.0, 110.0)),
        dict(sigma=1e200), dict(sigma=1e-200),
        # k S_0 overflows, so (F + c_T) / (k S_0), whose log is the kink,
        # is 0; and F / (k S_0) overflows
        dict(conversion_ratio=1e300, s_initial=1e10),
        dict(conversion_ratio=1e-300, s_initial=1e-10)])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            _table3_params(**bad)


class TestCoefficients:
    def test_call_model(self):
        p = LelandParams(rate=0.1, sigma=0.2, strike=100.0, maturity=1.0)
        assert p.coefficients("vhat") == (1.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            p.coefficients("U")

    def test_bond_model_reference_values(self):
        # sigma^2/2 = 0.02, r + p*eta - sigma^2/2 = 0.03, r + p = 0.07
        p = _table3_params()
        for unknown in ("U", "C"):
            y = p.coefficients(unknown)
            assert y == pytest.approx((0.02, 0.03, 0.07))
        # zero recovery makes the cash-component reaction term coincide
        assert p.coefficients("B") == pytest.approx(
            (0.02, 0.03, 0.07))
        assert p.coefficients("U")[0] == pytest.approx(0.02)

    def test_recovery_lowers_cash_reaction_only(self):
        p = _table3_params(recovery=0.4)
        yu = p.coefficients("U")
        yb = p.coefficients("B")
        assert yu[2] == pytest.approx(0.07)
        assert yb[2] == pytest.approx(0.07 - 0.4 * 0.02)
        with pytest.raises(ValueError):
            p.coefficients("vhat")


_MODELS = {"call": LelandParams(rate=0.08, sigma=0.3, strike=50.0,
                                maturity=2.0),
           "bond": _table3_params()}


class TestLelandTransform:
    @pytest.mark.parametrize("model", sorted(_MODELS))
    def test_maturity_is_identity(self, model):
        p = _MODELS[model]
        tau = p.tau_of(p.maturity)
        assert tau == 0.0
        assert p.t_of(tau) == p.maturity
        assert p.value_scale(tau) == 1.0
        assert p.s_of(p.x_of(80.0, tau), tau) == pytest.approx(80.0)

    def test_reference_point(self):
        p = LelandParams(rate=0.05, sigma=0.2, strike=100.0, maturity=1.0)
        tau = p.tau_of(0.0)
        assert tau == pytest.approx(0.02) and tau == p.horizon
        assert p.x_of(100.0, tau) == pytest.approx(math.log(100.0) + 0.05)
        assert p.value_scale(tau) == pytest.approx(math.exp(-0.05))

    @pytest.mark.parametrize("model", sorted(_MODELS))
    def test_roundtrip(self, model):
        rng = np.random.default_rng(510)
        p = _MODELS[model]
        s = rng.uniform(1.0, 400.0, 100)
        t = rng.uniform(0.0, p.maturity, 100)
        tau = p.tau_of(t)
        assert p.s_of(p.x_of(s, tau), tau) == pytest.approx(s, rel=1e-13)
        assert p.t_of(tau) == pytest.approx(t, abs=1e-13)

    def test_bond_frame_is_fixed_in_time(self):
        p = _MODELS["bond"]
        assert p.horizon == p.maturity
        assert p.x_of(p.s_initial, 1.3) == 0.0
        assert p.value_scale(1.3) == 1.0

    def test_payoff_kink_values(self):
        p = LelandParams(rate=0.05, sigma=0.2, strike=100.0, maturity=1.0)
        assert p.payoff(math.log(100.0)) == pytest.approx(0.0)
        assert p.payoff(math.log(200.0)) == pytest.approx(100.0)
        assert p.payoff(-30.0) == 0.0

    def test_bond_payoff_is_the_terminal_holder_value(self):
        p = _table3_params()
        x = np.array([-1.0, 0.0, 0.5])
        assert np.array_equal(p.payoff(x),
                              afv_terminal(p.conversion_value(x), p)[0])

    def test_output_columns(self):
        assert LelandParams.columns == (("V", "vhat"),)
        assert AfvParams.columns == (("U", "U"), ("B", "B"), ("C", "C"))
        assert LelandParams.value_column == ("V", "vhat")
        assert AfvParams.value_column == ("U", "U")



class TestEventCalendar:
    def test_call_model_has_no_events(self):
        p = LelandParams(rate=0.05, sigma=0.2, strike=100.0, maturity=1.0)
        assert p.calendar(p.horizon / 10, 10) == ({}, set())

    def test_coupons_and_single_date_put(self):
        # semiannual coupons over five years at dtau = 0.0125: the coupon at
        # t lands on level (5 - t) / dtau, the maturity coupon is terminal
        # data, and the put at t = 3 shares level 160 with a coupon
        p = _table3_params()
        events, jumps = p.calendar(p.horizon / 400, 400)
        coupons = {40 * k: 4.0 for k in range(1, 10)}
        call = set(range(1, 240))
        assert events == {m: (coupons.get(m, 0.0), m == 160, m in call)
                          for m in call | set(coupons)}
        assert jumps == set(coupons)

    def test_call_window_opens_after_its_start_level(self):
        # the call window (2, 5] is open-left: at 400 steps the call levels
        # are 1..239, and level 240, at t = 2.0, has no call ceiling
        p = _table3_params(coupons=(), put_window=None)
        dtau = p.horizon / 400
        events, jumps = p.calendar(dtau, 400)
        assert events == {m: (0.0, False, True) for m in range(1, 240)}
        assert jumps == set()
        assert p.t_of(240 * dtau) == 2.0
        ks = p.conversion_value([0.0])
        b_call = [constraint_state(p, p.t_of(m * dtau), ks,
                                   call_active=m in events).b_call_dirty
                  for m in (239, 240)]
        assert b_call == [110.0, math.inf]

    def test_put_window_is_open_on_its_levels_and_never_jumps(self):
        # the call window (2, 5] is open on levels 1..29 of 50
        p = _table3_params(coupons=(), put_window=(2.5, 3.0, 105.0))
        events, jumps = p.calendar(p.horizon / 50, 50)
        assert events == {m: (0.0, 20 <= m <= 24, True)
                          for m in range(1, 30)}
        assert jumps == set()

    def test_off_grid_single_date_put_takes_the_nearest_level(self):
        p = _table3_params(coupons=(), put_window=(3.04, 3.04, 105.0),
                           call_window=None)
        assert p.calendar(0.1, 50) == ({20: (0.0, True, False)}, {20})

    @pytest.mark.parametrize("n_steps", [1, 4, 10])
    def test_every_coupon_before_maturity_reaches_the_march(self, n_steps):
        # nine coupons of 4 before maturity; one within dtau/2 of maturity
        # used to round to level 0 and be lost, leaving 16 at one step
        # and 32 at four
        p = _table3_params()
        events, jumps = p.calendar(p.horizon / n_steps, n_steps)
        assert sum(coupon for coupon, _, _ in events.values()) == 36.0
        assert min(jumps) >= 1

    def test_coupon_near_maturity_takes_level_one(self):
        p = _table3_params(coupons=((4.9, 2.0), (5.0, 4.0)), put_window=None,
                           call_window=None)
        assert p.calendar(0.5, 10) == ({1: (2.0, False, False)}, {1})

    def test_one_step_puts_its_events_on_level_one(self):
        # the put at t = 3 rounds to level 0 and is moved to level 1, the
        # only level of a one-step march; the call is not open at t = 0
        p = _table3_params()
        events, jumps = p.calendar(p.horizon, 1)
        assert set(events) == jumps == {1}
        assert events[1][1:] == (True, False)


class TestAfvTerminal:
    def test_reference_points(self):
        p = _table3_params()
        # conversion values k S at k = 1; redemption = face + final coupon
        # = 104
        assert afv_terminal(90.0, p) == pytest.approx((104.0, 104.0, 0.0))
        assert afv_terminal(120.0, p) == pytest.approx((120.0, 104.0, 16.0))
        assert afv_terminal(104.0, p) == pytest.approx((104.0, 104.0, 0.0))

    def test_splitting_identity(self):
        rng = np.random.default_rng(511)
        p = _table3_params()
        s = rng.uniform(1.0, 500.0, 200)
        u, b, c = afv_terminal(s, p)
        assert np.abs(u - (b + c)).max() == 0.0


class TestAccruedInterest:
    def test_schedule_points(self):
        p = _table3_params()
        assert accrued_interest(0.5, p) == pytest.approx(4.0)
        assert accrued_interest(0.75, p) == pytest.approx(2.0)
        assert accrued_interest(0.5 + 1e-12, p) == pytest.approx(0.0, abs=1e-9)
        assert accrued_interest(0.0, p) == 0.0

    def test_no_coupons(self):
        p = _table3_params(coupons=())
        assert accrued_interest(1.3, p) == 0.0


class TestDefaultSourceTerms:
    def test_zero_recovery(self):
        p = _table3_params()
        x = np.array([-1.0, 0.0, 0.5])
        ks = p.conversion_value(x)
        delta = default_delta(ks, np.zeros(3), p)
        gamma = default_gamma(ks, np.zeros(3), p)
        expect = 100.0 * np.exp(x)
        assert delta == pytest.approx(expect)
        assert gamma == pytest.approx(expect)

    def test_recovery_branch(self):
        p = _table3_params(recovery=0.5)
        # deep out of the money the recovered cash exceeds conversion value
        ks = p.conversion_value([-4.0])
        delta = default_delta(ks, np.array([100.0]), p)
        gamma = default_gamma(ks, np.array([100.0]), p)
        assert delta[0] == pytest.approx(50.0)
        assert gamma[0] == 0.0

    def test_eta_haircut(self):
        p = _table3_params(eta=0.3)
        delta = default_delta(p.conversion_value([0.0]), np.array([0.0]), p)
        assert delta[0] == pytest.approx(70.0)


class TestConstraintState:
    def test_flags_open_the_rights(self):
        # the calendar decides when a right is open; the state follows its
        # flags and reads t only for the accrual
        p = _table3_params()
        ks = p.conversion_value([0.0])
        for t in (1.0, 2.0, 5.0):
            closed = constraint_state(p, t, ks)
            assert (closed.b_call_dirty, closed.b_put_dirty) == \
                (math.inf, -math.inf)
            opened = constraint_state(p, t, ks, put_active=True,
                                      call_active=True)
            acc = accrued_interest(t, p)
            assert (opened.b_call_dirty, opened.b_put_dirty) == \
                (110.0 + acc, 105.0 + acc)

    def test_dirty_prices_include_accrual(self):
        p = _table3_params()
        st = constraint_state(p, 2.75, p.conversion_value([0.0]),
                              call_active=True)
        assert st.b_call_dirty == pytest.approx(110.0 + 2.0)
        st3 = constraint_state(p, 3.0, p.conversion_value([0.0]),
                               put_active=True)
        # t = 3 is a payment date: accrual has reset to the full coupon
        assert st3.b_put_dirty == pytest.approx(105.0 + 4.0)

    def test_coupon_settlement_nets_the_payment(self):
        p = _table3_params()
        st = constraint_state(p, 3.0, p.conversion_value([0.0]),
                              put_active=True, call_active=True,
                              coupon_now=4.0)
        # pre-injection clamp: accrual resets, put floor surrenders the coupon
        assert st.b_put_dirty == pytest.approx(101.0)
        assert st.b_call_dirty == pytest.approx(110.0)

    def test_pointwise_bounds(self):
        p = _table3_params()
        x = np.array([-1.0, 0.0, 0.5])
        st = constraint_state(p, 4.0, p.conversion_value(x),
                              call_active=True)
        ks = 100.0 * np.exp(x)
        assert st.conversion_value == pytest.approx(ks)
        assert st.u_star_call == pytest.approx(np.maximum(st.b_call_dirty, ks))
        assert np.all(st.u_star_put <= st.u_star_call + 1e-12)

    def test_inactive_windows_are_sentinels(self):
        p = _table3_params()
        st = constraint_state(p, 1.0, p.conversion_value([0.0]))
        assert st.b_call_dirty == math.inf
        assert st.b_put_dirty == -math.inf
        assert st.u_star_put == pytest.approx([100.0])  # conversion floor

    def test_rho_zero_is_the_state_without_bounds(self):
        # exercise off: with both rights flagged open there is still no
        # put floor, no call ceiling and no conversion floor
        p = _table3_params(rho=0.0)
        ks = p.conversion_value(np.array([-1.0, 0.0, 0.5]))
        st = constraint_state(p, 3.0, ks, put_active=True, call_active=True)
        assert (st.b_put_dirty, st.b_call_dirty) == (-math.inf, math.inf)
        assert np.all(st.conversion_value == -math.inf)
        assert np.all(st.u_star_put == -math.inf)
        assert np.all(st.u_star_call == math.inf)


class TestApplyConstraints:
    def test_call_ceiling(self):
        p = _table3_params()
        st = constraint_state(p, 5.0, p.conversion_value([0.0]),
                              call_active=True)
        b = apply_B_constraints(np.array([120.0]), np.array([0.0]), st)
        assert b[0] == pytest.approx(st.b_call_dirty)

    def test_put_floor_counts_equity_component(self):
        p = _table3_params(put_window=(3.0, 3.0, 105.0), call_window=None)
        st = constraint_state(p, 3.0, p.conversion_value([0.0]),
                              put_active=True)
        floor = st.b_put_dirty
        b = apply_B_constraints(np.array([0.0]), np.array([0.0]), st)
        assert b[0] == pytest.approx(floor)
        # equity already carries part of the floor
        b2 = apply_B_constraints(np.array([0.0]), np.array([40.0]), st)
        assert b2[0] == pytest.approx(floor - 40.0)

    def test_joint_clip_shifts_cash_component(self):
        p = _table3_params()
        x = np.array([0.3, 0.3])
        st = constraint_state(p, 4.0, p.conversion_value(x),
                              call_active=True)
        u = np.array([100.0, 400.0])
        b = np.array([60.0, 60.0])
        b_new = apply_joint_constraints(b, u, st)
        ks = 100.0 * math.exp(0.3)
        # below the conversion floor the shift raises B; above the call
        # ceiling (here ks > call price) it lowers it
        assert b_new[0] == pytest.approx(60.0 + (ks - 100.0))
        assert b_new[1] == pytest.approx(60.0 + (st.u_star_call[1] - 400.0))


class TestDomainAndKink:
    def test_model_specific_windows(self):
        afv = _table3_params()
        assert afv.domain() == (-6.0, 2.0)
        lin = LelandParams(rate=0.05, sigma=0.2, strike=100.0, maturity=1.0)
        c = math.log(100.0)
        assert lin.domain() == pytest.approx((c - 3.4425, c + 3.1613))
        le = LelandParams(rate=0.1, sigma=0.2, strike=100.0, maturity=1.0,
                          leland_number=0.8)
        assert le.domain() == pytest.approx((c - 6.4, c + 6.4))

    def test_kink_is_where_the_payoff_bends(self):
        # ln K for the call; for the bond, where conversion k S meets the
        # redemption F + c_T
        call = LelandParams(rate=0.05, sigma=0.2, strike=100.0, maturity=1.0)
        assert call.kink == math.log(100.0)
        bond = _table3_params(conversion_ratio=2.0, s_initial=80.0)
        assert bond.conversion_value(bond.kink) == pytest.approx(104.0)
        for p in (call, bond):
            left = p.payoff(p.kink + np.array([-0.2, -0.1]))
            right = p.payoff(p.kink + np.array([0.1, 0.2]))
            assert left[0] == left[1] and right[1] > right[0] > left[1]
