"""Time marching: discretization setup, theta scheme, constraints, Newton."""

import math

import numpy as np
import pytest

from igafin.assembly import PhysicalMap, assemble
from igafin.basis import eval_spline_many
from igafin.linsolve import (BandedCholesky, BandedLU, BandedMatrix,
                             band_products)
from igafin import linsolve, stepper
from igafin.models import (AfvParams, LelandParams, afv_terminal,
                           constraint_state)
from igafin.quadrature import gauss_legendre_rule
from igafin.stepper import (NewtonDivergenceError, NewtonJacobians,
                            SchemeConfig, SolutionSurface,
                            build_discretization,
                            newton_solve_U, run, run_afv, run_leland,
                            step_afv_boundary, step_linear, value_curve)

LIN = LelandParams(rate=0.05, sigma=0.2, strike=100.0, maturity=1.0)


def _afv(**overrides):
    base = dict(rate=0.05, sigma=0.2, maturity=5.0, face_value=100.0,
                conversion_ratio=1.0, s_initial=100.0, hazard_rate=0.02,
                recovery=0.0, eta=0.0,
                coupons=tuple((0.5 * i, 4.0) for i in range(1, 11)),
                call_window=(2.0, 5.0, 110.0), put_window=(3.0, 3.0, 105.0),
                rho=1.0e6, newton_tol=1.0e-6)
    base.update(overrides)
    return AfvParams(**base)


class TestBuildDiscretization:
    def test_uniform_dimensions(self):
        disc = build_discretization(0.0, 1.0, 16)
        assert disc.n_basis == 16 + 3
        assert disc.greville_x[0] == pytest.approx(0.0)
        assert disc.greville_x[-1] == pytest.approx(1.0)
        assert disc.system.n_full == disc.n_basis

    def test_refined_keeps_kink_knot(self):
        disc = build_discretization(-1.0, 1.0, 16, knot_mode="refined")
        bp = disc.basis.knots.breakpoints
        assert 0.5 in bp  # parameter-space kink location
        assert disc.min_span_x() < 2.0 / 16

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="knot_mode"):
            build_discretization(0.0, 1.0, 8, knot_mode="graded")

    @pytest.mark.parametrize("degree", [5, 6])
    def test_quadrature_integrates_the_mass_exactly(self, degree):
        # the mass integrand has degree 2p; degree + 3 points are exact for it
        disc = build_discretization(-1.0, 2.0, 12, degree=degree)
        exact = assemble(disc.basis, disc.pmap,
                         gauss_legendre_rule(degree + 3)).mass.data
        err = np.abs(disc.system.mass.data - exact).max()
        assert err <= 1e-13 * np.abs(exact).max()


class TestSchemeConfig:
    def test_theta_at_rannacher(self):
        s = SchemeConfig(n_steps=10, theta=0.5, rannacher_steps=2)
        assert [s.theta_at(m) for m in range(4)] == [1.0, 1.0, 0.5, 0.5]

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 10])
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_thetas_are_those_of_every_level(self, n_steps, theta):
        # n_steps below, at and above the two Rannacher steps
        s = SchemeConfig(n_steps=n_steps, theta=theta, rannacher_steps=2)
        assert sorted(s.thetas) == sorted(
            {s.theta_at(m) for m in range(n_steps)})

    @pytest.mark.parametrize("bad", [dict(n_steps=-1), dict(n_steps=0),
                                     dict(theta=1.5),
                                     dict(rannacher_steps=-2),
                                     dict(store_every=-1)])
    def test_validation(self, bad):
        kwargs = dict(n_steps=4)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            SchemeConfig(**kwargs)


class TestStoredLevels:
    def test_store_every_plus_mandatory(self):
        a, b = LIN.domain()
        disc = build_discretization(a, b, 8)
        surf = run_leland(LIN, disc, SchemeConfig(n_steps=25, store_every=10))
        assert list(surf.levels) == [0, 10, 20, 23, 24, 25]
        assert surf.levels[25] is surf.final
        assert 11 not in surf.levels

    def test_store_every_zero_keeps_the_mandatory_levels(self):
        a, b = LIN.domain()
        disc = build_discretization(a, b, 8, degree=1)
        sparse = run_leland(LIN, disc, SchemeConfig(n_steps=12, store_every=0))
        dense = run_leland(LIN, disc, SchemeConfig(n_steps=12, store_every=1))
        assert list(sparse.levels) == [0, 10, 11, 12]
        assert np.array_equal(sparse.final["vhat"], dense.final["vhat"])

    def test_one_step(self):
        a, b = LIN.domain()
        disc = build_discretization(a, b, 8)
        surf = run_leland(LIN, disc, SchemeConfig(n_steps=1, store_every=0))
        assert list(surf.levels) == [0, 1]
        assert surf.tau(0) == 0.0
        assert surf.tau(1) == LIN.horizon

    @pytest.mark.parametrize("n_steps,store_every",
                             [(1, 0), (2, 1), (12, 0), (25, 10), (25, 1)])
    def test_keys_are_the_stored_levels_at_level_times_dtau(
            self, n_steps, store_every):
        a, b = LIN.domain()
        disc = build_discretization(a, b, 8)
        scheme = SchemeConfig(n_steps=n_steps, store_every=store_every)
        surf = run_leland(LIN, disc, scheme)
        assert list(surf.levels) == sorted(scheme.stored_levels())
        assert surf.dtau.hex() == (LIN.horizon / n_steps).hex()
        for level in surf.levels:
            assert surf.tau(level).hex() == (level * surf.dtau).hex()


class TestInitialSlice:
    def test_leland_coefficients_are_greville_payoff(self):
        # on uniform knots, cubic or hat functions, the kink is no repeated
        # knot and the march starts from the payoff's Greville values
        a, b = LIN.domain()
        for degree in (3, 1):
            disc = build_discretization(a, b, 32, degree=degree)
            surf = run_leland(LIN, disc, SchemeConfig(n_steps=1))
            expect = LIN.payoff(disc.greville_x)
            assert np.array_equal(surf.levels[0]["vhat"], expect)

    def test_refined_knots_away_from_the_kink_keep_greville_payoff(self):
        a, b = LIN.domain()
        disc = build_discretization(a, b, 32, knot_mode="refined",
                                    kink_xi=0.25)
        assert disc.knot_multiplicity(LIN.kink) == 0
        surf = run_leland(LIN, disc, SchemeConfig(n_steps=1))
        assert np.array_equal(surf.levels[0]["vhat"],
                              LIN.payoff(disc.greville_x))

    def test_kink_aligned_coefficients_interpolate_the_payoff(self):
        a, b = LIN.domain()
        kink_xi = float(PhysicalMap(a, b).to_parameter(LIN.kink))
        disc = build_discretization(a, b, 32, knot_mode="refined",
                                    kink_xi=kink_xi)
        assert disc.knot_multiplicity(LIN.kink) == 3
        surf = run_leland(LIN, disc, SchemeConfig(n_steps=1))
        coeffs = surf.levels[0]["vhat"]
        payoff = LIN.payoff(disc.greville_x)
        assert np.abs(disc.colloc.evaluate(coeffs) - payoff).max() <= 1e-12
        # the boundary coefficients, the march's fixed boundary data, are
        # the payoff's values at the ends
        assert np.array_equal(coeffs[[0, -1]], payoff[[0, -1]])
        assert not np.array_equal(coeffs, payoff)

    def test_afv_coefficients_are_greville_terminal(self):
        params = _afv()
        disc = build_discretization(-6.0, 2.0, 32)
        surf = run_afv(params, disc, SchemeConfig(n_steps=1))
        u, b, c = afv_terminal(params.conversion_value(disc.greville_x),
                               params)
        assert np.array_equal(surf.levels[0]["U"], u)
        assert np.array_equal(surf.levels[0]["B"], b)
        assert np.array_equal(surf.levels[0]["C"], c)


class TestLinearMarch:
    def test_converges_to_closed_form(self):
        a, b = LIN.domain()
        errs = []
        for n in (64, 128):
            disc = build_discretization(a, b, n)
            surf = run_leland(LIN, disc, SchemeConfig(n_steps=n))
            v = float(value_curve(LIN, disc, surf, [100.0])[0])
            errs.append(abs(v - LIN.closed_form(100.0, 0.0)))
        assert errs[0] < 0.6
        assert errs[1] < 0.15
        assert errs[1] < errs[0] / 3.0

    @pytest.mark.parametrize("n_elements,degree",
                             [(32, 1), (32, 3), (2, 1), (2, 3), (1, 3)])
    def test_march_without_costs_is_the_chained_linear_step(self, n_elements,
                                                            degree):
        a, b = LIN.domain()
        disc = build_discretization(a, b, n_elements, degree=degree)
        scheme = SchemeConfig(n_steps=16, store_every=1)
        surf = run_leland(LIN, disc, scheme)
        w = surf.levels[0]["vhat"]
        for level, fields in list(surf.levels.items())[1:]:
            w = step_linear(disc.system, LIN.coefficients("vhat"), w,
                            w[[0, -1]], surf.dtau, scheme.theta_at(level - 1))
            assert np.array_equal(fields["vhat"], w)

    def test_march_without_costs_factors_no_mass(self, monkeypatch):
        calls = []
        cholesky = stepper.BandedCholesky

        def counting(mat):
            calls.append(mat.n)
            return cholesky(mat)

        monkeypatch.setattr(stepper, "BandedCholesky", counting)
        a, b = LIN.domain()
        disc = build_discretization(a, b, 32)
        run_leland(LIN, disc, SchemeConfig(n_steps=16))
        assert calls == []
        le = LelandParams(rate=0.1, sigma=0.2, strike=100.0, maturity=1.0,
                          leland_number=0.8)
        run_leland(le, disc, SchemeConfig(n_steps=16))
        assert calls == [disc.n_basis - 2]

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.5])
    @pytest.mark.parametrize("degree", [1, 3])
    def test_costs_step_is_the_dense_linearised_step(self, degree, theta):
        # each stored level against one step rebuilt from dense matrices:
        # M vtilde = -(A w + lift of A), rhs = R w - lift + dtau M Le|vtilde|
        le = LelandParams(rate=0.1, sigma=0.2, strike=100.0, maturity=1.0,
                          leland_number=0.8)
        a, b = le.domain()
        disc = build_discretization(a, b, 16, degree=degree)
        scheme = SchemeConfig(n_steps=8, theta=theta, rannacher_steps=2,
                              store_every=1)
        surf = run_leland(le, disc, scheme)
        dtau = surf.dtau
        a_int, a_cols = disc.system.operator(le.coefficients("vhat"))
        a_dense, m_dense = a_int.to_dense(), disc.system.mass.to_dense()
        for m in range(scheme.n_steps):
            theta = scheme.theta_at(m)
            w = surf.levels[m]["vhat"]
            a_lift = a_cols @ w[[0, -1]]
            vt = np.linalg.solve(m_dense, -(a_dense @ w[1:-1] + a_lift))
            rhs = ((m_dense - (1.0 - theta) * dtau * a_dense) @ w[1:-1]
                   - dtau * a_lift
                   + dtau * m_dense @ (le.leland_number * np.abs(vt)))
            want = np.linalg.solve(m_dense + theta * dtau * a_dense, rhs)
            got = surf.levels[m + 1]["vhat"]
            assert np.array_equal(got[[0, -1]], w[[0, -1]])
            assert np.abs(got[1:-1] - want).max() <= \
                1e-12 * np.abs(want).max()

    @staticmethod
    def _leland_step(monkeypatch, le, disc, scheme):
        """The step closure ``run_leland`` hands to ``_march``, with the
        level-0 coefficients it starts from."""
        marched = {}

        def recorded(scheme, dtau, fields, step):
            marched.update(fields=fields, step=step)

        monkeypatch.setattr(stepper, "_march", recorded)
        run_leland(le, disc, scheme)
        return marched["step"], marched["fields"]["vhat"]

    @pytest.mark.parametrize("degree", [1, 3])
    @pytest.mark.parametrize("leland_number", [0.0, 0.8])
    def test_step_in_place_is_bitwise_the_step_with_temporaries(
            self, monkeypatch, degree, leland_number):
        le = LelandParams(rate=0.1, sigma=0.2, strike=100.0, maturity=1.0,
                          leland_number=leland_number)
        a, b = le.domain()
        disc = build_discretization(a, b, 64, degree=degree)
        scheme = SchemeConfig(n_steps=40)
        step, w = self._leland_step(monkeypatch, le, disc, scheme)
        op = stepper._ThetaOperator(disc.system, le.coefficients("vhat"),
                                    le.horizon / scheme.n_steps,
                                    scheme.thetas)
        a_lift = op.a_cols @ w[[0, -1]]
        costs = leland_number > 0

        def with_temporaries(theta, w):
            if costs:
                # u = -vtilde, y = w + dtau ((1-theta) vtilde + Le |vtilde|)
                u = BandedCholesky(op.m_int).solve(
                    op.a_int.matvec(w[1:-1]) + a_lift)
                y = (np.abs(u) * (op.dtau * leland_number)
                     - u * (op.dtau * (1.0 - theta)) + w[1:-1])
                rhs = op.m_int.matvec(y) - (theta * op.dtau) * a_lift
            else:
                rhs = op.rhs_mat[theta].matvec(w[1:-1]) - op.dtau * (
                    theta * a_lift + (1.0 - theta) * a_lift)
            w_int = op.lhs_lu[theta].solve(rhs)
            if costs:
                w_int[np.abs(w_int) < np.finfo(float).tiny] = 0.0
            return np.concatenate([w[:1], w_int, w[-1:]])

        for level in range(1, scheme.n_steps + 1):
            theta = scheme.theta_at(level - 1)
            kept = w.copy()
            new = step(level, theta, {"vhat": w})["vhat"]
            assert w.tobytes() == kept.tobytes()
            assert new.tobytes() == with_temporaries(theta, w).tobytes()
            w = new

    def test_costs_step_takes_two_one_band_products(self, monkeypatch):
        # A w and M y: the cost path stacks no R_theta band with A
        shapes = []

        def recorded(data, x):
            shapes.append(data.shape)
            return band_products(data, x)

        monkeypatch.setattr(linsolve, "band_products", recorded)
        monkeypatch.setattr(stepper, "band_products", recorded)
        le = LelandParams(0.1, 0.2, 100.0, 1.0, leland_number=0.8)
        a, b = le.domain()
        disc = build_discretization(a, b, 64)
        scheme = SchemeConfig(n_steps=4)
        step, w = self._leland_step(monkeypatch, le, disc, scheme)
        band = (2 * disc.system.degree + 1, disc.n_basis - 2)
        assert shapes == []
        for level in range(1, scheme.n_steps + 1):
            w = step(level, scheme.theta_at(level - 1), {"vhat": w})["vhat"]
            assert shapes == [band, band]
            shapes.clear()

    def test_costs_leave_no_subnormal_coefficient(self):
        # ahead of the diffusion front the far out-of-the-money tail decays
        # through the subnormal range, where arithmetic is slow
        le = LelandParams(0.1, 0.2, 100.0, 1.0, leland_number=0.8)
        a, b = le.domain()
        disc = build_discretization(a, b, 2048, degree=1)
        surf = run_leland(le, disc, SchemeConfig(n_steps=5120))
        tiny = np.finfo(float).tiny
        subnormal = sum(np.count_nonzero((v != 0) & (np.abs(v) < tiny))
                        for v in (f["vhat"] for f in surf.levels.values()))
        assert len(surf.levels) == 5121
        assert subnormal == 0

    def test_transaction_costs_raise_the_ask_price(self):
        le = LelandParams(rate=0.1, sigma=0.2, strike=100.0, maturity=1.0,
                          leland_number=0.8)
        a, b = le.domain()
        disc = build_discretization(a, b, 128)
        v_le = run_leland(le, disc, SchemeConfig(n_steps=80))
        lin = LelandParams(rate=0.1, sigma=0.2, strike=100.0, maturity=1.0)
        v_0 = run_leland(lin, disc, SchemeConfig(n_steps=80))
        p_le = value_curve(le, disc, v_le, [100.0])[0]
        p_0 = value_curve(lin, disc, v_0, [100.0])[0]
        assert p_le > p_0 + 1.0

    def test_coarse_step_ratio_warns_with_costs(self):
        le = LelandParams(rate=0.1, sigma=0.2, strike=100.0, maturity=1.0,
                          leland_number=0.8)
        a, b = le.domain()
        disc = build_discretization(a, b, 256)
        with pytest.warns(RuntimeWarning, match="oscillate"):
            run_leland(le, disc, SchemeConfig(n_steps=4))

    def test_run_dispatch(self):
        a, b = LIN.domain()
        disc = build_discretization(a, b, 8)
        surf = run(LIN, disc, SchemeConfig(n_steps=4))
        assert surf.n_steps == 4
        with pytest.raises(TypeError):
            run(object(), disc, SchemeConfig(n_steps=4))


class TestEvaluation:
    def test_value_curve_rejects_outside(self):
        a, b = LIN.domain()
        disc = build_discretization(a, b, 8)
        surf = run_leland(LIN, disc, SchemeConfig(n_steps=2))
        s = LIN.s_of(b + 1.0, surf.tau(surf.n_steps))
        with pytest.raises(ValueError, match="outside"):
            value_curve(LIN, disc, surf, [s])

    @pytest.mark.parametrize("a,b", [(0.0, 100.0), (-2.0, 7.0),
                                     (1.5, 9.25)])
    def test_value_curve_evaluates_the_ends_within_rounding(self, a, b):
        # x_of(s_of(x)) rounds x off, and the final tau n (horizon / n)
        # is the horizon rounded: for about a third of these step counts
        # an end maps back outside the domain
        le = LelandParams(0.1, 0.2, 100.0, 1.0, leland_number=0.8)
        disc = build_discretization(a, b, 4, degree=1)
        w = np.arange(disc.n_basis) + 1.0
        s = le.s_of(np.array([a, b]), le.horizon)
        for n in range(1, 300):
            surf = SolutionSurface({n: {"vhat": w}}, n, le.horizon / n)
            got = value_curve(le, disc, surf, s)
            want = le.value_scale(surf.tau(n)) * w[[0, -1]]
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    def test_price_curve_undoes_the_drift_frame(self):
        a, b = LIN.domain()
        disc = build_discretization(a, b, 32)
        surf = run_leland(LIN, disc, SchemeConfig(n_steps=8))
        s = np.array([80.0, 100.0, 125.0])
        tau = surf.tau(surf.n_steps)
        x = np.log(s) + LIN.kappa * tau
        direct = math.exp(-LIN.kappa * tau) * eval_spline_many(
            disc.basis, surf.final["vhat"], disc.pmap.to_parameter(x))
        assert value_curve(LIN, disc, surf, s) \
            == pytest.approx(direct, rel=1e-15)

    def test_value_curve_reads_the_bond_value_column(self):
        params = _afv()
        disc = build_discretization(-6.0, 2.0, 32)
        surf = run_afv(params, disc, SchemeConfig(n_steps=4))
        s = np.array([80.0, 100.0, 125.0])
        x = np.log(s / params.s_initial)
        assert np.array_equal(
            value_curve(params, disc, surf, s),
            eval_spline_many(disc.basis, surf.final["U"],
                             disc.pmap.to_parameter(x)))


class TestBoundaryStep:
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_theta_step_of_the_s_zero_odes(self, theta):
        # dB/dtau = -(r + p - Rp) B, dU/dtau = -(r + p) U + p R B and
        # dC/dtau = -(r + p) C: each change over dtau is dtau times its
        # right-hand side at theta new + (1 - theta) old
        r, p, recovery, dtau = 0.05, 0.02, 0.4, 0.25
        params = _afv(rate=r, hazard_rate=p, recovery=recovery)
        u0, b0, c0 = 104.0, 97.0, 7.0
        u1, b1, c1 = step_afv_boundary((u0, b0, c0), params, dtau, theta)

        def mean(new, old):
            return theta * new + (1.0 - theta) * old

        assert b1 - b0 == pytest.approx(
            -dtau * (r + p - recovery * p) * mean(b1, b0), abs=1e-12)
        assert u1 - u0 == pytest.approx(
            dtau * (-(r + p) * mean(u1, u0) + p * recovery * mean(b1, b0)),
            abs=1e-12)
        assert c1 - c0 == pytest.approx(-dtau * (r + p) * mean(c1, c0),
                                        abs=1e-12)


class TestAfvMarch:
    def test_coupon_injection_is_exact_at_the_final_level(self):
        # two otherwise identical unconstrained runs; the extra coupon lands
        # on the last backward level, so the runs differ by that amount at
        # every coefficient except the pinned right boundary
        amount = 3.0
        base = _afv(hazard_rate=0.0, coupons=(), call_window=None,
                    put_window=None, rho=0.0, maturity=1.0)
        with_c = _afv(hazard_rate=0.0, coupons=((0.02, amount),),
                      call_window=None, put_window=None, rho=0.0,
                      maturity=1.0)
        disc = build_discretization(-6.0, 2.0, 32)
        scheme = SchemeConfig(n_steps=10)
        f0 = run_afv(base, disc, scheme).final
        f1 = run_afv(with_c, disc, scheme).final
        for name in ("U", "B"):
            diff = f1[name] - f0[name]
            assert np.abs(diff[:-1] - amount).max() == 0.0
            assert diff[-1] == 0.0
        assert np.array_equal(f1["C"], f0["C"])

    def test_pin_at_s_max_is_the_conversion_value(self):
        # k S is formed once, so at conversion_ratio = 1.3 the pinned U and
        # C at S_max and the conversion floor there are one number; at
        # x_max = 0.5, 1.3 (100 e^x) and (1.3 100) e^x differ in the last bit
        params = _afv(conversion_ratio=1.3)
        disc = build_discretization(-6.0, 0.5, 64)
        surf = run_afv(params, disc, SchemeConfig(n_steps=10, store_every=1))
        pin = params.conversion_value(0.5)
        assert params.conversion_value(disc.greville_x)[-1] == pin
        assert surf.levels[0]["U"][-1] == pin
        for fields in list(surf.levels.values())[1:]:
            assert fields["U"][-1] == pin
            assert fields["C"][-1] == pin

    def test_put_right_raises_the_value(self):
        # the reference put at 105 never binds (the remaining cash flows are
        # worth more), so test with a put rich enough to bite at low prices
        disc = build_discretization(-6.0, 2.0, 64)
        scheme = SchemeConfig(n_steps=50, store_every=1)
        rich = _afv(call_window=None, put_window=(3.0, 3.0, 115.0))
        with_put = run_afv(rich, disc, scheme)
        without = run_afv(_afv(call_window=None, put_window=None), disc,
                          scheme)
        # compare at the discrete level hosting the single put date t = 3
        # (tau = 2, level 20 of 50); the bond's value is its U spline, at
        # an x that does not depend on tau
        s = np.linspace(40.0, 160.0, 25)
        xi = disc.pmap.to_parameter(rich.x_of(s, 0.0))
        u_put, u_no = (eval_spline_many(disc.basis, surf.levels[20]["U"], xi)
                       for surf in (with_put, without))
        # small local dips are penalty-interface artifacts, not mispricing
        assert np.all(u_put >= u_no - 0.01)
        assert np.max(u_put - u_no) > 1.0

    def test_call_right_lowers_the_value(self):
        disc = build_discretization(-6.0, 2.0, 64)
        scheme = SchemeConfig(n_steps=50)
        with_call = run_afv(_afv(put_window=None), disc, scheme)
        without = run_afv(_afv(put_window=None, call_window=None), disc,
                          scheme)
        s = np.linspace(60.0, 200.0, 29)
        u_call = value_curve(_afv(), disc, with_call, s)
        u_no = value_curve(_afv(), disc, without, s)
        assert np.all(u_call <= u_no + 1e-9)
        assert np.max(u_no - u_call) > 0.5

    def test_windowed_put_floor_is_the_march_calendar(self, monkeypatch):
        # a put window (2.5, 3] over 50 steps of 0.1: the march and the
        # constraint check read the same calendar, which opens the put
        # floor on the levels whose t lies in the window
        params = _afv(put_window=(2.5, 3.0, 105.0))
        disc = build_discretization(-6.0, 2.0, 32)
        n_steps = 50
        dtau = params.horizon / n_steps
        events, _ = params.calendar(dtau, n_steps)
        args = {m: events.get(m, (0.0, False, False))
                for m in range(1, n_steps + 1)}
        ks = params.conversion_value(disc.greville_x)
        floors = {m: constraint_state(params, params.t_of(m * dtau), ks,
                                      put_active=put, call_active=call,
                                      coupon_now=coupon).b_put_dirty
                  for m, (coupon, put, call) in args.items()}
        inside = {m for m in args if 2.5 < params.t_of(m * dtau) <= 3.0}
        assert inside == {20, 21, 22, 23, 24}
        assert {m for m, f in floors.items() if np.isfinite(f)} == inside

        recorded = []

        def spy(p, t, ks, put_active=False, call_active=False,
                coupon_now=0.0):
            state = constraint_state(p, t, ks, put_active=put_active,
                                     call_active=call_active,
                                     coupon_now=coupon_now)
            recorded.append(((coupon_now, put_active, call_active),
                             state.b_put_dirty))
            return state

        monkeypatch.setattr(stepper, "constraint_state", spy)
        run_afv(params, disc, SchemeConfig(n_steps=n_steps))
        assert recorded == [(args[m], floors[m]) for m in range(1, n_steps + 1)]

    def test_splitting_identity_without_exercise(self):
        params = _afv(rho=0.0, call_window=None, put_window=None,
                      hazard_rate=0.0)
        disc = build_discretization(-6.0, 2.0, 48)
        surf = run_afv(params, disc, SchemeConfig(n_steps=40))
        gap = np.abs(surf.final["U"] - surf.final["B"]
                     - surf.final["C"]).max()
        assert gap < 1e-8

    def test_U_and_C_share_one_theta_operator(self, monkeypatch):
        made = []

        class Counting(stepper._ThetaOperator):
            def __init__(self, system, coeffs, *args):
                super().__init__(system, coeffs, *args)
                made.append(tuple(coeffs))

        monkeypatch.setattr(stepper, "_ThetaOperator", Counting)
        params = _afv(recovery=0.4)
        run_afv(params, build_discretization(-6.0, 2.0, 32),
                SchemeConfig(n_steps=20))
        # the sharing holds because C has U's coefficients; B's differ
        assert params.coefficients("C") == params.coefficients("U")
        assert made == [params.coefficients(name) for name in ("U", "B")]

    def test_newton_divergence_carries_the_level(self, monkeypatch):
        monkeypatch.setattr(AfvParams, "newton_max_iter", 1)
        params = _afv(newton_tol=1e-15)
        disc = build_discretization(-6.0, 2.0, 32)
        with pytest.raises(NewtonDivergenceError) as err:
            run_afv(params, disc, SchemeConfig(n_steps=20))
        assert err.value.level is not None
        assert "time level" in str(err.value)

    def test_newton_divergence_reports_the_residual(self, monkeypatch):
        calls = []

        def recording(*args, **kwargs):
            out = newton_solve_U(*args, **kwargs)
            calls.append((args, out))
            return out

        monkeypatch.setattr(stepper, "newton_solve_U", recording)
        monkeypatch.setattr(AfvParams, "newton_max_iter", 1)
        params = _afv(newton_tol=1e-15)
        disc = build_discretization(-6.0, 2.0, 32)
        with pytest.raises(NewtonDivergenceError) as err:
            run_afv(params, disc, SchemeConfig(n_steps=20))
        (jac, phi, put, call, rho, dtau, _, _), (u, _, ok, _) = calls[-1]
        a11, mass = jac.a11, jac.mass
        assert not ok
        pen = np.where(put - u >= 0.0, u - put, 0.0) \
            + np.where(u - call >= 0.0, u - call, 0.0)
        f = a11.to_dense() @ u + rho * dtau * (mass.to_dense() @ pen) - phi
        assert err.value.residual == pytest.approx(np.abs(f).max(), rel=1e-9)


def _dense_rhs(op, w, wb_new, theta, nu_m=None, nu_new=None):
    """``build_rhs`` as the dense-column formula: every boundary column
    applied to all interior rows by (n-2) x 2 products."""
    wb_m, wb_new, dtau = w[[0, -1]], np.asarray(wb_new, dtype=float), op.dtau
    rhs = op.rhs_mat[theta].matvec(w[1:-1])
    rhs -= dtau * (theta * (op.a_cols @ wb_new)
                   + (1.0 - theta) * (op.a_cols @ wb_m))
    rhs -= op.m_cols @ (wb_new - wb_m)
    if nu_m is not None:
        for weight, nu in ((1.0 - theta, nu_m), (theta, nu_new)):
            rhs += dtau * weight * (op.m_int.matvec(nu[1:-1])
                                    + op.m_cols @ nu[[0, -1]])
    return rhs


class TestThetaOperator:
    def _operator(self, n_elements, degree):
        disc = build_discretization(-6.0, 2.0, n_elements, degree)
        op = stepper._ThetaOperator(disc.system, (0.02, 0.045, 0.07), 0.0125,
                                    (0.5, 1.0))
        rng = np.random.default_rng(7 * n_elements + degree)
        w, nu_m, nu_new = 100.0 * rng.standard_normal((3, disc.n_basis))
        return op, w, nu_m, nu_new, (97.5, 3.25)

    @pytest.mark.parametrize("degree", [1, 3])
    def test_rhs_is_bitwise_the_dense_column_formula(self, degree):
        op, w, nu_m, nu_new, wb_new = self._operator(24, degree)
        for theta in (0.5, 1.0):
            assert np.array_equal(op.build_rhs(w, wb_new, theta),
                                  _dense_rhs(op, w, wb_new, theta))
            assert np.array_equal(
                op.build_rhs(w, wb_new, theta, nu_m, nu_new),
                _dense_rhs(op, w, wb_new, theta, nu_m, nu_new))

    @pytest.mark.parametrize("n_elements,degree", [(2, 1), (2, 3), (3, 3)])
    def test_overlapping_boundary_blocks_agree_to_rounding(self, n_elements,
                                                           degree):
        # n - 2 <= 2 degree: some rows take both boundary columns, added
        # one at a time rather than in one dot product
        op, w, nu_m, nu_new, wb_new = self._operator(n_elements, degree)
        assert len(w) - 2 <= 2 * degree
        got = op.build_rhs(w, wb_new, 0.5, nu_m, nu_new)
        want = _dense_rhs(op, w, wb_new, 0.5, nu_m, nu_new)
        np.testing.assert_allclose(got, want, rtol=1e-13,
                                   atol=1e-13 * np.abs(want).max())


def _identity_jacobians(n):
    eye = BandedMatrix(n, 0, np.ones((1, n)))
    return NewtonJacobians(eye, eye, BandedLU(eye))


class TestNewtonSolve:
    def test_penalty_limit_tiny_system(self):
        # identity operator, zero load, floor at 1: the penalised solution
        # sits within O(1/rho) of the floor
        n, rho = 5, 1.0e4
        floor = np.ones(n)
        roof = np.full(n, math.inf)
        u, iters, converged, _ = newton_solve_U(
            _identity_jacobians(n), np.zeros(n), floor, roof, rho, 1.0,
            tol=1e-12, max_iter=50)
        assert converged
        assert iters >= 1
        assert np.abs(u - 1.0).max() <= 2.0 / rho

    def test_unconstrained_solves_linear_system(self):
        n = 4
        phi = np.array([1.0, 2.0, 3.0, 4.0])
        u, iters, converged, _ = newton_solve_U(
            _identity_jacobians(n), phi, np.full(n, -math.inf),
            np.full(n, math.inf), 1.0e6, 1.0, tol=1e-12, max_iter=50)
        assert converged
        assert u == pytest.approx(phi)

    def test_non_finite_load_is_unconverged(self):
        # NaN fails every bound comparison, so the active sets of a NaN
        # iterate repeat; that must not count as convergence
        n = 4
        phi = np.array([1.0, np.nan, 3.0, 4.0])
        with np.errstate(invalid="ignore"):
            _, _, converged, residual = newton_solve_U(
                _identity_jacobians(n), phi, np.zeros(n), np.full(n, 10.0),
                1.0e6, 1.0, tol=1e-12, max_iter=50)
        assert not converged
        assert not math.isfinite(residual)

    def test_factor_cache_gives_bitwise_the_fresh_result(self,
                                                          monkeypatch):
        # every solve of a march, whose Jacobians reuse factors across
        # levels, replayed with fresh factors
        calls = []

        def recording(*args, **kwargs):
            out = newton_solve_U(*args, **kwargs)
            calls.append((args, out))
            return out

        monkeypatch.setattr(stepper, "newton_solve_U", recording)
        run_afv(_afv(), build_discretization(-6.0, 2.0, 32),
                SchemeConfig(n_steps=40))
        assert sum(out[1] for _, out in calls) > len(calls)
        for (jac, *rest), (u, iters, ok, res) in calls:
            fresh = NewtonJacobians(jac.a11, jac.mass, BandedLU(jac.a11))
            u_f, iters_f, ok_f, res_f = newton_solve_U(fresh, *rest)
            assert np.array_equal(u, u_f)
            assert (iters, ok, res) == (iters_f, ok_f, res_f)


class TestFiniteGuard:
    def test_convertible_march_stops_on_a_non_finite_level(self, monkeypatch):
        # a default intensity of 1e308 overflows the default source in the
        # first step; the march stops there even when Newton lets it pass
        solve = stepper.newton_solve_U

        def always_converged(*args, **kwargs):
            u, iterations, _, residual = solve(*args, **kwargs)
            return u, iterations, True, residual

        monkeypatch.setattr(stepper, "newton_solve_U", always_converged)
        disc = build_discretization(-6.0, 2.0, 32)
        with np.errstate(all="ignore"), \
                pytest.raises(FloatingPointError, match="time level 1 of 20"):
            run_afv(_afv(hazard_rate=1e308), disc, SchemeConfig(n_steps=20))
