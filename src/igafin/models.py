"""Pricing-model definitions: transaction-cost calls and convertible bonds.

Two models share one backward-parabolic template

    dw/dtau = Y1 w_xx + Y2 w_x - Y3 w + N_w,

where the nonlinearity N_w and the coefficient triple (Y1, Y2, Y3) depend on
the model and the unknown:

* European call with Leland transaction costs, after tau = sigma^2 (T-t)/2,
  x = ln S + kappa tau, vhat = exp(kappa tau) V with kappa = 2r/sigma^2:
  unknown vhat, coefficients (1, -1, 0), N = Le * |vhat_xx - vhat_x|.
* Defaultable convertible bond (holder value U, cash-only component B,
  equity component C), after tau = T - t, x = ln(S/S_int): coefficients
  (sigma^2/2, r + p*eta - sigma^2/2, r + p), except the bond component B
  whose reaction term is reduced by the recovery flow to r + p - R*p.
  Sources are p*delta for U, p*gamma for C; call/put/conversion rights enter
  through penalty terms and pointwise constraints.

Both parameter classes carry the same per-model interface, so the marches,
Greeks, output and checks never branch on the model:

* ``horizon``: the backward time tau at t = 0, where the march ends.
* ``x_of(s, tau)``, ``s_of(x, tau)``, ``t_of(tau)``, ``tau_of(t)``: the
  change of variables and its inverse.
* ``value_scale(tau)``: the factor g with V(S, t) = g(tau) w(x, tau) for the
  value column's field, e^{-kappa tau} for the call and 1.0 for the bond.
* ``payoff(x)``: the value column's terminal data at tau = 0.
* ``kink``: the log-price at which the payoff is not smooth, ln K for the
  call and ln((F + c_T)/(k S_0)) for the bond; refined knots cluster there.
* ``coefficients(field)``: the triple (Y1, Y2, Y3) of one coefficient field.
* ``domain()``: the default log-price truncation interval, the same for
  uniform and refined knots.
* ``columns``: the (output column, coefficient field) pairs written out,
  and ``value_column``, the pair whose field is the model value.
* ``calendar(dtau, n_steps)``: the exercise events of a march, as the
  coupon, put flag and call flag of each level that has one, and the
  levels at which the value jumps.  The call has none.  The calendar is the
  one place that reads the coupon schedule and the exercise windows to
  decide on which levels they act; the constraint state of a level takes
  its flags.

Only the call has ``closed_form(s, t)``, its exact value at calendar time
t: Black-Scholes at the volatility sigma sqrt(1 + Le), whose normal cdf is
``math.erfc``, so no closed form imports anything after start-up.  Its
``closed_form_greeks(s, t)`` gives the delta, gamma and theta of that
value from the same evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "LelandParams", "AfvParams", "ConstraintState", "afv_terminal",
    "accrued_interest", "default_delta", "default_gamma", "constraint_state",
    "apply_B_constraints", "apply_joint_constraints",
]


def _norm_cdf(d):
    """The standard normal cdf N(d) = erfc(-d / sqrt 2) / 2, elementwise."""
    return np.vectorize(math.erfc, otypes=[float])(-d / math.sqrt(2.0)) / 2.0


def _check_variance(sigma: float) -> None:
    if not 0.0 < sigma * sigma < math.inf:
        raise ValueError(f"sigma = {sigma:g}: sigma^2 must be a positive, "
                         "finite double")


@dataclass(frozen=True)
class LelandParams:
    """European call under proportional transaction costs.

    ``leland_number = sqrt(2/pi) * cost / (sigma * sqrt(dt_rebalance))``
    measures the cost correction; 0 recovers the frictionless model.
    """

    rate: float
    sigma: float
    strike: float
    maturity: float
    leland_number: float = 0.0

    def __post_init__(self):
        if self.sigma <= 0 or self.strike <= 0 or self.maturity <= 0:
            raise ValueError("sigma, strike, maturity must be positive")
        _check_variance(self.sigma)
        if self.rate < 0 or self.leland_number < 0:
            raise ValueError("rate and leland_number must be non-negative")

    @property
    def kappa(self) -> float:
        return 2.0 * self.rate / self.sigma ** 2

    columns = (("V", "vhat"),)
    value_column = columns[0]

    @property
    def horizon(self) -> float:
        """Backward-time horizon: tau = sigma^2 (T - t)/2 at t = 0."""
        return 0.5 * self.sigma ** 2 * self.maturity

    def x_of(self, s, tau):
        return np.log(s) + self.kappa * tau

    def s_of(self, x, tau):
        return np.exp(x - self.kappa * tau)

    def t_of(self, tau):
        return self.maturity - 2.0 * tau / self.sigma ** 2

    def tau_of(self, t):
        return 0.5 * self.sigma ** 2 * (self.maturity - t)

    def value_scale(self, tau: float) -> float:
        """V = e^{-kappa tau} vhat."""
        return math.exp(-self.kappa * tau)

    def payoff(self, x):
        """Terminal data in transformed variables: max(e^x - strike, 0)."""
        return np.maximum(np.exp(x) - self.strike, 0.0)

    @property
    def kink(self) -> float:
        return math.log(self.strike)

    def coefficients(self, field: str) -> tuple[float, float, float]:
        """(Y1, Y2, Y3) of the transformed call, whose one field is vhat."""
        if field != "vhat":
            raise ValueError(f"unknown {field!r} not part of the call model")
        return (1.0, -1.0, 0.0)

    def domain(self) -> tuple[float, float]:
        """Default log-price truncation interval: with costs, wide enough
        for dtau/dx^2 = 0.1 on the benchmark ladder; without, the fixed
        asymmetric offsets every committed linear output depends on (no
        derivation backs them, and the truncation error is far below the
        discretization error for either width).  Refined knots take the
        same interval and cluster at the strike wherever it falls in it."""
        center = self.kink
        if self.leland_number > 0:
            return (center - 6.4, center + 6.4)
        return (center - 3.4425, center + 3.1613)

    def calendar(self, dtau: float, n_steps: int):
        """No exercise events: see ``AfvParams.calendar``."""
        return {}, set()

    def _black_scholes(self, s: np.ndarray, ttm: float):
        """(sigma, vol, d1, N(d1), N(d2), discount factor) of Black-Scholes
        at sigma sqrt(1 + Le), ``ttm > 0`` before maturity."""
        sigma = self.sigma * math.sqrt(1.0 + self.leland_number)
        vol = sigma * math.sqrt(ttm)
        d1 = (np.log(s / self.strike)
              + (self.rate + 0.5 * sigma ** 2) * ttm) / vol
        d2 = d1 - vol
        return (sigma, vol, d1, _norm_cdf(d1), _norm_cdf(d2),
                math.exp(-self.rate * ttm))

    def closed_form(self, s, t: float):
        """Exact price at calendar time t: Black-Scholes at sigma
        sqrt(1 + Le) (Leland 1985), as the price is convex and |V_SS| is
        V_SS.  At Le = 0 it is the frictionless price bitwise."""
        s = np.asarray(s, dtype=float)
        ttm = self.maturity - t
        if ttm < 0:
            raise ValueError("t beyond maturity")
        if ttm == 0:
            return np.maximum(s - self.strike, 0.0)
        _, _, _, nd1, nd2, disc = self._black_scholes(s, ttm)
        return s * nd1 - self.strike * disc * nd2

    def closed_form_greeks(self, s, t: float):
        """(delta, gamma, theta) of ``closed_form``; theta is d/dt."""
        s = np.asarray(s, dtype=float)
        ttm = self.maturity - t
        if ttm <= 0:
            raise ValueError("Greeks need strictly positive time to maturity")
        sigma, vol, d1, nd1, nd2, disc = self._black_scholes(s, ttm)
        pdf = np.exp(-d1 ** 2 / 2.0) / np.sqrt(2 * np.pi)
        theta = (-0.5 * s * pdf * sigma / math.sqrt(ttm)
                 - self.rate * self.strike * disc * nd2)
        return nd1, pdf / (s * vol), theta


@dataclass(frozen=True, kw_only=True)
class AfvParams:
    """Convertible bond with default intensity, coupons and call/put rights.

    ``coupons`` is an ascending tuple of (payment time, amount); a coupon at
    t = maturity is folded into the terminal condition.  Call/put windows are
    (t_start, t_end, clean price) with the left endpoint excluded.  A put
    window with t_start == t_end is a single exercise date, realised on the
    backward time level nearest to it; a call window must have
    t_start < t_end, since the calendar opens the call on the levels inside
    the open-left window.

    ``rho = 0`` switches exercise off: every level's ``constraint_state`` is
    then the state without bounds, whatever the calendar's flags, so the
    penalty, the clamps and the conversion-floor clip move no value and the
    march solves the plain linear system; the superposition diagnostics
    rely on this.
    """

    rate: float
    sigma: float
    hazard_rate: float = 0.0
    eta: float = 0.0
    recovery: float = 0.0
    conversion_ratio: float = 1.0
    face_value: float
    s_initial: float
    maturity: float
    coupons: tuple[tuple[float, float], ...] = ()
    call_window: tuple[float, float, float] | None = None
    put_window: tuple[float, float, float] | None = None
    rho: float = 1.0e6
    newton_tol: float = 1.0e-6
    newton_max_iter: ClassVar[int] = 50

    def __post_init__(self):
        if self.sigma <= 0 or self.face_value <= 0 or self.maturity <= 0:
            raise ValueError("sigma, face_value, maturity must be positive")
        _check_variance(self.sigma)
        if self.conversion_ratio <= 0 or self.s_initial <= 0:
            raise ValueError("conversion_ratio and s_initial must be positive")
        if not 0.0 <= self.eta <= 1.0 or not 0.0 <= self.recovery <= 1.0:
            raise ValueError("eta and recovery must lie in [0, 1]")
        if self.hazard_rate < 0 or self.rate < 0:
            raise ValueError("rate and hazard_rate must be non-negative")
        if (self.rho != 0.0 and self.rho <= 1.0) or self.newton_tol <= 0:
            raise ValueError("need rho > 1 (or exactly 0) and newton_tol > 0")
        times = [t for t, _ in self.coupons]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("coupon times must be strictly increasing")
        if any(t <= 0 or t > self.maturity for t in times):
            raise ValueError("coupon times must lie in (0, maturity]")
        if any(amount < 0 for _, amount in self.coupons):
            raise ValueError("coupon amounts must be non-negative")
        for win in (self.call_window, self.put_window):
            if win is not None:
                a, b, price = win
                if not (0.0 <= a <= b <= self.maturity):
                    raise ValueError("constraint window must satisfy 0 <= start <= end <= maturity")
                if price <= 0:
                    raise ValueError("call and put prices must be positive")
        if self.call_window and self.call_window[0] == self.call_window[1]:
            raise ValueError("call window needs start < end: a single call "
                             "date is not supported")
        ratio = ((self.face_value + self.terminal_coupon)
                 / (self.conversion_ratio * self.s_initial))
        if not 0.0 < ratio < math.inf:
            raise ValueError(
                f"conversion_ratio = {self.conversion_ratio:g} and s_initial "
                f"= {self.s_initial:g} put the payoff kink at ln({ratio:g})")

    columns = (("U", "U"), ("B", "B"), ("C", "C"))
    value_column = columns[0]

    @property
    def horizon(self) -> float:
        return self.maturity

    def x_of(self, s, tau):
        return np.log(s / self.s_initial)

    def s_of(self, x, tau):
        return self.s_initial * np.exp(x)

    def t_of(self, tau):
        return self.maturity - tau

    def tau_of(self, t):
        return self.maturity - t

    def value_scale(self, tau: float) -> float:
        return 1.0

    def conversion_value(self, x):
        """k S_0 e^x, the value of converting at log-prices x."""
        return self.conversion_ratio * self.s_initial \
            * np.exp(np.asarray(x, dtype=float))

    def payoff(self, x):
        """Terminal holder value U at the log-prices x."""
        return afv_terminal(self.conversion_value(x), self)[0]

    @property
    def kink(self) -> float:
        """Where conversion k S meets the redemption F + c_T."""
        return math.log((self.face_value + self.terminal_coupon)
                        / (self.conversion_ratio * self.s_initial))

    def coefficients(self, field: str) -> tuple[float, float, float]:
        """(Y1, Y2, Y3) of U, B or C; the recovery flow lowers B's reaction
        term to r + p - R p."""
        if field not in ("U", "B", "C"):
            raise ValueError(f"unknown {field!r} not part of the bond model")
        y1 = 0.5 * self.sigma ** 2
        y2 = self.rate + self.hazard_rate * self.eta - y1
        y3 = self.rate + self.hazard_rate
        if field == "B":
            y3 -= self.recovery * self.hazard_rate
        return (y1, y2, y3)

    def domain(self) -> tuple[float, float]:
        """The fixed (-6, 2) window in x = ln(S / S_initial)."""
        return (-6.0, 2.0)

    def calendar(self, dtau: float, n_steps: int
                 ) -> tuple[dict[int, tuple[float, bool, bool]], set[int]]:
        """Exercise events of a march of ``n_steps`` levels of width dtau.

        Returns ``(events, jumps)``.  ``events[m] = (coupon, put_active,
        call_active)`` for each level m with a coupon, an exercisable put or
        an exercisable call; a level not listed has none of them.  ``jumps``
        holds the levels at which the value jumps: the coupon dates and a
        single-date put.

        A coupon at maturity is the terminal condition's.  Every other
        coupon, and a single-date put (window start == end), lands on the
        level nearest its date within 1..n_steps, so a date within dtau/2
        of maturity takes level 1.  A put or call window is open at the
        levels whose t lies in (start, end], so the level at t = start has
        no call.
        """
        def nearest_level(t):
            return min(max(int(round(self.tau_of(t) / dtau)), 1), n_steps)

        coupons: dict[int, float] = {}
        for t_i, amount in self.coupons:
            if not self._at_maturity(t_i):
                level = nearest_level(t_i)
                coupons[level] = coupons.get(level, 0.0) + amount
        jumps = set(coupons)

        def open_levels(win):
            return {m for m in range(1, n_steps + 1)
                    if win[0] < self.t_of(m * dtau) <= win[1]}

        win = self.put_window
        if win is None:
            put = set()
        elif win[0] == win[1]:
            put = {nearest_level(win[1])}
            jumps |= put
        else:
            put = open_levels(win)
        call = open_levels(self.call_window) if self.call_window else set()
        return {m: (coupons.get(m, 0.0), m in put, m in call)
                for m in jumps | put | call}, jumps

    def _at_maturity(self, t: float) -> bool:
        return abs(t - self.maturity) < 1e-12

    @property
    def terminal_coupon(self) -> float:
        for t, amount in self.coupons:
            if self._at_maturity(t):
                return amount
        return 0.0


def afv_terminal(conversion_value, params: AfvParams):
    """Terminal (U, B, C) at maturity at conversion values kS
    (``params.conversion_value(x)``); U = B + C holds identically."""
    ks = np.asarray(conversion_value, dtype=float)
    redemption = params.face_value + params.terminal_coupon
    u = np.maximum(redemption, ks)
    b = np.full_like(u, redemption)
    c = np.maximum(ks - redemption, 0.0)
    return u, b, c


def accrued_interest(t: float, params: AfvParams) -> float:
    """Linearly accrued coupon since the previous payment date.

    The bracket start is t_0 = 0; at a payment date the full coupon has
    accrued (right-continuous convention).  Times outside the schedule clamp
    to the nearest bracket end.
    """
    if not params.coupons:
        return 0.0
    times = [0.0] + [t_i for t_i, _ in params.coupons]
    amounts = [amt for _, amt in params.coupons]
    t = min(max(t, 0.0), times[-1])
    for (t_prev, t_next), amount in zip(zip(times[:-1], times[1:]), amounts):
        if t_prev < t <= t_next:
            return amount * (t - t_prev) / (t_next - t_prev)
    return 0.0


def default_delta(conversion_value, b_value, params: AfvParams):
    """Post-default payout to the holder, the source of U per unit hazard
    rate: max((1 - eta) kS, R B) at conversion values kS."""
    return np.maximum(conversion_value * (1.0 - params.eta),
                      params.recovery * np.asarray(b_value))


def default_gamma(conversion_value, b_value, params: AfvParams):
    """Its equity part, the source of C per unit hazard rate:
    max((1 - eta) kS - R B, 0)."""
    return np.maximum(conversion_value * (1.0 - params.eta)
                      - params.recovery * np.asarray(b_value), 0.0)


@dataclass(frozen=True)
class ConstraintState:
    """Early-exercise data frozen at one backward time level.

    Inactive windows are encoded by infinite sentinels so every formula is
    window-free: ``b_call_dirty = +inf`` removes the ceiling and
    ``b_put_dirty = -inf`` leaves only the permanent conversion floor kS.
    With exercise off (``rho = 0``) the floor ``conversion_value`` is -inf
    as well, so ``u_star_put`` is all -inf, ``u_star_call`` all +inf, and
    every bound is a no-op.
    """

    b_put_dirty: float
    b_call_dirty: float
    conversion_value: np.ndarray
    u_star_put: np.ndarray
    u_star_call: np.ndarray


def constraint_state(params: AfvParams, t: float,
                     conversion_value: np.ndarray, put_active: bool = False,
                     call_active: bool = False,
                     coupon_now: float = 0.0) -> ConstraintState:
    """Dirty exercise prices and pointwise bounds at time t on a grid whose
    conversion values kS are ``conversion_value``
    (``params.conversion_value(x)``).

    ``put_active`` and ``call_active`` say whether the put and the call are
    exercisable at this level; they are the flags ``AfvParams.calendar``
    gives the level, the one place that decides when each right is open.
    t only sets the accrued interest.  ``params.rho = 0`` gives the state
    without bounds (see ``ConstraintState``), whatever the flags.

    ``coupon_now`` is the coupon amount the stepper injects at this level.
    The stepper clamps values before the injection, so on a coupon date the
    bounds quote settlement net of the payment: the accrual has just reset,
    a called holder keeps the coupon (ceiling stays at the clean price), and
    a putting holder surrenders the bond before collecting it (floor drops
    by the coupon).  Between coupons both prices are dirty, clean + AccI.
    """
    if params.rho == 0.0:
        put_active = call_active = False
        conversion_value = np.full(np.shape(conversion_value), -math.inf)
    acc = accrued_interest(t, params) if coupon_now == 0.0 else 0.0
    b_call = params.call_window[2] + acc if call_active else math.inf
    b_put = params.put_window[2] + acc - coupon_now if put_active \
        else -math.inf
    return ConstraintState(b_put, b_call, conversion_value,
                           np.maximum(b_put, conversion_value),
                           np.maximum(b_call, conversion_value))


def apply_B_constraints(b_slice: np.ndarray, c_slice: np.ndarray,
                        state: ConstraintState) -> np.ndarray:
    """Cash-component bounds: B <= B_call and B + C >= B_put, applied to B."""
    b = np.minimum(b_slice, state.b_call_dirty)
    return np.maximum(b, state.b_put_dirty - np.asarray(c_slice), out=b)


def apply_joint_constraints(b_slice: np.ndarray, u_slice: np.ndarray,
                            state: ConstraintState) -> np.ndarray:
    """Conversion floor and call ceiling on the total value, shifted onto B.

    U stands for the total B + C: it is clipped into
    [kS, max(B_call_dirty, kS)], and the same adjustment is applied to B.
    The identity U = B + C holds with the rights off (rho = 0: the
    ``afv_superposition`` check, within 1e-8), but not on
    ``configs/convertible.ini``: there |U - B - C| exceeds 1e-9 on 400 of
    its 401 levels and reaches 23.35 at level 225 (t = 2.1875).  Whether
    the identity or the split is at fault is open.
    """
    u = np.asarray(u_slice, dtype=float)
    u_clipped = np.clip(u, state.conversion_value, state.u_star_call)
    return np.asarray(b_slice, dtype=float) + (u_clipped - u)
