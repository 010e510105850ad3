"""Independent reference solvers used to cross-check the spline pipeline.

* Black-Scholes closed form (price and Greeks) for the frictionless call.
* Second-order central finite-difference twins of both time steppers,
  sharing the model formulas but none of the spline machinery.
* A P1 (hat-function) run of the main pipeline, for misfit studies.
* The plain discrete 2-norm misfit used in the convergence tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linsolve import BandedMatrix
from .models import (AfvParams, LelandParams, afv_terminal,
                     apply_B_constraints, apply_joint_constraints,
                     constraint_state, default_source_terms,
                     leland_payoff_vhat, unified_coefficients)
from .stepper import (Discretization, SchemeConfig, SolutionSurface,
                      _coupon_levels, _interior_state, _put_level,
                      build_discretization, run_leland, step_afv_boundary)

__all__ = ["bs_exact_call", "bs_exact_greeks", "FdmResult",
           "fdm_solve_leland", "fdm_solve_afv", "p1fem_solve",
           "misfit_epsilon"]


def _norm_pdf(x):
    """Standard normal density."""
    return np.exp(-x ** 2 / 2.0) / np.sqrt(2 * np.pi)


def bs_exact_call(s, t: float, params: LelandParams):
    """Frictionless European call price at calendar time t."""
    # imported here: the first import of scipy.special takes about 0.2 s
    # (2-core host), which runs without a closed form never pay
    from scipy.special import ndtr
    s = np.asarray(s, dtype=float)
    ttm = params.maturity - t
    if ttm < 0:
        raise ValueError("t beyond maturity")
    if ttm == 0:
        return np.maximum(s - params.strike, 0.0)
    vol = params.sigma * math.sqrt(ttm)
    d1 = (np.log(s / params.strike)
          + (params.rate + 0.5 * params.sigma ** 2) * ttm) / vol
    d2 = d1 - vol
    disc = math.exp(-params.rate * ttm)
    return s * ndtr(d1) - params.strike * disc * ndtr(d2)


def bs_exact_greeks(s, t: float, params: LelandParams):
    """(delta, gamma, theta) of the frictionless call; theta is d/dt."""
    from scipy.special import ndtr
    s = np.asarray(s, dtype=float)
    ttm = params.maturity - t
    if ttm <= 0:
        raise ValueError("Greeks need strictly positive time to maturity")
    vol = params.sigma * math.sqrt(ttm)
    d1 = (np.log(s / params.strike)
          + (params.rate + 0.5 * params.sigma ** 2) * ttm) / vol
    d2 = d1 - vol
    disc = math.exp(-params.rate * ttm)
    delta = ndtr(d1)
    gamma = _norm_pdf(d1) / (s * vol)
    theta = (-0.5 * s * _norm_pdf(d1) * params.sigma / math.sqrt(ttm)
             - params.rate * params.strike * disc * ndtr(d2))
    return delta, gamma, theta


@dataclass
class FdmResult:
    """Nodal finite-difference solution at the final backward time."""

    x: np.ndarray
    values: dict[str, np.ndarray]
    previous: dict[str, np.ndarray]
    dtau: float


def _fdm_operator(n_interior: int, h: float, coeffs) -> BandedMatrix:
    """Tridiagonal L with L w = Y1 D2 w + Y2 D1 w - Y3 w on interior nodes."""
    y1, y2, y3 = coeffs
    lower = y1 / h ** 2 - y2 / (2.0 * h)
    diag = -2.0 * y1 / h ** 2 - y3
    upper = y1 / h ** 2 + y2 / (2.0 * h)
    mat = BandedMatrix(n_interior, 1)
    mat.data[0, 1:] = upper
    mat.data[1, :] = diag
    mat.data[2, :-1] = lower
    return mat


class _FdmTheta:
    """Cached (I - theta dtau L) factorisations plus stencil edge terms."""

    def __init__(self, n_interior: int, h: float, coeffs, dtau: float,
                 thetas):
        self.h = h
        self.dtau = dtau
        y1, y2, _ = coeffs
        self.edge_lo = y1 / h ** 2 - y2 / (2.0 * h)   # couples node 1 to node 0
        self.edge_hi = y1 / h ** 2 + y2 / (2.0 * h)   # couples node n-1 to node n
        self.l_mat = _fdm_operator(n_interior, h, coeffs)
        eye = BandedMatrix(n_interior, 1)
        eye.data[1, :] = 1.0
        self.lhs_mat = {}
        self.lhs = {}
        self.rhs_mat = {}
        for th in sorted(set(thetas)):
            self.lhs_mat[th] = eye - self.l_mat.scaled(th * dtau)
            self.lhs[th] = self.lhs_mat[th].lu_factor()
            self.rhs_mat[th] = eye + self.l_mat.scaled((1.0 - th) * dtau)

    def build_rhs(self, w_full, wb_new, theta, src_m=None, src_new=None):
        dtau = self.dtau
        rhs = self.rhs_mat[theta].matvec(w_full[1:-1])
        rhs[0] += dtau * self.edge_lo * (theta * wb_new[0]
                                         + (1.0 - theta) * w_full[0])
        rhs[-1] += dtau * self.edge_hi * (theta * wb_new[1]
                                          + (1.0 - theta) * w_full[-1])
        if src_m is not None:
            rhs += dtau * (1.0 - theta) * src_m
        if src_new is not None:
            rhs += dtau * theta * src_new
        return rhs

    def step(self, w_full, wb_new, theta, src_m=None, src_new=None):
        rhs = self.build_rhs(w_full, wb_new, theta, src_m, src_new)
        out = np.empty_like(w_full)
        out[1:-1] = self.lhs[theta].solve(rhs)
        out[0], out[-1] = wb_new
        return out


def fdm_solve_leland(params: LelandParams, x_min: float, x_max: float,
                     n_cells: int, n_steps: int, theta: float = 0.5,
                     rannacher_steps: int = 2) -> FdmResult:
    """Central-difference twin of the transaction-cost stepper."""
    x = np.linspace(x_min, x_max, n_cells + 1)
    h = x[1] - x[0]
    dtau = params.tau_max / n_steps
    coeffs = unified_coefficients(params, "vhat")
    thetas = {1.0 if m < rannacher_steps else theta for m in range(n_steps)}
    op = _FdmTheta(n_cells - 1, h, coeffs, dtau, thetas)
    w = leland_payoff_vhat(x, params)
    wb = (w[0], w[-1])
    le = params.leland_number
    prev = w.copy()
    for m in range(n_steps):
        th = 1.0 if m < rannacher_steps else theta
        src = None
        if le > 0:
            vt = (w[:-2] - 2.0 * w[1:-1] + w[2:]) / h ** 2 \
                - (w[2:] - w[:-2]) / (2.0 * h)
            src = le * np.abs(vt)
        prev = w
        # linearised source gets the full dtau weight at level m
        w = op.step(w, wb, th, src_m=src, src_new=src)
        if not np.all(np.isfinite(w)):
            raise FloatingPointError(
                f"finite-difference solution blew up at level {m + 1}")
    return FdmResult(x, {"vhat": w}, {"vhat": prev}, dtau)


def fdm_solve_afv(params: AfvParams, x_min: float = -6.0, x_max: float = 2.0,
                  n_cells: int = 128, n_steps: int = 100, theta: float = 0.5,
                  rannacher_steps: int = 2) -> FdmResult:
    """Central-difference twin of the convertible-bond stepper.

    Shares the model formulas (constraints, penalty, coupons, boundary ODEs)
    with the spline path but works on nodal values, so it cross-checks the
    Galerkin machinery rather than the model code.
    """
    x = np.linspace(x_min, x_max, n_cells + 1)
    h = x[1] - x[0]
    dtau = params.maturity / n_steps
    s = params.s_initial * np.exp(x)
    thetas = {1.0 if m < rannacher_steps else theta for m in range(n_steps)}
    ops = {name: _FdmTheta(n_cells - 1, h, unified_coefficients(params, name),
                           dtau, thetas) for name in ("U", "B", "C")}
    u, b, c = afv_terminal(s, params)
    prev = {"U": u.copy(), "B": b.copy(), "C": c.copy()}
    coupon_at = _coupon_levels(params, dtau, n_steps)
    put_level = _put_level(params, dtau, n_steps)
    single_date_put = put_level is not None
    ks = params.conversion_ratio * s
    right = {"U": ks[-1], "B": 0.0, "C": ks[-1]}

    def sources(b_full):
        delta, gamma = default_source_terms(x, b_full, params)
        return params.hazard_rate * delta, params.hazard_rate * gamma

    src_d_m, src_g_m = sources(b)
    rho = params.rho
    constrained = rho > 0.0
    for m in range(n_steps):
        th = 1.0 if m < rannacher_steps else theta
        level = m + 1
        t_new = params.maturity - level * dtau
        put_active = (level == put_level) if single_date_put else None
        state = constraint_state(params, t_new, x, put_active=put_active,
                                 coupon_now=coupon_at.get(level, 0.0))

        u0, b0, c0 = step_afv_boundary((u[0], b[0], c[0]), params, dtau, th)
        if constrained:
            if np.isfinite(state.b_call_dirty):
                b0 = min(b0, state.b_call_dirty)
            if np.isfinite(state.b_put_dirty):
                b0 = max(b0, state.b_put_dirty - c0)
            u0 = float(np.clip(u0, state.u_star_put[0], state.u_star_call[0]))

        prev = {"U": u.copy(), "B": b.copy(), "C": c.copy()}
        b_new = ops["B"].step(b, (b0, right["B"]), th)
        _, src_g_new = sources(b_new)
        c_new = ops["C"].step(c, (c0, right["C"]), th,
                              src_m=src_g_m[1:-1], src_new=src_g_new[1:-1])
        st_int = _interior_state(state)
        if constrained:
            b_new[1:-1] = apply_B_constraints(b_new[1:-1], c_new[1:-1], st_int)
        src_d_new, _ = sources(b_new)
        phi = ops["U"].build_rhs(u, (u0, right["U"]), th,
                                 src_m=src_d_m[1:-1], src_new=src_d_new[1:-1])
        a11 = ops["U"].lhs_mat[th]
        u_int = ops["U"].lhs[th].solve(phi)
        usp = state.u_star_put[1:-1]
        usc = state.u_star_call[1:-1]
        p_put = (usp - u_int >= 0.0).astype(float)
        p_call = (u_int - usc >= 0.0).astype(float)
        for _ in range(params.newton_max_iter):
            pen = np.where(p_put > 0, u_int - usp, 0.0) \
                + np.where(p_call > 0, u_int - usc, 0.0)
            f = a11.matvec(u_int) + rho * dtau * pen - phi
            jac = a11.copy()
            jac.data[1, :] += rho * dtau * (p_put + p_call)
            du = jac.lu_factor().solve(f)
            u_int = u_int - du
            p_put_new = (usp - u_int >= 0.0).astype(float)
            p_call_new = (u_int - usc >= 0.0).astype(float)
            done = np.max(np.abs(du)) <= params.newton_tol or (
                np.array_equal(p_put_new, p_put)
                and np.array_equal(p_call_new, p_call))
            p_put, p_call = p_put_new, p_call_new
            if done:
                break
        u_new = np.concatenate([[u0], u_int, [right["U"]]])
        if constrained:
            b_new[1:-1] = apply_joint_constraints(b_new[1:-1], u_new[1:-1],
                                                  st_int)
        if level in coupon_at:
            u_new[:-1] += coupon_at[level]
            b_new[:-1] += coupon_at[level]
        u, b, c = u_new, b_new, c_new
        src_d_m, src_g_m = sources(b)
    return FdmResult(x, {"U": u, "B": b, "C": c}, prev, dtau)


def p1fem_solve(params: LelandParams, x_min: float, x_max: float,
                n_elements: int, scheme: SchemeConfig
                ) -> tuple[Discretization, SolutionSurface]:
    """The main pipeline run with hat functions (degree 1, uniform knots)."""
    disc = build_discretization(x_min, x_max, n_elements, degree=1)
    return disc, run_leland(params, disc, scheme)


def misfit_epsilon(values_a: np.ndarray, values_b: np.ndarray) -> float:
    """Plain discrete 2-norm of the pointwise difference on a shared grid."""
    a = np.asarray(values_a, dtype=float)
    b = np.asarray(values_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("misfit needs both solutions on the same grid")
    return float(np.linalg.norm(a - b))
