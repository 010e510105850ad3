"""Option sensitivities from the spline expansion.

Each model writes its value as V(S, t) = g(tau) w(x, tau) with
x = x_of(S, tau) and g = value_scale(tau) (e^{-kappa tau} for the call, 1 for
the convertible bond).  Both changes of variables have dx/dS = 1/S, so delta
and gamma come from exact parametric derivatives of the stored coefficient
vector by the chain rule

  delta = g / S   * (dxi/dx) sum_j w_j R'_j
  gamma = g / S^2 * ((dxi/dx)^2 sum_j w_j R''_j - (dxi/dx) sum_j w_j R'_j).

Theta is a backward difference of two stored time slices; the semidiscrete
system gives no direct access to the calendar-time derivative.  Slice pairs
that straddle a jump level of the model's event calendar (a coupon or a
single-date put) are skipped and the difference is taken one-sided on the
smooth side.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .basis import basis_table, contract_table
from .stepper import Discretization, SolutionSurface, TimeSlice, evaluate_slice

__all__ = ["GreekCurve", "GreekTable", "delta", "gamma", "theta",
           "theta_pair", "greeks_table", "write_greeks_csv"]


@dataclass(frozen=True)
class GreekCurve:
    """One sensitivity sampled on a stock-price grid at calendar time t."""

    s: np.ndarray
    values: np.ndarray
    name: str
    time: float


@dataclass(frozen=True)
class GreekTable:
    """Delta, gamma and theta on a common stock-price grid."""

    s: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    theta: np.ndarray
    time: float


def _grid(params, disc: Discretization, slice_: TimeSlice,
          s_points) -> np.ndarray:
    """``s_points`` checked positive; by default the Greville abscissae
    mapped to stock prices (no extrapolation)."""
    if s_points is None:
        return params.s_of(disc.greville_x, slice_.tau)
    s = np.atleast_1d(np.asarray(s_points, dtype=float))
    if np.any(s <= 0.0):
        raise ValueError("stock prices must be positive")
    return s


def _pde_x(params, disc: Discretization, slice_: TimeSlice, s: np.ndarray,
           clip: bool = False) -> np.ndarray:
    x = params.x_of(s, slice_.tau)
    lo, hi = disc.pmap.x_min, disc.pmap.x_max
    if clip:
        return np.clip(x, lo, hi)
    slack = 1e-12 * (hi - lo)
    if np.any(x < lo - slack) or np.any(x > hi + slack):
        raise ValueError("probe outside the computational domain")
    return np.clip(x, lo, hi)


def delta(params, disc: Discretization, slice_: TimeSlice,
          s_points=None) -> GreekCurve:
    """First derivative with respect to the stock price."""
    s = _grid(params, disc, slice_, s_points)
    x = _pde_x(params, disc, slice_, s)
    dw = disc.pmap.dxi_dx * evaluate_slice(disc, slice_,
                                           params.value_column[1], x, order=1)
    dw = params.value_scale(slice_.tau) * dw
    return GreekCurve(s, dw / s, "delta", params.t_of(slice_.tau))


def gamma(params, disc: Discretization, slice_: TimeSlice,
          s_points=None, side: str = "right") -> GreekCurve:
    """Second derivative with respect to the stock price.

    ``side`` selects the one-sided limit at repeated interior knots, where
    a triple knot deliberately breaks C2 continuity.
    """
    if disc.basis.degree < 2:
        raise ValueError("gamma needs basis degree >= 2")
    s = _grid(params, disc, slice_, s_points)
    x = _pde_x(params, disc, slice_, s)
    xi = np.asarray(disc.pmap.to_parameter(x))
    first, R = basis_table(disc.basis, xi, 2, side)
    coeffs = slice_.coeffs[params.value_column[1]]
    _, d1, d2 = contract_table(first, R, coeffs).T
    scale = disc.pmap.dxi_dx
    curv = scale * scale * d2 - scale * d1
    curv = params.value_scale(slice_.tau) * curv
    return GreekCurve(s, curv / s ** 2, "gamma", params.t_of(slice_.tau))


def _value_curve(params, disc: Discretization, slice_: TimeSlice,
                 s: np.ndarray) -> np.ndarray:
    """Model value V(S, t) on one slice; clamps to the domain at the tails."""
    x = _pde_x(params, disc, slice_, s, clip=True)
    return params.value_scale(slice_.tau) * evaluate_slice(
        disc, slice_, params.value_column[1], x)


def theta_pair(params, levels: list[int], dtau: float, n_steps: int,
               index: int = -1) -> tuple[int, int] | None:
    """Indices of the two stored slices ``theta`` differences, or None.

    ``levels`` are the stored time levels in order.  The pair is the first
    of (before, at), (at, after), (two before, before) around ``index``
    that has no jump level of the model's calendar between its levels.
    """
    i = index if index >= 0 else len(levels) + index
    _, jumps = params.calendar(dtau, n_steps)
    pairs = [(i - 1, i), (i, i + 1), (i - 2, i - 1)]
    return next(((j0, j1) for j0, j1 in pairs
                 if 0 <= j0 < j1 < len(levels)
                 and not any(levels[j0] < m <= levels[j1] for m in jumps)),
                None)


def theta(params, disc: Discretization, surface: SolutionSurface,
          index: int = -1, s_points=None) -> GreekCurve:
    """Calendar-time derivative by differencing two stored slices."""
    if len(surface.slices) < 2:
        raise ValueError("theta needs at least two stored slices")
    pair = theta_pair(params, surface.levels, surface.dtau, surface.n_steps,
                      index)
    if pair is None:
        raise ValueError("no jump-free slice pair near the requested level")

    target = surface.slices[index]
    s = _grid(params, disc, target, s_points)
    s0, s1 = (surface.slices[j] for j in pair)
    t0, t1 = (params.t_of(sl.tau) for sl in (s0, s1))
    v0 = _value_curve(params, disc, s0, s)
    v1 = _value_curve(params, disc, s1, s)
    rate = (v1 - v0) / (t1 - t0)
    return GreekCurve(s, rate, "theta", params.t_of(target.tau))


def greeks_table(params, disc: Discretization,
                 surface: SolutionSurface) -> GreekTable:
    """Delta, gamma and theta of the final slice at its Greville points."""
    s = _grid(params, disc, surface.final, None)
    d = delta(params, disc, surface.final, s)
    g = gamma(params, disc, surface.final, s)
    th = theta(params, disc, surface, -1, s)
    return GreekTable(s, d.values, g.values, th.values, d.time)


def write_greeks_csv(path, table: GreekTable) -> None:
    """One row per stock price, 10 significant digits.

    The text goes to ``path.tmp``, which is then renamed to ``path`` and
    removed if writing fails, so a failure part-way leaves no file.
    """
    rows = np.column_stack([table.s, table.delta, table.gamma, table.theta])
    text = "S,delta,gamma,theta\n" + (
        "%.10g,%.10g,%.10g,%.10g\n" * len(rows)) % tuple(rows.ravel().tolist())
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(text)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    os.replace(tmp, path)
