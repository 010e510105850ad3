"""Option sensitivities from the spline expansion.

Each model writes its value as V(S, t) = g(tau) w(x, tau) with
x = x_of(S, tau) and g = value_scale(tau) (e^{-kappa tau} for the call, 1 for
the convertible bond).  Both changes of variables have dx/dS = 1/S, so delta
and gamma come from exact parametric derivatives of the stored coefficient
vector by the chain rule

  delta = g / S   * (dxi/dx) sum_j w_j R'_j
  gamma = g / S^2 * ((dxi/dx)^2 sum_j w_j R''_j - (dxi/dx) sum_j w_j R'_j).

One order-2 ``basis_table`` at the final slice's Greville image gives both
sums, as algorithm A2.3 of Piegl and Tiller gives a function's derivatives
together.

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

from .basis import basis_table, contract_table, eval_spline_many
from .stepper import Discretization, SolutionSurface

__all__ = ["GreekTable", "theta_pair", "greeks_table", "write_greeks_csv"]


@dataclass(frozen=True)
class GreekTable:
    """Delta, gamma and theta on a common stock-price grid."""

    s: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    theta: np.ndarray
    time: float


def theta_pair(params, levels: list[int], dtau: float,
               n_steps: int) -> tuple[int, int] | None:
    """Indices of the two stored slices theta differences, or None.

    ``levels`` are the stored time levels in order.  The pair is the first
    of (before, final), (two before, before) that has no jump level of the
    model's calendar between its levels.
    """
    i = len(levels) - 1
    _, jumps = params.calendar(dtau, n_steps)
    pairs = [(i - 1, i), (i - 2, i - 1)]
    return next(((j0, j1) for j0, j1 in pairs
                 if 0 <= j0 and not any(levels[j0] < m <= levels[j1]
                                        for m in jumps)),
                None)


def greeks_table(params, disc: Discretization,
                 surface: SolutionSurface) -> GreekTable:
    """Delta, gamma and theta of the final slice at its Greville points.

    Every probe is x_of(S, tau) clipped to the domain: the Greville image
    leaves it by rounding at most, and on the other slice of the theta
    pair the call's drifting frame moves the tails outside.
    """
    if disc.basis.degree < 2:
        raise ValueError("gamma needs basis degree >= 2")
    pair = theta_pair(params, surface.levels, surface.dtau, surface.n_steps)
    if pair is None:
        raise ValueError("theta needs two stored slices with no jump level "
                         "between them")
    final, field = surface.final, params.value_column[1]
    s = params.s_of(disc.greville_x, final.tau)

    def xi(slice_):
        x = np.clip(params.x_of(s, slice_.tau), disc.pmap.x_min,
                    disc.pmap.x_max)
        return disc.pmap.to_parameter(x)

    first, R = basis_table(disc.basis, xi(final), 2)
    _, d1, d2 = contract_table(first, R, final.coeffs[field]).T
    scale, g = disc.pmap.dxi_dx, params.value_scale(final.tau)
    s0, s1 = (surface.slices[j] for j in pair)
    v0, v1 = (params.value_scale(sl.tau) * eval_spline_many(
        disc.basis, sl.coeffs[field], xi(sl)) for sl in (s0, s1))
    return GreekTable(
        s, g * (scale * d1) / s,
        g * (scale * scale * d2 - scale * d1) / s ** 2,
        (v1 - v0) / (params.t_of(s1.tau) - params.t_of(s0.tau)),
        params.t_of(final.tau))


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
