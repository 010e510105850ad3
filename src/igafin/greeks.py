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

Theta is a backward difference of two consecutive time levels, as the
semidiscrete system gives no direct access to the calendar-time
derivative: ``check_greeks`` takes the last two levels, or the two before
them when the final level is a jump of the model's event calendar (a
coupon or a single-date put).  Every run stores its last three levels.

``write_csv`` is the one writer of the runner's tables and ``block_lines``
its one row format, ten significant digits per cell; a failure part-way
leaves no ``.tmp`` and the old file in place.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .basis import basis_table, contract_table, eval_spline_many
from .stepper import Discretization, SolutionSurface

__all__ = ["GreekTable", "check_greeks", "greeks_table", "write_greeks_csv",
           "write_csv", "block_lines"]


@dataclass(frozen=True)
class GreekTable:
    """Delta, gamma and theta on a common stock-price grid."""

    s: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    theta: np.ndarray
    time: float


def check_greeks(params, degree: int, n_steps: int) -> tuple[int, int]:
    """The levels theta differences: the first of (n - 1, n) and
    (n - 2, n - 1), n = ``n_steps``, that exists and whose later level is no
    jump of the calendar.  A ValueError if there is none or degree < 2."""
    if degree < 2:
        raise ValueError("the Greeks need degree >= 2 (gamma is a second "
                         f"derivative), got degree = {degree}")
    _, jumps = params.calendar(params.horizon / n_steps, n_steps)
    for m0, m1 in ((n_steps - 1, n_steps), (n_steps - 2, n_steps - 1)):
        if m0 >= 0 and m1 not in jumps:
            return m0, m1
    raise ValueError("theta needs two stored slices near t = 0 with no "
                     "coupon or put date between them; none exist at "
                     f"n_tau = {n_steps}")


@np.errstate(all="ignore")
def greeks_table(params, disc: Discretization,
                 surface: SolutionSurface) -> GreekTable:
    """Delta, gamma and theta of the final slice at its Greville points.

    Every probe is x_of(S, tau) clipped to the domain: the Greville image
    leaves it by rounding at most, and on the other slice of the theta
    pair the call's drifting frame moves the tails outside.  A Greek that
    is not finite, such as a gamma whose sums overflow on coefficients
    near the largest double, raises FloatingPointError, as a march does.
    """
    pair = check_greeks(params, disc.basis.degree, surface.n_steps)
    final, field = surface.final, params.value_column[1]
    s = params.s_of(disc.greville_x, final.tau)

    def xi(slice_):
        x = np.clip(params.x_of(s, slice_.tau), disc.pmap.x_min,
                    disc.pmap.x_max)
        return disc.pmap.to_parameter(x)

    first, R = basis_table(disc.basis, xi(final), 2)
    _, d1, d2 = contract_table(first, R, final.coeffs[field]).T
    scale, g = disc.pmap.dxi_dx, params.value_scale(final.tau)
    s0, s1 = (surface.slices[surface.levels.index(m)] for m in pair)
    v0, v1 = (params.value_scale(sl.tau) * eval_spline_many(
        disc.basis, sl.coeffs[field], xi(sl)) for sl in (s0, s1))
    table = GreekTable(
        s, g * (scale * d1) / s,
        g * (scale * scale * d2 - scale * d1) / s ** 2,
        (v1 - v0) / (params.t_of(s1.tau) - params.t_of(s0.tau)),
        params.t_of(final.tau))
    for name in ("delta", "gamma", "theta"):
        bad = np.count_nonzero(~np.isfinite(getattr(table, name)))
        if bad:
            raise FloatingPointError(f"{name} is not finite at {bad} of "
                                     f"{len(s)} stock prices")
    return table


def block_lines(block: np.ndarray, prefix=()) -> str:
    """CSV lines of a 2-D float array, each led by the cells ``prefix``:
    one "%.10g,..." row template repeated per row, with the prefix
    formatted once."""
    lead = "".join("%.10g," % v for v in prefix)
    line = lead + ",".join(["%.10g"] * block.shape[1]) + "\n"
    return (line * block.shape[0]) % tuple(block.ravel().tolist())


def write_csv(path, header: list[str], chunks) -> None:
    """Write ``header`` and then the text ``chunks`` (an iterable, consumed
    as it is written) to ``path.tmp``, which then replaces ``path``; if
    either step fails, the ``.tmp`` is removed."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(",".join(header) + "\n")
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_greeks_csv(path, table: GreekTable) -> None:
    """One row per stock price, by ``write_csv``."""
    rows = np.column_stack([table.s, table.delta, table.gamma, table.theta])
    write_csv(path, ["S", "delta", "gamma", "theta"], [block_lines(rows)])
