"""Option sensitivities from the spline expansion.

Each model writes its value as V(S, t) = g(tau) w(x, tau) with
x = x_of(S, tau) and g = value_scale(tau) (e^{-kappa tau} for the call, 1 for
the convertible bond).  Both changes of variables have dx/dS = 1/S, so delta
and gamma come from exact parametric derivatives of the stored coefficient
vector by the chain rule

  delta = g / S   * (dxi/dx) sum_j w_j R'_j
  gamma = g / S^2 * ((dxi/dx)^2 sum_j w_j R''_j - (dxi/dx) sum_j w_j R'_j).

One order-2 ``basis_table`` at the final level's Greville image gives both
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

import numpy as np

from .basis import basis_table, contract_table, eval_spline_many
from .stepper import Discretization, SolutionSurface

__all__ = ["check_greeks", "greeks_table", "write_greeks_csv",
           "write_csv", "block_lines"]


# the columns of a Greeks table, as greeks.csv heads them
_COLUMNS = ("S", "delta", "gamma", "theta")


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
                 surface: SolutionSurface) -> np.ndarray:
    """The (m, 4) rows S, delta, gamma, theta of the final level at its
    Greville points.

    Every probe is x_of(S, tau) clipped to the domain: the Greville image
    leaves it by rounding at most, and on the other level of the theta
    pair the call's drifting frame moves the tails outside.  A Greek that
    is not finite, such as a gamma whose sums overflow on coefficients
    near the largest double, raises FloatingPointError, as a march does.
    """
    m0, m1 = check_greeks(params, disc.basis.degree, surface.n_steps)
    field, tau = params.value_column[1], surface.tau
    s = params.s_of(disc.greville_x, tau(surface.n_steps))

    def xi(level):
        x = np.clip(params.x_of(s, tau(level)), disc.pmap.x_min,
                    disc.pmap.x_max)
        return disc.pmap.to_parameter(x)

    first, R = basis_table(disc.basis, xi(surface.n_steps), 2)
    _, d1, d2 = contract_table(first, R, surface.final[field]).T
    scale, g = disc.pmap.dxi_dx, params.value_scale(tau(surface.n_steps))
    v0, v1 = (params.value_scale(tau(m)) * eval_spline_many(
        disc.basis, surface.levels[m][field], xi(m)) for m in (m0, m1))
    table = np.column_stack([
        s, g * (scale * d1) / s,
        g * (scale * scale * d2 - scale * d1) / s ** 2,
        (v1 - v0) / (params.t_of(tau(m1)) - params.t_of(tau(m0)))])
    for name, column in zip(_COLUMNS[1:], table[:, 1:].T):
        bad = np.count_nonzero(~np.isfinite(column))
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


def write_greeks_csv(path, table: np.ndarray) -> None:
    """One row per stock price of ``greeks_table``, by ``write_csv``."""
    write_csv(path, list(_COLUMNS), [block_lines(table)])
