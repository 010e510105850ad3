"""Reference solvers used to cross-check the spline pipeline.

* The second-order central finite-difference twin of both marches,
  ``fdm_solve``.  Its space, ``fdm_discretization``, is a
  ``Discretization``: hat functions on uniform nodes, whose coefficients
  are the nodal values, with central differences written as its system
  (identity mass, stiffness -D2, advection -D1).  It runs through ``run``,
  so it shares the spline path's theta operator, boundary ODE, model code,
  penalty Newton and events, and differs from it only in the spatial
  operator, which is what it cross-checks; the bond checks of ``checks``
  take the space and run it themselves.  ``fdm_solve_afv`` gives the bond
  twin's final nodal values, for the benchmark's reference script.
* A P1 (hat-function) run of the main pipeline, for misfit studies, with
  the same signature as ``fdm_solve``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import Collocation, GalerkinSystem, PhysicalMap
from .basis import NurbsBasis, make_uniform_open_knots
from .linsolve import BandedMatrix
from .models import AfvParams
from .stepper import (Discretization, SchemeConfig, SolutionSurface,
                      build_discretization, run)

__all__ = ["FdmResult", "fdm_discretization", "fdm_solve", "fdm_solve_afv",
           "p1fem_solve"]


@dataclass
class FdmResult:
    """Nodal finite-difference solution at the final backward time."""

    x: np.ndarray
    values: dict[str, np.ndarray]


def _central_differences(x: np.ndarray) -> GalerkinSystem:
    """Second-order central differences on the uniform nodes ``x`` as a
    Galerkin system: identity mass, stiffness -D2 and advection -D1, so
    that ``operator((Y1, Y2, Y3))`` is A = -(Y1 D2 + Y2 D1 - Y3 I) on the
    interior nodes, with the couplings to the end nodes as its columns."""
    n = len(x) - 2
    h = x[1] - x[0]
    mass, stiffness, advection = (BandedMatrix(n, 1) for _ in range(3))
    mass.data[1] = 1.0
    stiffness.data[0, 1:] = stiffness.data[2, :-1] = -1.0 / h ** 2
    stiffness.data[1] = 2.0 / h ** 2
    advection.data[0, 1:] = -0.5 / h     # above the diagonal
    advection.data[2, :-1] = 0.5 / h     # below the diagonal
    stiffness_cols, advection_cols = np.zeros((n, 2)), np.zeros((n, 2))
    stiffness_cols[0, 0] = stiffness_cols[-1, 1] = -1.0 / h ** 2
    advection_cols[0, 0], advection_cols[-1, 1] = 0.5 / h, -0.5 / h
    return GalerkinSystem(n + 2, 1, mass, stiffness, advection,
                          np.zeros((n, 2)), stiffness_cols, advection_cols)


def fdm_discretization(x_min: float, x_max: float,
                       n_cells: int) -> Discretization:
    """The twin's space: the hat functions at n_cells + 1 uniform nodes
    with central differences as their system.  Their coefficients are the
    nodal values, so ``value_curve`` reads a solution by linear
    interpolation."""
    x = np.linspace(x_min, x_max, n_cells + 1)
    basis = NurbsBasis(make_uniform_open_knots(n_cells, 1), np.ones(len(x)))
    return Discretization(basis, PhysicalMap(x_min, x_max),
                          _central_differences(x), Collocation(basis), x)


def fdm_solve(params, x_min: float, x_max: float, n_cells: int,
              scheme: SchemeConfig) -> tuple[Discretization, SolutionSurface]:
    """The central-difference twin of either march: ``run`` on
    ``fdm_discretization``."""
    disc = fdm_discretization(x_min, x_max, n_cells)
    return disc, run(params, disc, scheme)


def fdm_solve_afv(params: AfvParams, x_min: float = -6.0, x_max: float = 2.0,
                  n_cells: int = 128, n_steps: int = 100, theta: float = 0.5,
                  rannacher_steps: int = 2) -> FdmResult:
    """The convertible bond's twin on the final level: its nodes and nodal
    values."""
    scheme = SchemeConfig(n_steps, theta, rannacher_steps, store_every=0)
    disc, surf = fdm_solve(params, x_min, x_max, n_cells, scheme)
    return FdmResult(disc.greville_x, surf.final)


def p1fem_solve(params, x_min: float, x_max: float, n_elements: int,
                scheme: SchemeConfig) -> tuple[Discretization, SolutionSurface]:
    """The main pipeline run with hat functions (degree 1, uniform knots)."""
    disc = build_discretization(x_min, x_max, n_elements, degree=1)
    return disc, run(params, disc, scheme)

