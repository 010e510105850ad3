"""Isogeometric (NURBS Galerkin) solvers for nonlinear option-pricing PDEs.

The package prices European calls under proportional transaction costs
(the Leland volatility correction) and convertible bonds with credit risk
(a two-component splitting with penalty-enforced call, put and conversion
constraints), both on a log-price line with cubic NURBS trial spaces and
a theta time-march.  Finite-difference and hat-function references live
in :mod:`igafin.reference`; structural invariants in :mod:`igafin.checks`;
the batch runner in :mod:`igafin.cli`.
"""

from .basis import (KnotVector, NurbsBasis, eval_nurbs_all, eval_spline_many,
                    greville_abscissae, load_weights,
                    make_refined_open_knots, make_uniform_open_knots)
from .quadrature import QuadratureRule, gauss_legendre_rule
from .assembly import Collocation, GalerkinSystem, PhysicalMap, assemble
from .linsolve import BandedLU, BandedMatrix, SingularMatrixError
from .models import (AfvParams, ConstraintState, LelandParams,
                     accrued_interest, afv_terminal, constraint_state)
from .stepper import (Discretization, NewtonDivergenceError, SchemeConfig,
                      SolutionSurface, TimeSlice, build_discretization, run,
                      run_afv, run_leland, value_curve)
from .greeks import GreekTable, greeks_table, write_greeks_csv
from .reference import (fdm_solve, fdm_solve_afv, misfit_epsilon,
                        p1fem_solve)
from .checks import CheckResult, format_report, run_checks

__version__ = "0.1.0"

__all__ = [
    "KnotVector", "NurbsBasis", "eval_nurbs_all", "eval_spline_many",
    "greville_abscissae", "load_weights", "make_refined_open_knots",
    "make_uniform_open_knots",
    "QuadratureRule", "gauss_legendre_rule",
    "Collocation", "GalerkinSystem", "PhysicalMap", "assemble",
    "BandedLU", "BandedMatrix", "SingularMatrixError",
    "AfvParams", "ConstraintState", "LelandParams", "accrued_interest",
    "afv_terminal", "constraint_state",
    "Discretization", "NewtonDivergenceError", "SchemeConfig",
    "SolutionSurface", "TimeSlice", "build_discretization",
    "run", "run_afv", "run_leland", "value_curve",
    "GreekTable", "greeks_table", "write_greeks_csv",
    "fdm_solve", "fdm_solve_afv", "misfit_epsilon", "p1fem_solve",
    "CheckResult", "format_report", "run_checks",
    "__version__",
]
