"""Isogeometric (NURBS Galerkin) solvers for nonlinear option-pricing PDEs.

The package prices European calls under proportional transaction costs
(the Leland volatility correction) and convertible bonds with credit risk
(a two-component splitting with penalty-enforced call, put and conversion
constraints), both on a log-price line with cubic NURBS trial spaces and
a theta time-march.  Finite-difference and hat-function references live
in :mod:`igafin.reference`; structural invariants in :mod:`igafin.checks`;
the batch runner in :mod:`igafin.cli`.  Import each name from its
module, e.g. ``from igafin.stepper import run``.
"""

__version__ = "0.1.0"
