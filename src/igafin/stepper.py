"""Theta-scheme time marching for the unified pricing PDE.

One step solves

    (M + theta dtau A) w^{m+1} = (M - (1-theta) dtau A) w^m
                                 + dtau [theta s^{m+1} + (1-theta) s^m]
                                 - dtau [theta b_A^{m+1} + (1-theta) b_A^m]
                                 - M_cols (wb^{m+1} - wb^m)

with A = Y1 K + Y2 N + Y3 M on the interior coefficients, b_A the boundary-
column lift of A, and s = M nu the group-coefficient source.  The first
``rannacher_steps`` steps run fully implicit (theta = 1) to damp the
non-smooth initial data before switching to the configured theta.

Coefficient vectors follow the group convention throughout: level 0
takes the payoff values at the Greville abscissae as coefficients
(the variation-diminishing spline of the payoff), and nonlinear sources are
expanded with coefficients nu_j computed directly from the solution
coefficients, nu_j = N(w_j, x_j).  No collocation solve enters the march.
The call's level 0 on kink-aligned knots, which hold the payoff kink
as an interior knot of multiplicity 2 or more (refined knots hold it with
multiplicity p, so they do from degree 2), is the one exception to the
Greville values.  The payoff is smooth on each side of that knot, so its
Greville interpolant is accurate to O(h^(p+1)), and
``run_leland`` starts from it, one solve with the collocation band before
the march, in place of data whose O(h^2) error would dominate the space
error.  The convertible keeps Greville values, because its sources and
penalty read coefficients as values at the nodes.  The marches
(``run_leland``, ``run_afv``) read only the ``Discretization`` they run
on: its system, its Greville points x_j and its smallest span, and the
call's march also its collocation band and the multiplicity of the kink
among its knots.  So the finite-difference twin in ``reference``, a
``Discretization`` of hat functions on uniform nodes with central
differences as its system, runs through ``run`` too.  Each march builds
only its step; ``_march`` is the one loop over time levels, and a run is
the ``SolutionSurface`` of the levels it stores, each level's coefficient
vectors by field.

The call march chooses its step once, from its Leland number Le, and
builds it as a closure for ``_march``, as the bond march builds its own.
With costs, the source Le |vtilde| linearises |vtilde^{m+1}| ~
|vtilde^m|, where the auxiliary vtilde solves M vtilde = -(K - N) vhat
(the mixed form of vtilde = vhat_xx - vhat_x), so a step stays one banded
solve plus one mass solve, by the banded Cholesky factor of the symmetric
positive definite M.  Its right-hand side is one mass product: with
y = vhat + dtau ((1-theta) vtilde + Le |vtilde|) it is M y less a lift,
so the step takes the products A vhat and M y, and no R_theta band.
After such a step, coefficients below the normal range of a double are
set to zero: the far out-of-the-money tail ahead of the diffusion front
decays through that range, where they carry no price information and
every operation on them is many times slower.  With Le = 0 the step has
no source: it forms no A w, factors no M and flushes nothing, and is
bitwise the generic step ``step_linear`` takes.

The convertible-bond step follows the operator-splitting order: advance B
unconstrained, form gamma, advance C, clamp B against the call/put bounds,
form delta, solve the penalised U system by Newton, shift the joint
conversion/call clipping of U onto B, then inject coupons.  U = B + C
holds through the march with the rights off (rho = 0), and not with them
on (see ``apply_joint_constraints``).  What does not change over the
march is made once: each theta operator's factors and its
band stack [R_theta, M, M], the conversion values k S_0 e^x read by the
terminal data, the pin at S_max and the default sources.  Newton runs on
U's theta operator, whose ``factors`` reuses those of a Jacobian whose
penalty shift it met among its last four.  A level then forms one
constraint state on the full grid and only the source half each step
reads; R w and the two mass products of a source come from one
``band_products`` call, and the boundary columns enter only the first and
last ``degree`` interior rows, where they are non-zero.  Every bound
applies at every level: the state's S = 0 entries clamp the boundary
values, which the S = 0 ODEs advance at the model's reaction rates, and
Newton reads its interior.  A closed window is an infinite sentinel and
rho = 0 is the state without bounds, so the step has no branch on either:
a bound that is off is a no-op.

Both marches run with numpy's floating-point warnings off: a value that
overflows or turns NaN is reported once, by the finite check of each level
or by Newton's test of its residual.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .assembly import Collocation, GalerkinSystem, PhysicalMap, assemble
from .basis import (KnotVector, NurbsBasis, eval_spline_many,
                    make_refined_open_knots, make_uniform_open_knots)
from .linsolve import BandedCholesky, BandedLU, BandedMatrix, band_products
from .models import (AfvParams, ConstraintState, LelandParams, afv_terminal,
                     apply_B_constraints, apply_joint_constraints,
                     constraint_state, default_delta, default_gamma)
from .quadrature import gauss_legendre_rule

__all__ = [
    "SchemeConfig", "SolutionSurface", "Discretization",
    "build_knots", "build_discretization", "step_linear",
    "step_afv_boundary", "newton_solve_U",
    "NewtonDivergenceError", "run",
    "run_leland", "run_afv", "value_curve",
]


@dataclass(frozen=True)
class SchemeConfig:
    """Time-integration controls.

    ``store_every = k`` keeps every k-th level (plus level 0 and the last
    three levels, which theta reads); 0 keeps only those mandatory levels.
    """

    n_steps: int
    theta: float = 0.5
    rannacher_steps: int = 2
    store_every: int = 1

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if self.rannacher_steps < 0 or self.store_every < 0:
            raise ValueError("rannacher_steps and store_every must be >= 0")

    def theta_at(self, m: int) -> float:
        return 1.0 if m < self.rannacher_steps else self.theta

    @property
    def thetas(self) -> tuple[float, ...]:
        """The distinct thetas of the march, each one operator's factors;
        theta is a step function of the level, so its ends hold them all."""
        return tuple({self.theta_at(0), self.theta_at(self.n_steps - 1)})

    def stored_levels(self) -> set[int]:
        """The time levels a run keeps."""
        n = self.n_steps
        keep = {0, max(0, n - 2), n - 1, n}
        if self.store_every > 0:
            keep.update(range(0, n + 1, self.store_every))
        return keep


@dataclass
class SolutionSurface:
    """The stored levels of one run: each level's coefficient vectors
    (boundary entries included) by field, in level order."""

    levels: dict[int, dict[str, np.ndarray]]
    n_steps: int
    dtau: float

    def tau(self, level: int) -> float:
        return level * self.dtau

    @property
    def final(self) -> dict[str, np.ndarray]:
        return self.levels[self.n_steps]


@dataclass
class Discretization:
    """Basis, physical map and system of one run: the assembled Galerkin
    system, or central differences on the FDM twin's nodes."""

    basis: NurbsBasis
    pmap: PhysicalMap
    system: GalerkinSystem
    colloc: Collocation
    greville_x: np.ndarray

    @property
    def n_basis(self) -> int:
        return self.basis.n_basis

    def min_span_x(self) -> float:
        widths = np.diff(self.basis.knots.breakpoints)
        return float(widths.min() * self.pmap.dx_dxi)

    def knot_multiplicity(self, x: float) -> int:
        """How many interior knots lie at the log-price x."""
        p = self.basis.degree
        interior = self.basis.knots.values[p + 1:-(p + 1)]
        return int(np.count_nonzero(interior == self.pmap.to_parameter(x)))


def build_knots(n_elements: int, degree: int = 3, knot_mode: str = "uniform",
                kink_xi: float = 0.5) -> KnotVector:
    """The knots of ``build_discretization``.  ``knot_mode`` is ``uniform``
    or ``refined``; the refined mode (``make_refined_open_knots``) grades
    each side's spans 100:1 toward ``kink_xi`` and holds it as a knot of
    multiplicity ``degree``, so 2 or more from degree 2."""
    if knot_mode == "uniform":
        return make_uniform_open_knots(n_elements, degree)
    if knot_mode == "refined":
        return make_refined_open_knots(n_elements, degree, kink_xi)
    raise ValueError(f"unknown knot_mode {knot_mode!r}")


def build_discretization(x_min: float, x_max: float, n_elements: int,
                         degree: int = 3, knot_mode: str = "uniform",
                         kink_xi: float = 0.5) -> Discretization:
    """Assemble everything a run needs on [x_min, x_max], on the knots of
    ``build_knots`` with unit NURBS weights.  The mass integrand has degree
    2p, so the Gauss rule takes ``max(5, degree + 1)`` points."""
    knots = build_knots(n_elements, degree, knot_mode, kink_xi)
    basis = NurbsBasis(knots, np.ones(knots.n_basis))
    pmap = PhysicalMap(x_min, x_max)
    rule = gauss_legendre_rule(max(5, degree + 1))
    system = assemble(basis, pmap, rule)
    colloc = Collocation(basis)
    greville_x = np.asarray(pmap.to_physical(colloc.points))
    return Discretization(basis, pmap, system, colloc, greville_x)


class _ThetaOperator:
    """Factorisations of (M + theta dtau A) reused across the whole run.

    A step with sources takes the band stack [R_theta, M, M] of its theta,
    R_theta = M - (1 - theta) dtau A, made on first use, so that R_theta w
    and the two mass products of the sources come from one
    ``band_products`` call.  The boundary columns of A and M are non-zero
    only in their first and last ``near`` rows (the interior rows within
    the band of a boundary basis function), and only those rows take the
    lift.

    ``factors(theta, shift)`` gives the factors of the Newton Jacobian
    (M + theta dtau A) + M diag(shift) from one cache of the last ``keep``
    distinct Jacobians, keyed by theta and the shift's bytes.  One cache
    serves every theta because theta is a step function of the level, so
    the Rannacher entries, never asked for again, are the first to leave.
    """

    keep = 4

    def __init__(self, system: GalerkinSystem, coeffs, dtau: float,
                 thetas: tuple[float, ...]):
        self.dtau = dtau
        self.a_int, self.a_cols = system.operator(coeffs)
        self.m_int = system.mass
        self.m_cols = system.mass_cols
        k = self.near = min(system.degree, system.n_full - 2)
        self.a_ends = self.a_cols[:k, 0], self.a_cols[-k:, 1]
        self.m_ends = self.m_cols[:k, 0], self.m_cols[-k:, 1]
        self.lhs_mat: dict[float, BandedMatrix] = {}
        self.lhs_lu: dict[float, BandedLU] = {}
        self.rhs_mat: dict[float, BandedMatrix] = {}
        self.rhs_bands: dict[float, np.ndarray] = {}
        for th in sorted(set(thetas)):
            self.lhs_mat[th] = self.m_int + self.a_int.scaled(th * dtau)
            self.lhs_lu[th] = BandedLU(self.lhs_mat[th])
            self.rhs_mat[th] = self.m_int - self.a_int.scaled((1.0 - th) * dtau)
        self._recent: dict[tuple[float, bytes], BandedLU] = {}

    def build_rhs(self, w_full: np.ndarray, wb_new, theta: float,
                  nu_m: np.ndarray | None = None,
                  nu_new: np.ndarray | None = None) -> np.ndarray:
        """The right-hand side of the step from ``w_full`` to boundary
        values ``wb_new``, with the source coefficients ``nu_m`` and
        ``nu_new`` (given together, boundary entries included) if any."""
        dtau, k = self.dtau, self.near
        if nu_m is None:
            rhs = self.rhs_mat[theta].matvec(w_full[1:-1])
        else:
            bands = self.rhs_bands.get(theta)
            if bands is None:
                bands = self.rhs_bands[theta] = np.stack(
                    [self.rhs_mat[theta].data, self.m_int.data,
                     self.m_int.data])
            rhs, m_nu_m, m_nu_new = band_products(
                bands, np.stack([w_full[1:-1], nu_m[1:-1], nu_new[1:-1]]))
        (a_top, a_bot), (m_top, m_bot) = self.a_ends, self.m_ends
        (new_top, new_bot), top, bot = wb_new, w_full[0], w_full[-1]
        rhs[:k] -= dtau * (theta * (a_top * new_top)
                           + (1.0 - theta) * (a_top * top))
        rhs[-k:] -= dtau * (theta * (a_bot * new_bot)
                            + (1.0 - theta) * (a_bot * bot))
        rhs[:k] -= m_top * (new_top - top)
        rhs[-k:] -= m_bot * (new_bot - bot)
        if nu_m is not None:
            for m_nu, nu in ((m_nu_m, nu_m), (m_nu_new, nu_new)):
                m_nu[:k] += m_top * nu[0]
                m_nu[-k:] += m_bot * nu[-1]
            rhs += dtau * (1.0 - theta) * m_nu_m
            rhs += dtau * theta * m_nu_new
        return rhs

    def step(self, w_full: np.ndarray, wb_new, theta: float,
             nu_m=None, nu_new=None) -> np.ndarray:
        rhs = self.build_rhs(w_full, wb_new, theta, nu_m, nu_new)
        return _with_ends(self.lhs_lu[theta].solve(rhs), wb_new)

    def factors(self, theta: float, shift: np.ndarray) -> BandedLU:
        """The factors of lhs_mat[theta] + M diag(shift): ``lhs_lu[theta]``
        for a zero shift, else those of the cache, since the same matrix
        gives bitwise the same factors."""
        if not shift.any():
            return self.lhs_lu[theta]
        key = theta, shift.tobytes()
        lu = self._recent.pop(key, None)
        if lu is None:
            lu = BandedLU(self.lhs_mat[theta] + self.m_int.scale_columns(shift))
        self._recent[key] = lu
        if len(self._recent) > self.keep:
            del self._recent[next(iter(self._recent))]
        return lu


def _with_ends(interior: np.ndarray, ends) -> np.ndarray:
    """The full coefficient vector of ``interior`` and the boundary values
    ``ends`` = (first, last)."""
    out = np.empty(len(interior) + 2)
    out[1:-1] = interior
    out[0], out[-1] = ends
    return out


def step_linear(system: GalerkinSystem, coeffs, w_full: np.ndarray, wb_new,
                dtau: float, theta: float) -> np.ndarray:
    """One theta step of the linear PDE; returns the new full vector.

    Standalone variant that factors on the fly -- run loops use the cached
    operator instead.
    """
    op = _ThetaOperator(system, coeffs, dtau, (theta,))
    return op.step(np.asarray(w_full, dtype=float), wb_new, theta)


# below this magnitude a double is subnormal
_TINY = np.finfo(float).tiny


def step_afv_boundary(values_m, params: AfvParams, dtau: float,
                      theta: float) -> tuple[float, float, float]:
    """Theta step of the S = 0 boundary ODEs for (U, B, C).

    dB/dtau = -(r + p - Rp) B;  dU/dtau = -(r+p) U + p R B;
    dC/dtau = -(r+p) C, at the rates Y3 of ``params.coefficients``.  B
    feeds U through the recovery flow only.
    """
    u0, b0, c0 = (float(v) for v in values_m)
    rb = params.coefficients("B")[2]
    rc = params.coefficients("U")[2]
    b1 = (1.0 - (1.0 - theta) * dtau * rb) * b0 / (1.0 + theta * dtau * rb)
    src = params.hazard_rate * params.recovery * (theta * b1 + (1.0 - theta) * b0)
    u1 = ((1.0 - (1.0 - theta) * dtau * rc) * u0 + dtau * src) \
        / (1.0 + theta * dtau * rc)
    c1 = (1.0 - (1.0 - theta) * dtau * rc) * c0 / (1.0 + theta * dtau * rc)
    return u1, b1, c1


class NewtonDivergenceError(RuntimeError):
    def __init__(self, iterations: int, residual: float, level: int):
        self.iterations = iterations
        self.residual = residual
        self.level = level
        super().__init__(
            f"penalty Newton failed to converge at time level {level}: "
            f"{iterations} iterations, residual {residual:.3e}")


def newton_solve_U(op: _ThetaOperator, theta: float, phi: np.ndarray,
                   state: ConstraintState, params: AfvParams, level: int):
    """Undamped Newton iteration on the penalised interior U system of
    time level ``level``.

    Solves f(U) = A11 U + rho dtau M [P_put (U - U*_put) + P_call
    (U - U*_call)] - phi = 0 with indicator refresh each iterate, where
    A11 = ``op.lhs_mat[theta]``, M = ``op.m_int``, dtau = ``op.dtau``, U*
    the interior of ``state``'s bounds, and rho, the tolerance and the
    iteration cap those of ``params``.  The Jacobian A11 + rho dtau M
    (P_put + P_call) stays banded because the penalty acts diagonally on
    coefficients, and ``op.factors`` gives its factors.  Starts from U =
    A11^{-1} phi.  Stops when the update drops below the tolerance in the
    max norm or the active sets repeat.

    Returns (U, iterations).  Raises ``NewtonDivergenceError`` with the
    residual max|f(U)| at the last iterate if the cap is reached or that
    residual is not finite (NaN iterates repeat their sets).
    """
    u_star_put, u_star_call = state.u_star_put[1:-1], state.u_star_call[1:-1]
    rho_dtau = params.rho * op.dtau
    bands = np.stack([op.lhs_mat[theta].data, op.m_int.data])
    u = op.lhs_lu[theta].solve(phi)

    def active(u):
        return ((u_star_put - u >= 0.0).astype(float),
                (u - u_star_call >= 0.0).astype(float))

    def residual(u, p_put, p_call):
        pen = np.where(p_put > 0, u - u_star_put, 0.0) \
            + np.where(p_call > 0, u - u_star_call, 0.0)
        a_u, m_pen = band_products(bands, np.stack([u, pen]))
        return a_u + rho_dtau * m_pen - phi

    p_put, p_call = active(u)
    for it in range(1, params.newton_max_iter + 1):
        f = residual(u, p_put, p_call)
        du = op.factors(theta, rho_dtau * (p_put + p_call)).solve(f)
        u = u - du
        p_put_new, p_call_new = active(u)
        repeated = np.array_equal(p_put_new, p_put) and \
            np.array_equal(p_call_new, p_call)
        p_put, p_call = p_put_new, p_call_new
        if stopped := np.max(np.abs(du)) <= params.newton_tol or repeated:
            break
    res = float(np.abs(residual(u, p_put, p_call)).max())
    if not (stopped and np.isfinite(res)):
        raise NewtonDivergenceError(it, res, level)
    return u, it


def _march(scheme: SchemeConfig, dtau: float,
           fields: dict[str, np.ndarray], step) -> SolutionSurface:
    """Advance the level-0 ``fields`` through the scheme's levels, each by
    ``step(level, theta, fields)``, the one loop over time levels.  It
    takes theta from the Rannacher schedule, keeps the stored levels and
    stops at the first level that holds a value that is not finite."""
    n_steps, keep = scheme.n_steps, scheme.stored_levels()
    levels = {0: fields}
    for level in range(1, n_steps + 1):
        fields = step(level, scheme.theta_at(level - 1), fields)
        if not all(np.isfinite(v).all() for v in fields.values()):
            raise FloatingPointError(
                f"solution blew up at time level {level} of {n_steps}")
        if level in keep:
            levels[level] = fields
    return SolutionSurface(levels, n_steps, dtau)


def _warn_if_unstable(dx: float, dtau: float) -> None:
    """Step-ratio guard for the linearised transaction-cost source.

    Only the lagged nonlinear term can oscillate; the theta scheme itself
    is unconditionally stable, so linear runs skip this check.
    """
    if dtau / dx > 1.0 or dtau / dx ** 2 > 1.0:
        warnings.warn(
            f"time step dtau={dtau:.3e} is large for the smallest span "
            f"dx={dx:.3e} (dtau/dx={dtau / dx:.2f}, dtau/dx^2={dtau / dx ** 2:.2f}); "
            "the lagged transaction-cost term may oscillate", RuntimeWarning)


@np.errstate(all="ignore")
def run_leland(params: LelandParams, disc: Discretization,
               scheme: SchemeConfig) -> SolutionSurface:
    """March the (possibly nonlinear) transformed call problem to t = 0.

    The initial coefficients are the payoff's values at the Greville
    points, or, on knots that hold the payoff kink with multiplicity 2 or
    more, the coefficients of its interpolant there: one solve with the
    collocation band.  The smallest span sets the step-ratio warning.

    The boundary data of the transformed problem does not depend on time,
    so the boundary lift is one constant vector per theta, and the M_cols
    term of ``build_rhs`` is zero.  Without costs a step is R_theta w, the
    lift dtau a_lift in ``build_rhs``'s arithmetic and one solve: bitwise
    ``step_linear``.

    With costs, u = M^-1 (A w + a_lift) = -vtilde is solved with the
    Cholesky factor of M, and nu = Le |vtilde| vanishes at both ends.  The
    linearisation gives M nu the full dtau weight, and R_theta = M -
    (1-theta) dtau A, so the right-hand side is, exactly,

        R_theta w - dtau a_lift + dtau M nu = M y - theta dtau a_lift,
        y = w + dtau ((1-theta) vtilde + Le |vtilde|).

    Two things must hold.  u keeps the order A w, + a_lift, mass solve:
    the benchmark's golden tolerance on the error column does not admit
    the bits of another order.  And the solves in place, the mass solve
    over A w and the theta solve over M y, are bitwise the step with
    temporaries."""
    initial = params.payoff(disc.greville_x)
    if disc.knot_multiplicity(params.kink) >= 2:
        initial = BandedLU(disc.colloc.matrix).solve(initial)
    dtau = params.horizon / scheme.n_steps
    op = _ThetaOperator(disc.system, params.coefficients("vhat"), dtau,
                        scheme.thetas)
    wb = initial[[0, -1]]
    a_lift = op.a_cols @ wb
    leland_number = params.leland_number
    if leland_number > 0:
        _warn_if_unstable(disc.min_span_x(), dtau)
        mass_chol = BandedCholesky(op.m_int)
        lift = {th: (th * dtau) * a_lift for th in op.lhs_lu}

        def step(level: int, theta: float, fields: dict) -> dict:
            w = fields["vhat"]
            u = op.a_int.matvec(w[1:-1])
            u += a_lift
            u = mass_chol.solve(u, overwrite_b=True)
            y = np.abs(u)
            y *= dtau * leland_number
            u *= dtau * (1.0 - theta)
            y -= u
            y += w[1:-1]
            rhs = op.m_int.matvec(y)
            rhs -= lift[theta]
            w_int = op.lhs_lu[theta].solve(rhs, overwrite_b=True)
            w_int[np.abs(w_int) < _TINY] = 0.0
            return {"vhat": _with_ends(w_int, wb)}
    else:
        lift = {th: dtau * (th * a_lift + (1.0 - th) * a_lift)
                for th in op.lhs_lu}

        def step(level: int, theta: float, fields: dict) -> dict:
            rhs = op.rhs_mat[theta].matvec(fields["vhat"][1:-1])
            rhs -= lift[theta]
            w_int = op.lhs_lu[theta].solve(rhs, overwrite_b=True)
            return {"vhat": _with_ends(w_int, wb)}

    return _march(scheme, dtau, {"vhat": initial}, step)


@np.errstate(all="ignore")
def run_afv(params: AfvParams, disc: Discretization,
            scheme: SchemeConfig) -> SolutionSurface:
    """March the constrained convertible-bond system to t = 0, with one
    coefficient per Greville point."""
    dtau = params.horizon / scheme.n_steps
    conversion = params.conversion_value(disc.greville_x)
    u_vals, b_vals, c_vals = afv_terminal(conversion, params)
    # U and C share their coefficients, hence one operator and its factors
    ops = {name: _ThetaOperator(disc.system, params.coefficients(name), dtau,
                                scheme.thetas) for name in ("U", "B")}
    ops["C"] = ops["U"]
    events, _ = params.calendar(dtau, scheme.n_steps)
    hazard = params.hazard_rate

    def nu_delta(b_full: np.ndarray) -> np.ndarray:
        return hazard * default_delta(conversion, b_full, params)

    def nu_gamma(b_full: np.ndarray) -> np.ndarray:
        return hazard * default_gamma(conversion, b_full, params)

    pin = conversion[-1]

    def step(level: int, theta: float,
             w: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        coupon, put_active, call_active = events.get(level,
                                                     (0.0, False, False))
        state = constraint_state(params, params.t_of(level * dtau),
                                 conversion, put_active=put_active,
                                 call_active=call_active, coupon_now=coupon)

        # boundary values at the new level: scalar ODEs at S = 0, pin at S_max
        u0, b0, c0 = step_afv_boundary(
            (w["U"][0], w["B"][0], w["C"][0]), params, dtau, theta)
        b0 = max(min(b0, state.b_call_dirty), state.b_put_dirty - c0)
        u0 = float(np.clip(u0, state.u_star_put[0], state.u_star_call[0]))

        # 1) cash component, unconstrained
        b_new = ops["B"].step(w["B"], (b0, 0.0), theta)
        # 2) equity component with its default source
        c_new = ops["C"].step(w["C"], (c0, pin), theta,
                              nu_m=nu_gamma(w["B"]), nu_new=nu_gamma(b_new))
        # 3) clamp B against the call ceiling / put floor; its S = 0 end is
        # clamped above, and B = 0 at S_max stays pinned
        b_new[1:-1] = apply_B_constraints(b_new[1:-1], c_new[1:-1], state)
        # 4) holder value: penalised Newton solve
        phi = ops["U"].build_rhs(w["U"], (u0, pin), theta,
                                 nu_m=nu_delta(w["B"]), nu_new=nu_delta(b_new))
        u_int, _ = newton_solve_U(ops["U"], theta, phi, state, params, level)
        u_new = _with_ends(u_int, (u0, pin))
        # 5) shift the joint clipping of U onto B, which leaves both ends
        b_new = apply_joint_constraints(b_new, u_new, state)
        # 6) coupons: bond holders collect while the bond is alive
        if coupon:
            u_new[:-1] += coupon
            b_new[:-1] += coupon
        return {"U": u_new, "B": b_new, "C": c_new}

    return _march(scheme, dtau, {"U": u_vals, "B": b_vals, "C": c_vals}, step)


def run(params, disc: Discretization, scheme: SchemeConfig) -> SolutionSurface:
    """Dispatch on the parameter type: the one model test outside
    ``models``, which cannot own it as a method without importing this
    module."""
    if isinstance(params, LelandParams):
        return run_leland(params, disc, scheme)
    if isinstance(params, AfvParams):
        return run_afv(params, disc, scheme)
    raise TypeError(f"unsupported parameter object {type(params).__name__}")


def value_curve(params, disc: Discretization, surface: SolutionSurface,
                s_points) -> np.ndarray:
    """Model values V(S, t = 0) at stock prices S on the final level: the
    value column's field at x_of(S, tau), times the model's value scale.

    x_of(s_of(x)) is x only to the roundings of its operations, at most
    eight: n (horizon / n) for the final tau, a product and a sum for the
    frame's shift each way, exp and log.  Each rounds by at most an ulp
    of 1 + |x| + |c|, with c = x_of(1, tau) the frame's offset, and so by
    at most eps (1 + |x| + |c|).  A price whose x lies outside the domain
    by no more than eight such bounds is evaluated at its end, as
    ``greeks_table`` clips its probes; one further outside raises
    ValueError.  Only a price outside takes that test.
    """
    s = np.atleast_1d(np.asarray(s_points, dtype=float))
    tau = surface.tau(surface.n_steps)
    xi = disc.pmap.to_parameter(params.x_of(s, tau))
    # the domain test of ``eval_spline_many``: a run whose prices all pass
    # it evaluates them as the plain map gives them, and touches no more
    if not np.all((xi >= 0.0) & (xi <= 1.0)):
        x = params.x_of(s, tau)
        ulp = np.finfo(float).eps * (
            1.0 + np.abs(x) + abs(params.x_of(1.0, tau)))
        off = x - np.clip(x, disc.pmap.x_min, disc.pmap.x_max)
        near = np.abs(off) <= 8 * ulp
        xi[near] = np.clip(xi[near], 0.0, 1.0)
    return params.value_scale(tau) * eval_spline_many(
        disc.basis, surface.final[params.value_column[1]], xi)
