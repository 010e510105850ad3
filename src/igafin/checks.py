"""Invariant and claim suite shared by the CLI and the acceptance gate.

Each invariant exercises one property that the solvers silently rely on:
partition of unity, quadrature exactness, SPD mass / zero-row-sum stiffness
and agreement of the banded assembly with a dense quadrature oracle (these
three read one list of assembled sample systems), NURBS derivatives against
finite differences, change-of-variable round trips, reduction of the
nonlinear steppers to the linear one, and, for the convertible bond,
superposition of its components, exact coupon injection and post-run
constraint satisfaction, each measured on the cubic space and on the
central-difference twin, both run through ``run``.  Two claim checks
follow, rows of ``ALL_CHECKS`` through ``_call_error``: the call against
its closed form on a few kink-aligned knots, and with the transaction
costs of the benchmark ladder.  The suite is cheap (under a second); the
``validate`` CLI verb and the acceptance tests both call
:func:`run_checks`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .assembly import PhysicalMap, assemble
from .basis import (NurbsBasis, eval_nurbs_all, eval_spline_many,
                    make_refined_open_knots, make_uniform_open_knots)
from .models import AfvParams, LelandParams, constraint_state
from .quadrature import gauss_legendre_rule
from .reference import fdm_discretization
from .stepper import (SchemeConfig, build_discretization, run, run_leland,
                      step_linear, value_curve)

__all__ = ["CheckResult", "run_checks", "format_report"]

_SEED = 20240915
# the map and rule the sample systems are assembled with
_PMAP, _RULE = PhysicalMap(-1.0, 2.0), gauss_legendre_rule(5)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        tag = "ok  " if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return (f"{tag} {self.name}: {self.measured:.3e} "
                f"<= {self.tolerance:.1e}{extra}")


def _sample_bases() -> list[NurbsBasis]:
    """Uniform, refined and weighted cubic bases, and a degree-1 one."""
    rng = np.random.default_rng(_SEED)
    uni = make_uniform_open_knots(16, 3)
    ref = make_refined_open_knots(16, 3, kink_xi=0.5)
    return [NurbsBasis(uni, np.ones(uni.n_basis)),
            NurbsBasis(ref, np.ones(ref.n_basis)),
            NurbsBasis(uni, rng.uniform(0.5, 2.0, uni.n_basis)),
            NurbsBasis(make_uniform_open_knots(16, 1), np.ones(17))]


def _sample_systems() -> list[tuple]:
    """(basis, system) of each sample basis, assembled on ``_PMAP`` by
    ``_RULE``."""
    return [(basis, assemble(basis, _PMAP, _RULE))
            for basis in _sample_bases()]


def check_partition_of_unity() -> CheckResult:
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for basis in _sample_bases():
        pts = np.concatenate([rng.uniform(0.0, 1.0, 200), [0.0, 1.0],
                              basis.knots.breakpoints])
        rows = eval_nurbs_all(basis, pts)
        worst = max(worst, float(np.max(np.abs(rows.sum(axis=1) - 1.0))))
    return CheckResult("partition_of_unity", worst <= 1e-12, worst, 1e-12)


def check_quadrature_exactness() -> CheckResult:
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for q in range(1, 9):
        rule = gauss_legendre_rule(q)
        a = rng.uniform(-2.0, 0.0)
        b = a + rng.uniform(0.5, 3.0)
        for d in range(2 * q):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            num = half * np.sum(rule.weights * (mid + half * rule.nodes) ** d)
            exact = (b ** (d + 1) - a ** (d + 1)) / (d + 1)
            worst = max(worst, abs(num - exact) / max(1.0, abs(exact)))
    return CheckResult("quadrature_exactness", worst <= 1e-12, worst, 1e-12)


def check_mass_spd() -> CheckResult:
    worst_sym, min_eig = 0.0, np.inf
    for _, sys_ in _sample_systems():
        m = sys_.mass.to_dense()
        worst_sym = max(worst_sym, float(np.max(np.abs(m - m.T))))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(m).min()))
    passed = worst_sym <= 1e-10 and min_eig > 0.0
    return CheckResult("mass_spd", passed, worst_sym, 1e-10,
                       f"min eigenvalue {min_eig:.3e}")


def check_stiffness_rowsum() -> CheckResult:
    # constants are exactly representable, so K applied to 1 must vanish
    worst = 0.0
    for _, sys_ in _sample_systems():
        ones = np.ones(sys_.n_full - 2)
        rows = sys_.stiffness.matvec(ones) + sys_.stiffness_cols @ [1.0, 1.0]
        worst = max(worst, float(np.max(np.abs(rows))))
    return CheckResult("stiffness_rowsum", worst <= 1e-10, worst, 1e-10)


def _dense_oracle(basis: NurbsBasis) -> tuple:
    """Dense n x n matrices by direct quadrature on ``_PMAP`` by
    ``_RULE``, no banded bookkeeping."""
    bp = basis.knots.breakpoints
    mid, half = 0.5 * (bp[:-1] + bp[1:]), 0.5 * (bp[1:] - bp[:-1])
    xi = (mid[:, None] + half[:, None] * _RULE.nodes).ravel()
    w = (half[:, None] * _RULE.weights).ravel()
    v0 = eval_nurbs_all(basis, xi, order=0)
    v1 = eval_nurbs_all(basis, xi, order=1)
    mass, stiff, adv = ((a * w[:, None]).T @ b
                        for a, b in ((v0, v0), (v1, v1), (v1, v0)))
    return mass * _PMAP.dx_dxi, stiff * _PMAP.dxi_dx, adv


def check_assembly_dense_oracle() -> CheckResult:
    worst = 0.0
    for basis, sys_ in _sample_systems():
        for banded, cols, dense in zip(
                (sys_.mass, sys_.stiffness, sys_.advection),
                (sys_.mass_cols, sys_.stiffness_cols, sys_.advection_cols),
                _dense_oracle(basis)):
            worst = max(worst, float(np.max(np.abs(
                banded.to_dense() - dense[1:-1, 1:-1]))))
            worst = max(worst, float(np.max(np.abs(
                cols - dense[1:-1][:, [0, -1]]))))
    return CheckResult("assembly_dense_oracle", worst <= 1e-10, worst, 1e-10)


def check_derivative_vs_fd() -> CheckResult:
    rng = np.random.default_rng(_SEED)
    h = 1e-6
    worst = 0.0
    for basis in _sample_bases():
        coeffs = rng.uniform(-1.0, 1.0, basis.n_basis)
        xi = rng.uniform(3 * h, 1.0 - 3 * h, 40)
        for order in (1, 2):
            an = eval_spline_many(basis, coeffs, xi, order)
            lo = eval_spline_many(basis, coeffs, xi - h, order - 1)
            hi = eval_spline_many(basis, coeffs, xi + h, order - 1)
            fd = (hi - lo) / (2 * h)
            rel = np.abs(an - fd) / np.maximum(1.0, np.abs(an))
            worst = max(worst, float(rel.max()))
    return CheckResult("derivative_vs_fd", worst <= 1e-5, worst, 1e-5)


def check_transform_roundtrip() -> CheckResult:
    # (S, t) -> (x, tau) -> (S, t) through each model's change of variables
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for params in (LelandParams(rate=0.1, sigma=0.2, strike=100.0,
                                maturity=1.0),
                   _superposition_params(())):
        s = rng.uniform(1.0, 700.0, 200)
        t = rng.uniform(0.0, params.maturity, 200)
        tau = params.tau_of(t)
        s2 = params.s_of(params.x_of(s, tau), tau)
        worst = max(worst, float(np.max(np.abs(s2 - s) / s)),
                    float(np.max(np.abs(params.t_of(tau) - t))))
    return CheckResult("transform_roundtrip", worst <= 1e-12, worst, 1e-12)


def check_le_zero_equivalence() -> CheckResult:
    # the march's step without costs against the generic theta step
    params = LelandParams(rate=0.1, sigma=0.2, strike=100.0, maturity=1.0)
    a, b = params.domain()
    disc = build_discretization(a, b, 2 ** 5)
    scheme = SchemeConfig(n_steps=8)
    surf = run_leland(params, disc, scheme)
    w = surf.levels[0]["vhat"]
    worst = 0.0
    for level, fields in list(surf.levels.items())[1:]:
        w = step_linear(disc.system, params.coefficients("vhat"), w,
                        w[[0, -1]], surf.dtau, scheme.theta_at(level - 1))
        worst = max(worst, float(np.max(np.abs(fields["vhat"] - w))))
    return CheckResult("le_zero_equivalence", worst <= 1e-12, worst, 1e-12)


def _superposition_params(coupons) -> AfvParams:
    return AfvParams(rate=0.05, sigma=0.2, maturity=5.0, face_value=100.0,
                     conversion_ratio=1.0, s_initial=100.0, hazard_rate=0.0,
                     recovery=0.0, eta=0.0, coupons=coupons,
                     call_window=None, put_window=None, rho=0.0)


def _bond_spaces(n: int) -> tuple:
    """The two spaces of a bond check on (-6, 2): n cubic elements, and
    the central-difference twin on n cells."""
    return build_discretization(-6.0, 2.0, n), fdm_discretization(-6.0, 2.0, n)


def check_afv_superposition() -> CheckResult:
    worst = 0.0
    for disc in _bond_spaces(2 ** 6):
        for coupons in ((), tuple((0.5 * i, 4.0) for i in range(1, 11))):
            f = run(_superposition_params(coupons), disc,
                    SchemeConfig(n_steps=50)).final
            worst = max(worst, float(np.max(np.abs(
                f["U"] - (f["B"] + f["C"])))))
    return CheckResult("afv_superposition", worst <= 1e-8, worst, 1e-8)


def check_coupon_jump() -> CheckResult:
    # last-level coupon: with constraints off the A/B difference is the
    # injected amount exactly, except at the pinned right boundary, and
    # C does not see it
    amount = 2.5
    worst = 0.0
    for disc in _bond_spaces(2 ** 5):
        f0, f1 = (run(_superposition_params(coupons), disc,
                      SchemeConfig(n_steps=10)).final
                  for coupons in ((), ((0.04, amount),)))
        for name in ("U", "B"):
            diff = f1[name] - f0[name]
            worst = max(worst, float(np.max(np.abs(diff[:-1] - amount))),
                        abs(diff[-1]))
        worst = max(worst, float(np.max(np.abs(f1["C"] - f0["C"]))))
    return CheckResult("coupon_jump", worst <= 1e-12, worst, 1e-12)


def check_constraint_violation() -> CheckResult:
    params = replace(_superposition_params(
        tuple((0.5 * i, 4.0) for i in range(1, 11))), hazard_rate=0.02,
        call_window=(2.0, 5.0, 110.0), put_window=(3.0, 3.0, 105.0), rho=1e6)
    n_steps = 50
    worst = 0.0
    for disc in _bond_spaces(2 ** 6):
        surf = run(params, disc, SchemeConfig(n_steps=n_steps, store_every=1))
        events, _ = params.calendar(surf.dtau, n_steps)
        conversion = params.conversion_value(disc.greville_x)
        for level, fields in list(surf.levels.items())[1:]:
            c_now, put_active, call_active = events.get(level,
                                                        (0.0, False, False))
            state = constraint_state(params, params.t_of(level * surf.dtau),
                                     conversion, put_active=put_active,
                                     call_active=call_active, coupon_now=c_now)
            # stored levels are post-injection; compare net of the coupon
            # (the pinned right coefficient never receives it)
            lift = np.append(np.full(disc.n_basis - 1, c_now), 0.0)
            u, b = (fields[name] - lift for name in ("U", "B"))
            # how far U lies outside [u*_put, u*_call]
            worst = max(worst, float(np.max(np.maximum(
                state.u_star_put - u, u - state.u_star_call))))
            # the infinite sentinels of a closed window give -inf here
            shortfall = state.b_put_dirty - fields["C"] - b
            worst = max(worst, float(np.max(b[:-1] - state.b_call_dirty)),
                        float(np.max(shortfall[:-1])))
    return CheckResult("constraint_violation", worst <= 1e-4, worst, 1e-4)


def _call_error(name: str, params: LelandParams, n_elements: int,
                n_steps: int, bound: float, knot_mode: str) -> CheckResult:
    """A claim check: the cubic call at S = 100 on n_elements elements of
    ``knot_mode`` knots and n_steps steps, against its closed form."""
    a, b = params.domain()
    kink_xi = float(PhysicalMap(a, b).to_parameter(params.kink))
    disc = build_discretization(a, b, n_elements, knot_mode=knot_mode,
                                kink_xi=kink_xi)
    surf = run(params, disc, SchemeConfig(n_steps=n_steps))
    err = abs(float(value_curve(params, disc, surf, [100.0])[0])
              - float(params.closed_form(100.0, 0.0)))
    return CheckResult(name, err <= bound, err, bound,
                       f"{n_elements} x {n_steps} against the closed form")


ALL_CHECKS = (
    check_partition_of_unity,
    check_quadrature_exactness,
    check_mass_spd,
    check_stiffness_rowsum,
    check_assembly_dense_oracle,
    check_derivative_vs_fd,
    check_transform_roundtrip,
    check_le_zero_equivalence,
    check_afv_superposition,
    check_coupon_jump,
    check_constraint_violation,
    # the paper's claim that few kink-aligned knots price accurately: 32
    # graded elements, interpolated initial data, an error of 1.8e-5
    partial(_call_error, "refined_call_error",
            LelandParams(rate=0.05, sigma=0.2, strike=100.0, maturity=1.0),
            32, 256, 5e-5, "refined"),
    # the benchmark ladder's middle rung (Le = 0.8) against Black-Scholes
    # at sigma sqrt(1 + Le): an error of 2.5e-2
    partial(_call_error, "leland_call_error",
            LelandParams(rate=0.1, sigma=0.2, strike=100.0, maturity=1.0,
                         leland_number=0.8),
            512, 320, 5e-2, "uniform"),
)


def run_checks() -> list[CheckResult]:
    """Run every check in order.  A check that misses its tolerance is a
    result with ``passed`` False; one that raises propagates its error."""
    return [fn() for fn in ALL_CHECKS]


def format_report(results) -> str:
    lines = [r.line() for r in results]
    n_bad = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_bad}/{len(results)} invariant checks passed")
    return "\n".join(lines)
