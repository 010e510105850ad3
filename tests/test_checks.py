"""The invariant suite measures the FDM twin as well as the cubic space."""

import numpy as np
import pytest

import igafin.checks as checks
import igafin.stepper as stepper


def _coupon_run_with_a_shifted_final_b(params, surf):
    if params.coupons:
        surf.final["B"] = surf.final["B"] + 1e-9


def _u_above_the_call_ceiling(params, surf):
    for fields in list(surf.levels.values())[1:]:
        fields["U"] = fields["U"] + 1.0


@pytest.mark.parametrize("check,corrupt", [
    ("check_coupon_jump", _coupon_run_with_a_shifted_final_b),
    ("check_constraint_violation", _u_above_the_call_ceiling),
])
def test_a_fault_of_the_fdm_twin_fails_its_check(monkeypatch, check, corrupt):
    # the bond checks used to measure only the twin's U (coupon_jump) or
    # not the twin at all (constraint_violation)
    run_afv = stepper.run_afv

    def corrupted(params, disc, scheme):
        surf = run_afv(params, disc, scheme)
        if disc.basis.degree == 1:  # the central-difference twin
            corrupt(params, surf)
        return surf

    monkeypatch.setattr(stepper, "run_afv", corrupted)
    result = getattr(checks, check)()
    assert not result.passed
    assert np.isfinite(result.measured)
