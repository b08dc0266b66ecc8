"""Calabi-Yau invariants, elliptic genera, forced relations, congruences."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from jacobilift.errors import ValidationError
from jacobilift.genus import (
    CYInvariants,
    chi_y_polynomial,
    divisibility_report,
    elliptic_genus,
)
from jacobilift.verify import random_form

from conftest import verified_by

# Identities that `jacobilift.verify` states, asserted by the name of their
# check in one run of `verify all`.
test_k3_is_twice_phi01 = verified_by("genus(K3) == 2 phi_01 (5 q-orders)")
test_enriques_is_phi01 = verified_by("genus(Enriques) == phi_01 (5 q-orders)")
test_d4_relation_enforced = verified_by(
    "d=4: chi2 = 22*chi0 - 4*chi1 holds for chi (1,4,6,4,1)",
    "d=4: chi (1,4,7,4,1) breaks chi2 = 22*chi0 - 4*chi1 and e mod 6, and has no genus",
)
test_d5_euler_derivation_and_rejection = verified_by(
    "d=5: e = 24 gives chi1 = -1, chi2 = 11 and every relation; e = 23 is rejected",
)
test_d7_euler_formula = verified_by(
    "d=7: e(M7) = 12*(chi2 - 3*chi1) holds for chi (0,1,3,2,-2,-3,-1,0),"
    " fails for (0,1,2,3,-3,-2,-1,0)",
)
test_special_values_all_pass = verified_by(
    "phi03(1/4) = 2*theta00(2t)/theta01(2t)",
    "alpha = 16*gamma**4 - 8",
    "alpha**2 - 64 = 2**12 Delta(2t)/Delta(t)",
    "beta**3 - 27 = 3**6 (eta(3t)/eta(t))**12",
    "alpha has positive coefficients",
    "gamma has positive coefficients",
)
test_xi06_torsion_values_all_pass = verified_by(
    "xi06(1/2) = 2**12 Delta(2t)/Delta(t)",
    "xi06(1/3) = 3**6 (eta(3t)/eta(t))**12",
    "xi06(1/4) = 2**6 (eta(4t)/eta(2t))**12",
    "xi06(1/6) = (eta(t)eta(6t)/(eta(2t)eta(3t)))**12",
)


def test_chi_y_roundtrip():
    inv = CYInvariants(4, (1, 4, 6, 4, 1))
    genus = elliptic_genus(inv, qprec=24 * 3)
    assert chi_y_polynomial(genus, 4) == inv


def test_serre_duality_enforced():
    with pytest.raises(ValidationError):
        CYInvariants(3, (0, 1, 2, 0))


@given(st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=20, deadline=None)
def test_congruence_battery_random_forms(seed):
    form = random_form(random.Random(seed), 24 * 5)
    report = divisibility_report(form, d=form.index2)
    assert all(ok for ok, _ in report.values()), report
