"""Calabi-Yau invariants, elliptic genera, forced relations, congruences."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jacobilift.errors import ValidationError
from jacobilift.genus import (
    CYInvariants,
    chi_y_polynomial,
    divisibility_report,
    elliptic_genus,
    relation_check,
)
from jacobilift.jacobi import phi_threehalf
from jacobilift.verify import random_form


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


def reference_relation_check(inv):
    """relation_check by per-dimension branches, the route the table
    CY_RELATIONS replaced, kept as the reference."""
    d, c, e = inv.d, inv.chi, inv.euler
    moment = sum((-1) ** p * c[p] * (Fraction(d, 2) - p) ** 2 for p in range(d + 1))
    target = Fraction(e * d, 12)
    report = {
        "second_moment: e*d/12 == sum (-1)^p chi_p (d/2-p)^2": (moment == target, moment - target)
    }
    middle = {
        4: ("chi2 = 22*chi0 - 4*chi1", lambda: Fraction(c[2] - (22 * c[0] - 4 * c[1]))),
        6: ("chi3 = -34*chi0 + 14*chi1 - 2*chi2",
            lambda: Fraction(c[3] - (-34 * c[0] + 14 * c[1] - 2 * c[2]))),
        8: ("chi4 = 46*chi0 - 25*chi1 + 10*chi2 - chi3",
            lambda: Fraction(c[4] - (46 * c[0] - 25 * c[1] + 10 * c[2] - c[3]))),
        10: ("chi5 = -58*chi0 + 36*chi1 - 20*chi2 + 8*chi3 - (2/5)*(chi4 + chi3 - chi2 - chi1)",
             lambda: Fraction(c[5]) - (Fraction(-58 * c[0] + 36 * c[1] - 20 * c[2] + 8 * c[3])
                                       - Fraction(2, 5) * (c[4] + c[3] - c[2] - c[1]))),
    }
    if d in middle:
        name, residual = middle[d]
        res = residual()
        report[name] = (res == 0, res)
    for dd, mod in ((4, 6), (6, 4), (8, 3)):
        if d == dd:
            report[f"e(M{d}) mod {mod} == 0"] = (e % mod == 0, e % mod)
    if d == 3:
        res = Fraction(c[1]) + Fraction(e, 2)
        report["chi1 = -e/2"] = (res == 0, res)
    if d == 5:
        res1 = Fraction(c[1]) + Fraction(e, 24)
        res2 = Fraction(c[2]) - Fraction(11 * e, 24)
        report["chi1 = -e/24"] = (res1 == 0, res1)
        report["chi2 = 11*e/24"] = (res2 == 0, res2)
        report["e(M5) mod 24 == 0"] = (e % 24 == 0, e % 24)
    if d == 7:
        res = Fraction(e) - 12 * (Fraction(c[2]) - 3 * c[1])
        report["e(M7) = 12*(chi2 - 3*chi1)"] = (res == 0, res)
    return report


@st.composite
def serre_dual(draw, dims=(1, 11)):
    """CYInvariants with a drawn dimension and a Serre-dual chi vector."""
    d = draw(st.integers(*dims))
    sign = 1 if d % 2 == 0 else -1
    half = draw(st.lists(st.integers(-60, 60), min_size=d // 2 + 1, max_size=d // 2 + 1))
    chi = [0] * (d + 1)
    for p, c in enumerate(half):
        chi[p], chi[d - p] = c, sign * c
    return CYInvariants(d, chi)


# the vectors of the Calabi-Yau checks in `verify` and its lift batteries
VERIFY_VECTORS = [
    (2, (2, -20, 2)), (2, (1, -10, 1)), (3, (0, 1, -1, 0)), (3, (0, -1, 1, 0)),
    (4, (1, 4, 6, 4, 1)), (4, (1, 4, 7, 4, 1)), (4, (1, 0, 22, 0, 1)), (4, (0, 1, -4, 1, 0)),
    (5, (0, -1, 11, -11, 1, 0)), (7, (0, 1, 3, 2, -2, -3, -1, 0)),
    (7, (0, 1, 2, 3, -3, -2, -1, 0)), (8, (1, 2, 3, 4, 22, 4, 3, 2, 1)),
    (8, (0, 0, 0, 1, -1, 1, 0, 0, 0)), (8, (0, 1, 0, 0, -25, 0, 0, 1, 0)),
]


def assert_same_report(inv):
    got, want = relation_check(inv), reference_relation_check(inv)
    assert list(got) == list(want)
    assert list(got.values()) == list(want.values())


@given(serre_dual())
@settings(max_examples=300, deadline=None)
def test_relation_table_equals_the_branch_route(inv):
    assert_same_report(inv)


@pytest.mark.parametrize("d, chi", VERIFY_VECTORS)
def test_relation_table_on_the_verify_vectors(d, chi):
    assert_same_report(CYInvariants(d, chi))


def assert_rejection_names_failures(inv):
    report = relation_check(inv)
    try:
        elliptic_genus(inv, qprec=48)
    except ValidationError as exc:
        for name, (ok, res) in report.items():
            assert (f"{name} violated (residual {res})" in str(exc)) == (not ok), (name, str(exc))
    else:
        assert all(ok for ok, _ in report.values()), report


@given(serre_dual(dims=(3, 10)))
@settings(max_examples=120, deadline=None)
def test_rejection_names_every_failed_relation(inv):
    assert_rejection_names_failures(inv)


@pytest.mark.parametrize("d, chi", VERIFY_VECTORS + [(6, (1, 2, 3, 4, 3, 2, 1))])
def test_rejection_names_failed_relations_on_fixed_vectors(d, chi):
    assert_rejection_names_failures(CYInvariants(d, chi))


def test_d7_rejection_names_its_relation():
    with pytest.raises(ValidationError, match=r"e\(M7\) = 12\*\(chi2 - 3\*chi1\) violated"):
        elliptic_genus(CYInvariants(7, (0, 1, 2, 3, -3, -2, -1, 0)), qprec=48)


@pytest.mark.parametrize("h", [-3, 0, 1, 5])
def test_d3_genus_is_a_multiple_of_phi_threehalf(h):
    form = elliptic_genus(CYInvariants(3, (0, -h, h, 0)), qprec=72)
    assert (form.weight2, form.index2) == (0, 3)
    assert form.series == phi_threehalf(72).series.scale(h)


@pytest.mark.parametrize("inv", [
    CYInvariants.from_euler(5, 24), CYInvariants.from_euler(5, 0),
    CYInvariants(7, (0, 1, 3, 2, -2, -3, -1, 0)),
])
def test_odd_genus_gives_its_chi_vector_back(inv):
    """Odd d divides the q**0 row by y**(1/2) + y**(-1/2) (Series.exact_div);
    the genus gives the chi vector back, and chi = 0, whose row is empty,
    the zero form."""
    genus = elliptic_genus(inv, qprec=48)
    assert chi_y_polynomial(genus, inv.d) == inv
    assert genus.series.is_zero() == (not any(inv.chi))
