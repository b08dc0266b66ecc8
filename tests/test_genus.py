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
