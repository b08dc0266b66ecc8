"""Weak Jacobi forms: generators, basis, Hecke operators, decomposition."""

import random
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from jacobilift.errors import PrecisionError, ValidationError
from jacobilift.genpoly import parse_generator_polynomial
from jacobilift.jacobi import (
    JacobiForm,
    _form_store,
    basis_psi,
    decompose,
    divide_by_xi06,
    generator,
    hecke_tminus,
    linear_residuals,
    phi_threehalf,
    phi_weak_weight_minus1,
    psi2_variant,
    taylor_coeffs,
    theta_jacobi,
    xi06,
)
from jacobilift.modular import theta_constant
from jacobilift.rings import RING_Q
from jacobilift.series import DEN2, Series
from jacobilift.verify import random_form

from conftest import verified_by

# Identities that `jacobilift.verify` states, asserted by the name of their
# check in one run of `verify all`.
test_generator_q0_rows = verified_by(*(f"phi_0{m} q^0 row golden" for m in (1, 2, 3, 4)))
test_phi01_q1_row = verified_by("phi_01 q^1 row golden")
test_ring_relation_phi04 = verified_by("4*phi_04 == phi_01*phi_03 - phi_02^2 (10 q-orders)")
test_xi06_polynomial_relation = verified_by(
    "xi_06 == -phi1^2 phi4 + 9 phi1 phi2 phi3 - 8 phi2^3 - 27 phi3^2 (10 q-orders)",
)
test_basis_structure = verified_by("basis (m <= 12) q^0 canonical shape")
test_psi_05_1_row = verified_by("psi^(1)_{0,5} q^0 row == 5y + 2 + 5/y")
test_residuals_on_generators_and_basis = verified_by("residuals vanish on generators and basis")
test_hecke_tminus2_identity = verified_by(
    "phi_01|T_-(2) - 2 phi_02 == phi_01^2 - 20 phi_02 (6 q-orders)",
)
test_hecke_tminus3_gives_psi33 = verified_by(
    "psi^(3)_{0,3} == phi_01|T_-(3) - 3 phi_03 (6 q-orders)",
)
test_hecke_t0_2_norm_determined = verified_by("phi_02|T_0(2) is a norm-determined index-2 form")
test_specialize_torsion_alpha = verified_by("alpha q^0..q^5 coefficients")

QP = 24 * 6
GENERATOR_INDICES = (1, 2, 3, 4, 6, 8, 12)
STORED = (phi_threehalf, phi_weak_weight_minus1, xi06, generator, basis_psi)


def clear_stores():
    for fn in STORED:
        fn.store.clear()


# ---- the rational route to phi01, kept as an independent oracle ----------


def theta_two_var(a, b, qprec):
    """theta_{a,b}(tau, z) = sum_n (-1)**(b*n) q**((2n+a)**2/8) y**((2n+a)/2)."""
    terms = {}
    bound = isqrt(max(qprec, 0) // 3) + 2
    for n in range(-bound, bound + 1):
        m = 2 * n + a
        nq = 3 * m * m
        if nq >= qprec:
            continue
        sign = -1 if (b * n) % 2 else 1
        key = (nq, 2 * m)
        terms[key] = terms.get(key, 0) + sign
    return Series(DEN2, terms, qprec)


def xi_ab(a, b, qprec):
    """xi_{a,b} = theta_{a,b}(tau, z) / theta_{a,b}(tau, 0), over Q."""
    num = theta_two_var(a, b, qprec + 6).promote(RING_Q)
    den = theta_constant(a, b, qprec + 6).promote(RING_Q)
    return num.exact_div(den).truncate(qprec)


def phi01_oracle(qprec):
    """phi01 = 4 * sum of xi_ab**2 over the three even characteristics."""
    total = Series.zero(DEN2, qprec, RING_Q)
    for a, b in ((0, 0), (1, 0), (0, 1)):
        xi = xi_ab(a, b, qprec)
        total = total + xi * xi
    return total.scale(4).demote_to_int()


@pytest.mark.parametrize("qprec", [24, 24 * 3 + 6, 24 * 5, 24 * 8 + 6, 24 * 12 + 13])
def test_integer_phi01_matches_rational_oracle(qprec):
    assert generator(1, qprec).series == phi01_oracle(qprec)


# ---- the form store ---------------------------------------------------------


@pytest.mark.parametrize("m", GENERATOR_INDICES)
def test_generator_lower_after_higher_is_fresh(m):
    lo, hi = 24 * 3 + 6, 24 * 7
    clear_stores()
    fresh = generator.__wrapped__(m, lo)
    clear_stores()
    generator(m, hi)
    again = generator(m, lo)
    assert again.series.qprec == lo
    assert again == fresh
    assert generator.store[(m,)].series.qprec == hi


@pytest.mark.parametrize("stored, key", [
    (basis_psi, (5, 1)), (basis_psi, (7, 4)), (basis_psi, (12, 12)), (xi06, ()),
])
def test_store_lower_after_higher_is_fresh(stored, key):
    lo, hi = 24 * 2 + 6, 24 * 5
    clear_stores()
    fresh = stored.__wrapped__(*key, lo)
    clear_stores()
    stored(*key, hi)
    again = stored(*key, lo)
    assert again.series.qprec == lo
    assert again == fresh


def test_store_keeps_one_form_per_key():
    clear_stores()
    for qprec in (48, 24 * 5, 30, 24 * 3 + 1):
        generator(1, qprec)
    generator(2, 48)
    assert sorted(generator.store) == [(1,), (2,)]
    assert generator.store[(1,)].series.qprec == 24 * 5
    assert generator(1, qprec=24 * 4 + 1).series.qprec == 24 * 4 + 1
    assert generator.store[(1,)].series.qprec == 24 * 5


def test_store_raises_on_short_computation():
    @_form_store
    def short(qprec):
        return JacobiForm(Series.zero(DEN2, qprec - 24), 0, 2)

    with pytest.raises(PrecisionError, match=r"requested q-precision 40 \(built at 48\), computed 24"):
        short(40)


def test_xi06_leading_term():
    xi = xi06(QP)
    assert xi.series.min_key()[0] == 24  # first term at q^1
    assert xi.q_row(0) == {}


def test_phi_threehalf_square_is_phi03():
    f = phi_threehalf(QP)
    assert (f * f).series.same_terms(generator(3, QP).series)


@given(st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=25, deadline=None)
def test_residuals_on_random_polynomials(seed):
    assert linear_residuals(random_form(random.Random(seed), 72)) == (0, 0)


def test_hecke_tminus_on_exact_form():
    phi1 = generator(1, 24 * 9)
    exact = JacobiForm(Series(DEN2, phi1.series.terms, None), 0, 2)
    out = hecke_tminus(exact, 3)
    assert out.series.qprec is None
    assert out.series.same_terms(hecke_tminus(phi1, 3).series)
    const = hecke_tminus(JacobiForm(Series.const(1, DEN2), 0, 2), 6)
    assert const.series == Series.const(12, DEN2)  # sigma_1(6)


def test_decompose_roundtrip():
    poly = parse_generator_polynomial("Phi1^2*Phi2 - 3*Phi2^2 + Phi4")
    form = poly.evaluate(tuple(generator(i, 96) for i in (1, 2, 3, 4)))
    dec = decompose(form)
    back = dec.poly.evaluate(tuple(generator(i, 96) for i in (1, 2, 3, 4)))
    assert back.series.same_terms(form.series)


def test_decompose_detects_ideal_level():
    form = (xi06(96) * generator(1, 96)).truncate(96)
    dec = decompose(form)
    assert dec.levels[0] == {} or all(v == 0 for v in dec.levels[0].values())
    assert len(dec.levels) >= 2


def test_divide_by_xi06_exact():
    prod = (xi06(120) * generator(2, 120)).truncate(96)
    quotient = divide_by_xi06(prod)
    assert quotient.series.same_terms(generator(2, 96).series, 72)


def test_taylor_w2_coefficient_vanishes():
    for m in (1, 2, 3, 4):
        coeffs = taylor_coeffs(generator(m, 96), 3)
        assert coeffs[1].is_zero()  # odd coefficient
        assert coeffs[2].is_zero()  # weight-2 level-1 obstruction


def test_psi2_variants_differ_by_generator():
    a = psi2_variant(2, 72, "A")
    b = psi2_variant(2, 72, "B")
    diff = a - b
    assert diff.series.same_terms(generator(2, 72).series.scale(4))


def test_theta_jacobi_product_form_matches_sum():
    from jacobilift.jacobi import theta_jacobi_product

    qp = 24 * 8
    assert theta_jacobi(qp).same_terms(theta_jacobi_product(qp), 24 * 6)


def test_fourier_beyond_precision_raises():
    with pytest.raises(PrecisionError):
        generator(1, 48).fourier(2, 0)


def test_bad_index_row_rejected():
    from jacobilift.jacobi import JacobiForm
    from jacobilift.series import DEN2, Series

    with pytest.raises(ValidationError):
        JacobiForm(Series(DEN2, {(0, 2): 1}, 24), 0, 2)  # half-int y for int index
