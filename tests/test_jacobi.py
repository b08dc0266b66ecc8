"""Weak Jacobi forms: generators, basis, Hecke operators, decomposition."""

import random
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from jacobilift.errors import PrecisionError, ValidationError
from jacobilift.genpoly import GeneratorPolynomial, parse_generator_polynomial
from jacobilift.jacobi import (
    JacobiForm,
    _form_store,
    basis_psi,
    decompose,
    divide_by_xi06,
    generator,
    hecke_t0_2,
    hecke_tminus,
    linear_residuals,
    norm_table,
    phi_threehalf,
    phi_weak_weight_minus1,
    psi2_variant,
    specialize_torsion,
    taylor_coeffs,
    theta_jacobi,
    xi06,
)
from jacobilift.modular import eta_power, theta_constant
from jacobilift.rings import RING_Q
from jacobilift.series import DEN2, Series

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


def test_generator_q0_rows():
    rows = {m: generator(m, QP).q_row(0) for m in (1, 2, 3, 4)}
    assert rows[1] == {4: 1, 0: 10, -4: 1}
    assert rows[2] == {4: 1, 0: 4, -4: 1}
    assert rows[3] == {4: 1, 0: 2, -4: 1}
    assert rows[4] == {4: 1, 0: 1, -4: 1}


def test_phi01_q1_row():
    assert generator(1, QP).q_row(1) == {-8: 10, -4: -64, 0: 108, 4: -64, 8: 10}


def test_ring_relation_phi04():
    p1, p2, p3, p4 = (generator(m, QP + 24) for m in (1, 2, 3, 4))
    assert (p1 * p3 - p2 * p2).truncate(QP).same_terms((4 * p4).truncate(QP))


def test_xi06_polynomial_relation():
    xi = xi06(QP)
    val = xi.poly.evaluate(tuple(generator(m, QP + 24) for m in (1, 2, 3, 4)))
    assert val.truncate(QP).series.same_terms(xi.series)


def test_xi06_leading_term():
    xi = xi06(QP)
    assert xi.series.min_key()[0] == 24  # first term at q^1
    assert xi.q_row(0) == {}


def test_phi_threehalf_square_is_phi03():
    f = phi_threehalf(QP)
    assert (f * f).series.same_terms(generator(3, QP).series)


def test_basis_structure():
    for m in range(1, 13):
        for n in range(1, m + 1):
            row = basis_psi(m, n, 72).q_row(0)
            if n == 1:
                from math import gcd

                assert row.get(4, 0) == m // gcd(12, m), (m, n)
            elif n == 2:
                assert row == {8: 1, 4: -4, 0: 6, -4: -4, -8: 1}, (m, n)
            else:
                assert row.get(4 * n, 0) == 1, (m, n)
                assert all(row.get(4 * j, 0) == 0 for j in range(2, n)), (m, n)


def test_psi_05_1_row():
    assert basis_psi(5, 1, 72).q_row(0) == {4: 5, 0: 2, -4: 5}


def test_residuals_on_generators_and_basis():
    for m in (1, 2, 3, 4):
        assert linear_residuals(generator(m, 72)) == (0, 0)
    for m in range(1, 13):
        for n in range(1, m + 1):
            assert linear_residuals(basis_psi(m, n, 72)) == (0, 0)


@given(st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=25, deadline=None)
def test_residuals_on_random_polynomials(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 8)
    monomials = [
        (e1, e2, e3, e4)
        for e1 in range(m + 1)
        for e2 in range(m // 2 + 1)
        for e3 in range(m // 3 + 1)
        for e4 in range(m // 4 + 1)
        if e1 + 2 * e2 + 3 * e3 + 4 * e4 == m
    ]
    terms = {key: rng.randint(-9, 9) for key in monomials}
    terms = {k: c for k, c in terms.items() if c} or {monomials[0]: 1}
    poly = GeneratorPolynomial(terms)
    form = poly.evaluate(tuple(generator(i, 72) for i in (1, 2, 3, 4)))
    assert linear_residuals(form) == (0, 0)


def test_hecke_tminus2_identity():
    lhs = hecke_tminus(generator(1, 24 * 13), 2) - 2 * generator(2, 24 * 6)
    p1, p2 = generator(1, 24 * 7), generator(2, 24 * 7)
    assert lhs.truncate(24 * 6).same_terms((p1 * p1 - 20 * p2).truncate(24 * 6))


def test_hecke_tminus3_gives_psi33():
    lhs = hecke_tminus(generator(1, 24 * 19), 3) - 3 * generator(3, 24 * 6)
    assert lhs.truncate(24 * 6).same_terms(basis_psi(3, 3, 24 * 7).truncate(24 * 6))


def test_hecke_tminus_on_exact_form():
    phi1 = generator(1, 24 * 9)
    exact = JacobiForm(Series(DEN2, phi1.series.terms, None), 0, 2)
    out = hecke_tminus(exact, 3)
    assert out.series.qprec is None
    assert out.series.same_terms(hecke_tminus(phi1, 3).series)
    const = hecke_tminus(JacobiForm(Series.const(1, DEN2), 0, 2), 6)
    assert const.series == Series.const(12, DEN2)  # sigma_1(6)


def test_hecke_t0_2_norm_determined():
    out = hecke_t0_2(generator(2, 24 * 26))
    assert out.weight2 == 0 and out.index2 == 4
    assert norm_table(out)  # consistent norm-indexed coefficients


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


def test_specialize_torsion_alpha():
    alpha = specialize_torsion(generator(1, 24 * 7), 2)
    got = [alpha.coeff((24 * n, 0)) for n in range(6)]
    assert got == [8, 2 ** 8, 2 ** 11, 11 * 2 ** 10, 3 * 2 ** 14, 359 * 2 ** 9]


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
