"""Weak Jacobi forms: generators, basis, Hecke operators, decomposition."""

import contextlib
import random
import re
from fractions import Fraction
from math import factorial, gcd, isqrt

import pytest
from conftest import hecke_tminus_scan, lift_to_three, plain_power
from hypothesis import given, settings, strategies as st

from jacobilift.errors import InexactDivisionError, PrecisionError, ValidationError
from jacobilift.genpoly import GeneratorPolynomial, _horner, parse_generator_polynomial
from jacobilift.jacobi import (
    PACKED_MAX_ORDERS,
    _PSI1_LADDER,
    JacobiForm,
    _combination,
    _form_store,
    _packed_quadratic,
    _phi_threehalf_series,
    basis_psi,
    decompose,
    divide_by_xi06,
    evaluate_packed,
    generator,
    hecke_t0_2,
    hecke_tminus,
    linear_residuals,
    phi_threehalf,
    phi_weak_weight_minus1,
    polynomial_form,
    psi2_variant,
    specialize_torsion,
    taylor_coeffs,
    theta_jacobi,
    unit_form,
    xi06,
)
from jacobilift.lifts import humbert_multiplicity
from jacobilift.modular import eta_power, euler_product, kronecker, sigma1, theta_constant
from jacobilift.series import DEN2, DEN3, Series
from jacobilift.verify import ALPHA_COEFFS, GOLDEN_Q0_ROWS, GOLDEN_Q1_ROWS, random_form

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


def phi01_cross_multiplied(qprec):
    """The two sides of the rational identity
    phi01 = 4 sum_ab (theta_ab(tau, z)/theta_ab(tau, 0))**2 over the three
    even characteristics, cross-multiplied into one over Z:
    phi01 * prod_ab theta_ab(tau, 0)**2
        = 4 sum_ab theta_ab(tau, z)**2 prod_(a'b' != ab) theta_a'b'(tau, 0)**2.
    The product of the constants starts at 4 q**(1/4), so the two sides
    below q-exponent qprec + 6 (1/24 units) determine phi01 below qprec."""
    chars = ((0, 0), (1, 0), (0, 1))
    pad = qprec + 6
    consts = {ab: theta_constant(*ab, pad) ** 2 for ab in chars}
    lhs = generator(1, qprec).series
    rhs = Series.zero(DEN2, pad)
    for ab in chars:
        lhs = lhs * consts[ab]
        term = theta_two_var(*ab, pad) ** 2
        for other in chars:
            if other != ab:
                term = term * consts[other]
        rhs = rhs + term
    return lhs, rhs.scale(4)


@pytest.mark.parametrize("qprec", [24, 24 * 3 + 6, 24 * 5, 24 * 8 + 6, 24 * 12 + 13])
def test_integer_phi01_matches_rational_oracle(qprec):
    lhs, rhs = phi01_cross_multiplied(qprec)
    assert lhs.qprec == qprec + 6 and rhs.qprec >= qprec + 6
    assert lhs == rhs.truncate(qprec + 6)


# ---- the division routes, kept as oracles for the theta/eta products ------


def plain_eta_power(k, qprec):
    """eta**k, k >= 1, as q**(k/24) times k plain products of the Euler
    product: the oracles stay independent of the power kernel."""
    return plain_power(euler_product(qprec - k), k).shift((k, 0))


def half_division_oracle(qprec):
    """theta/eta**3 by long division by eta**3."""
    return theta_jacobi(qprec + 6).exact_div(plain_eta_power(3, qprec + 6)).truncate(qprec)


def xi06_division_oracle(qprec):
    """xi06 = theta**12/eta**12 by long division by eta**12."""
    pad = qprec + 48
    theta12 = plain_power(theta_jacobi(pad), 12)
    return theta12.exact_div(plain_eta_power(12, pad + 40)).truncate(qprec)


def phi01_pole_oracle(qprec):
    """phi01 = 12 phi_{-2,1} wp/(2 pi i)**2 (Eichler-Zagier), where
    phi_{-2,1} = (theta/eta**3)**2 and
    wp/(2 pi i)**2 = 1/12 + y/(1-y)**2 + sum_n sum_{d|n} d (y**d - 2 + y**-d) q**n.
    Since y/(1-y)**2 = 1/(y - 2 + 1/y), that term is an exact division."""
    half = half_division_oracle(qprec)
    phi_m21 = half * half
    terms = {(0, 0): 1}
    for n in range(1, (qprec + 23) // 24):
        terms[(24 * n, 0)] = -24 * sigma1(n)
        for d in range(1, n + 1):
            if n % d == 0:
                terms[(24 * n, 4 * d)] = terms[(24 * n, -4 * d)] = 12 * d
    wp = Series(DEN2, terms, qprec, _clean=True)
    pole = phi_m21.exact_div(Series(DEN2, {(0, 4): 1, (0, 0): -2, (0, -4): 1}, None))
    return phi_m21 * wp + pole.scale(12)


def threehalf_division_oracle(qprec):
    """phi_{0,3/2} = theta(tau, 2z)/theta(tau, z) by long division."""
    return theta_jacobi(qprec + 6, y_scale=2).exact_div(theta_jacobi(qprec + 6)).truncate(qprec)


DIVISION_PRECS = [24, 24 * 3 + 6, 24 * 10, 24 * 12 + 13, 24 * 20]


@pytest.mark.parametrize("qprec", DIVISION_PRECS + [24 * 40, 24 * 82])
def test_heat_phi01_matches_pole_oracle(qprec):
    assert generator(1, qprec).series == phi01_pole_oracle(qprec)


@pytest.mark.parametrize("qprec", DIVISION_PRECS + [24 * 40])
def test_xi06_product_matches_division_oracle(qprec):
    assert xi06(qprec).series == xi06_division_oracle(qprec)


@given(st.one_of(st.integers(0, 24 * 12), st.sampled_from([24 * 20 + 5, 24 * 40, 24 * 80 + 17])))
@settings(max_examples=30, deadline=None)
def test_threehalf_quintuple_product_matches_division_oracle(qprec):
    assert _phi_threehalf_series(qprec) == threehalf_division_oracle(qprec)


@pytest.mark.parametrize("qprec", DIVISION_PRECS + [24 * 40])
def test_half_form_product_matches_division_oracle(qprec):
    assert phi_weak_weight_minus1(qprec).series == half_division_oracle(qprec)


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


@pytest.mark.parametrize("stored, key", [
    (generator, (1,)), (basis_psi, (3, 1)), (xi06, ()), (phi_threehalf, ()),
    (phi_weak_weight_minus1, ()),
])
def test_store_refuses_exact_precision(stored, key):
    with pytest.raises(ValidationError, match="infinite series"):
        stored(*key, None)


STORED_KEYS = [
    (phi_threehalf, ()), (phi_weak_weight_minus1, ()), (xi06, ()),
    *((generator, (m,)) for m in (1, 2, 3, 4, 6, 8, 12)),
    (basis_psi, (4, 3)), (basis_psi, (5, 4)),  # phi01**(m - 2) phi02, reduced
    *((basis_psi, (m, n)) for m, n in ((1, 1), (5, 1), (5, 3), (6, 2), (12, 7), (12, 12))),
]


@pytest.mark.parametrize("qprec", [0, -24, 1])
@pytest.mark.parametrize("stored, key", STORED_KEYS)
def test_stored_constructors_at_empty_and_one_term_windows(stored, key, qprec):
    """A window below q**1 is the truncation of a wider one, from a cold
    store: empty below q**0, the q**0 row at qprec 1."""
    assert {fn for fn, _ in STORED_KEYS} == set(STORED)
    clear_stores()
    form = stored(*key, qprec)
    wide = stored(*key, 48)
    assert form.series.qprec == qprec
    assert form.series.terms == wide.series.truncate(qprec).terms
    assert (form.weight2, form.index2) == (wide.weight2, wide.index2)
    assert bool(form.series.terms) == (qprec == 1 and bool(wide.series.q_slice(0)))


def test_adding_a_non_form_is_a_validation_error():
    """Nested Horner of a non-homogeneous polynomial adds a constant to a
    form: a ValidationError, not an AttributeError."""
    gens = tuple(generator(m, 48) for m in (1, 2, 3, 4))
    with pytest.raises(ValidationError, match="equal weight and index"):
        parse_generator_polynomial("Phi1^2+Phi1").evaluate(gens)
    with pytest.raises(ValidationError, match="equal weight and index"):
        gens[0] - 1


def test_store_raises_on_short_computation():
    @_form_store
    def short(qprec):
        return JacobiForm(Series.zero(DEN2, qprec - 24), 0, 2)

    with pytest.raises(PrecisionError, match=r"requested q-precision 40 \(built at 48\), computed 24"):
        short(40)


def test_generator_q0_rows():
    for m, row in GOLDEN_Q0_ROWS.items():
        assert generator(m, QP).q_row(0) == row


def test_phi01_q1_row():
    assert generator(1, QP).q_row(1) == GOLDEN_Q1_ROWS[1]


@pytest.mark.parametrize("qprec", [1, 67, 72, None])
def test_q_row_below_and_at_the_precision(qprec):
    """Below the form's precision q_row(n) is the q**n row filtered from
    the terms, as Series.q_slice reads it, and the rows together are the
    whole series; at or past the precision it raises PrecisionError, and an
    exact form has empty rows past its last."""
    form = JacobiForm(Series(DEN2, generator(2, 72).series.terms, qprec), 0, 4)
    stop = 3 if qprec is None else -(-qprec // 24)
    rows = [form.q_row(n) for n in range(stop)]
    assert rows == [{k[1]: c for k, c in form.series.q_slice(24 * n)} for n in range(stop)]
    assert {(24 * n, ly): c for n, row in enumerate(rows) for ly, c in row.items()} == form.series.terms
    if qprec is None:
        assert form.q_row(stop) == {}
        return
    for n in (stop, stop + 1):
        with pytest.raises(PrecisionError, match=f"q-exponent {24 * n} is beyond qprec {qprec}"):
            form.q_row(n)


def test_ring_relation_phi04():
    p1, p2, p3, p4 = (generator(m, QP) for m in (1, 2, 3, 4))
    assert (p1 * p3 - p2 * p2).same_terms(4 * p4)


def test_xi06_polynomial_relation():
    xi = xi06(QP)
    value = xi.poly.evaluate(tuple(generator(m, QP) for m in (1, 2, 3, 4)))
    assert value.series.same_terms(xi.series)


def test_basis_structure():
    """Every psi_m^(n), m <= 36, has the canonical q**0 row: psi^(1) is
    (m/gcd(12, m))(y + 1/y) + c, psi^(2) is (y - 2 + 1/y)**2, and psi^(n>=3)
    has top degree n, is monic, has no y**2..y**(n-1) and its y**1
    coefficient lies in [0, m/gcd(12, m)).  The ladder's d = 12 row first
    acts at m = 24."""
    psi2_row = {8: 1, 4: -4, 0: 6, -4: -4, -8: 1}
    for m in range(1, 37):
        pivot = m // gcd(12, m)
        row = basis_psi(m, 1, 48).q_row(0)
        assert set(row) <= {-4, 0, 4} and row[4] == row[-4] == pivot, (m, row)
        for n in range(2, m + 1):
            row = basis_psi(m, n, 48).q_row(0)
            if n == 2:
                assert row == psi2_row, (m, n)
            else:
                assert max(row) == 4 * n and row[4 * n] == 1, (m, n)
                assert all(row.get(4 * j, 0) == 0 for j in range(2, n)), (m, n)
                assert 0 <= row.get(4, 0) < pivot, (m, n)


def test_basis_polynomials_evaluate_back():
    """The ``poly`` of psi_m^(n) evaluates to psi_m^(n): for n <= 3 at every
    m <= 36, where the ladder's divisions act, and for every n at m = 24 and
    25, the first indices whose polynomials need the reduction modulo
    4 Phi4 = Phi1 Phi3 - Phi2^2."""
    cases = [(m, n) for m in range(1, 37) for n in range(1, min(m, 3) + 1)]
    cases += [(m, n) for m in (24, 25) for n in range(4, m + 1)]
    for m, n in cases:
        psi = basis_psi(m, n, 48)
        assert polynomial_form(psi.poly, 48).series == psi.series, (m, n)


# ---- phi06/phi08/phi012 as one packed quadratic, and the Hermite reduction --

QUADRATICS = {6: (2, 3, 4, 1), 8: (2, 4, 6, 1), 12: (4, 6, 8, 2)}


@pytest.mark.parametrize("m", sorted(QUADRATICS))
@pytest.mark.parametrize("orders", [1, 2, 10, 17, 40])
def test_packed_quadratic_equals_series_products(m, orders):
    """phi_0m = a c - x b**2 on packed q-rows equals the same quadratic by
    Series.__mul__ and Series.__sub__ (b times a copy of itself, so that no
    square route is taken): terms, q-precision and polynomial."""
    qprec = 24 * orders
    i, j, k, x = QUADRATICS[m]
    a, b, c = (generator(n, qprec) for n in (i, j, k))
    copy = Series(DEN2, dict(b.series.terms), b.series.qprec)
    want = a.series * c.series - (b.series * copy).scale(x)
    got = generator(m, qprec)
    assert got.series.terms == want.terms and got.series.qprec == want.qprec == qprec
    assert got.poly == a.poly * c.poly - b.poly * b.poly * x
    assert (got.weight2, got.index2) == (0, 2 * m)


@pytest.mark.parametrize("m", sorted(QUADRATICS))
def test_packed_quadratic_past_the_strip_gate_equals_the_dict_loop(strips, m):
    """At 40 q-orders the row products of phi_0m = a c - x b**2 pass
    series.STRIP_MIN_BITS and multiply stripped rows; the terms equal the
    same quadratic from the dict loop (series._mul_dict), which packs no row."""
    from jacobilift import series

    qprec = 24 * 40
    i, j, k, x = QUADRATICS[m]
    a, b, c = (generator(n, qprec).series.terms for n in (i, j, k))
    strips.clear()  # building phi06 for phi08 or phi012 strips too
    got = _packed_quadratic(*(generator(n, qprec) for n in (i, j, k)), x)
    assert len(strips) == 3  # a, c, and b once for its square
    want = series._mul_dict(a, c, qprec, 2)
    for key, v in series._mul_dict(b, b, qprec, 2).items():
        want[key] = want.get(key, 0) - x * v
    assert got.series.terms == {key: v for key, v in want.items() if v}


@pytest.mark.parametrize("bits", [7, 15, 63, 71])
@pytest.mark.parametrize("x", [1, 2])
def test_packed_quadratic_slot_width_holds_the_extreme(bits, x):
    """One-term forms a = K, c = -K and b = K with K**2 just below 2**bits:
    a c - x b**2 = -(1 + x) K**2 is the extreme the slot width must hold,
    past a width taken from |a||c| alone."""
    k = isqrt((1 << bits) - 1)
    a, b, c = (JacobiForm(Series(DEN2, {(0, 0): v}, 24), 0, 2, GEN(1)) for v in (k, k, -k))
    got = _packed_quadratic(a, b, c, x)
    assert got.series.terms == {(0, 0): -(1 + x) * k * k} and got.series.qprec == 24
    assert got.poly == GEN(1) ** 2 * (1 - x)


def test_quadratic_generators_make_no_series_product(monkeypatch):
    """With its three operands stored, generator(6 | 8 | 12) makes no
    Series product and reads its rows back once."""
    from jacobilift import jacobi

    clear_stores()
    for n in (1, 2, 3, 4):
        generator(n, QP)
    products, reads = [], []
    series_mul, unpack = Series.__mul__, jacobi._unpack_rows
    monkeypatch.setattr(Series, "__mul__", lambda a, b: products.append(1) or series_mul(a, b))
    monkeypatch.setattr(jacobi, "_unpack_rows",
                        lambda *args: reads.append(args[1]) or unpack(*args))
    for m in (6, 8, 12):
        generator(m, QP)
        assert products == [] and len(reads) == 1, m
        reads.clear()
    clear_stores()


def old_basis(m, n, qprec, memo):
    """psi_m^(n) by the sequential Hermite chain, an oracle for basis_psi:
    the ladder and psi^(2) as sums of products, then one full-series scale
    and subtraction per reduced coefficient, reading the q**0 row afresh
    after each."""
    if (m, n) in memo:
        return memo[m, n]

    def tilde(j):
        return old_basis(j, 1, qprec, memo) * gcd(12, j)

    if n == 1 and m not in (1, 2, 3, 4, 6, 8, 12):
        d = gcd(12, m)
        terms = [tilde(m - k) * (generator(k, qprec) * x) for k, x in _PSI1_LADDER[d].items()]
        raw = sum(terms[1:], terms[0]).scale_div(d)
    elif n == 1:
        raw = generator(m, qprec)
    elif n == 2 and m > 4:
        raw = tilde(m - 3) * generator(3, qprec) - tilde(m - 4) * generator(4, qprec) - tilde(m)
    elif n == 2:
        raw = psi2_variant(m, qprec, "B")
    elif n == m:
        raw = polynomial_form(GEN(1) ** m, qprec)
    elif n == m - 1:
        raw = polynomial_form(GEN(1) ** (m - 2) * GEN(2), qprec)
    else:
        raw = generator(3, qprec) * old_basis(m - 3, n - 1, qprec, memo)
    current = raw
    for j in range(n - 1, 0, -1) if n >= 3 else ():
        coeff = current.q_row(0).get(4 * j, 0)
        if j == 1:
            coeff //= m // gcd(12, m)
        if coeff:
            current = current - coeff * old_basis(m, j, qprec, memo)
    memo[m, n] = current
    return current


@pytest.mark.parametrize("orders", [3, 6, 8])
def test_basis_equals_the_sequential_hermite_chain(orders):
    """Every psi_m^(n), m <= 12: terms, q-precision and polynomial."""
    qprec, memo = 24 * orders, {}
    for m in range(1, 13):
        for n in range(1, m + 1):
            got, want = basis_psi(m, n, qprec), old_basis(m, n, qprec, memo)
            assert got.series == want.series and got.poly == want.poly, (m, n)
            assert (got.weight2, got.index2) == (want.weight2, want.index2)


def test_basis_makes_no_form_subtraction(monkeypatch):
    """The basis is reduced on its q**0 row and each element built in one
    pass: no JacobiForm.__sub__ call."""
    clear_stores()
    subtractions = []
    sub = JacobiForm.__sub__
    monkeypatch.setattr(JacobiForm, "__sub__", lambda a, b: subtractions.append(1) or sub(a, b))
    for m in range(1, 16):
        for n in range(1, m + 1):
            basis_psi(m, n, 48)
    assert subtractions == []
    clear_stores()


@st.composite
def combination_parts(draw):
    """Parts (form, x) of one index: q-precisions apart (or None), some
    forms without a polynomial, scalars 0 and +-1 among them, and at times
    the parts again with -x, which cancels the sum to nothing."""
    m = draw(st.integers(1, 3))
    keys = st.tuples(st.integers(0, 4).map(lambda n: 24 * n), st.integers(-5, 5).map(lambda l: 4 * l))
    polys = st.one_of(st.none(), st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * 4), st.integers(-5, 5), max_size=3).map(GeneratorPolynomial))
    parts = [
        (JacobiForm(Series(DEN2, draw(st.dictionaries(keys, st.integers(-50, 50), max_size=12)),
                           draw(st.one_of(st.none(), st.integers(1, 5).map(lambda n: 24 * n)))),
                    0, 2 * m, draw(polys)),
         draw(st.integers(-3, 3)))
        for _ in range(draw(st.integers(0, 4)))
    ]
    if draw(st.booleans()):
        parts += [(f, -x) for f, x in parts]
    return m, parts, draw(st.one_of(st.none(), st.integers(1, 5).map(lambda n: 24 * n)))


@given(combination_parts())
@settings(max_examples=150, deadline=None)
def test_combination_equals_sequential_sums(case):
    """_combination(parts, m, qprec) equals the zero form at qprec plus
    each x f in turn by JacobiForm + and *: terms, q-precision and
    polynomial (None as soon as one part has none)."""
    m, parts, qprec = case
    want = JacobiForm._trusted(Series.zero(DEN2, qprec), 0, 2 * m, GeneratorPolynomial())
    for f, x in parts:
        want = want + f * x
    got = _combination(parts, m, qprec)
    assert got.series == want.series and got.poly == want.poly
    assert (got.weight2, got.index2) == (0, 2 * m)


def test_polynomial_reduction_keeps_the_form():
    """Reducing modulo 4 Phi4 = Phi1 Phi3 - Phi2^2 leaves no monomial with
    both Phi1 and Phi3, and the same form; ``divide`` divides the reduction
    when self does not divide, and gives None when neither does."""
    rng = random.Random(24)
    for _ in range(20):
        poly = random_form(rng, 24).poly
        reduced = poly._reduced()
        assert not any(k[0] and k[2] for k in reduced.terms)
        assert polynomial_form(reduced, 48).series == polynomial_form(poly, 48).series
    relation = GEN(1) * GEN(3) - GEN(2) ** 2
    assert relation.divide(4) == GEN(4)
    assert (relation * 2).divide(2) == relation
    assert (relation + GEN(4)).divide(4) is None


@pytest.mark.parametrize("text", ["Phi1^24", "Phi3^8", "Phi1^21*Phi3 - 5*Phi2^12"])
def test_decompose_roundtrip_at_index_24(text):
    """At index 24 psi^(1) comes from the ladder's d = 12 row, and the
    basis polynomials from the reduction modulo 4 Phi4 = Phi1 Phi3 - Phi2^2."""
    poly = parse_generator_polynomial(text)
    form = polynomial_form(poly, 24 * 6)
    dec = decompose(form)
    assert polynomial_form(dec.poly, 24 * 6).series == form.series


def test_psi_05_1_row():
    assert basis_psi(5, 1, 48).q_row(0) == {4: 5, 0: 2, -4: 5}


def test_residuals_on_generators_and_basis():
    for m in (1, 2, 3, 4):
        assert linear_residuals(generator(m, 72)) == (0, 0), m
    for m in range(1, 13):
        for n in range(1, m + 1):
            assert linear_residuals(basis_psi(m, n, 72)) == (0, 0), (m, n)


def fraction_residuals(form):
    """The two linear residuals summed term by term in Fractions: the route
    linear_residuals replaced."""
    m = Fraction(form.index2, 2)
    row0, row1 = form.q_row(0), form.q_row(1)
    s0 = sum(row0.values())
    r1 = m * s0 - 6 * sum(Fraction(l4, 4) ** 2 * c for l4, c in row0.items())
    r2 = 24 * m * s0 - sum((m - 6 * Fraction(l4, 4) ** 2) * c for l4, c in row1.items())
    return r1, r2


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_residuals_equal_the_fraction_sums(data):
    """On random q**0 and q**1 rows of any index, not only on forms, so
    that nonzero residuals are compared too."""
    index2 = data.draw(st.integers(0, 24))
    l4 = st.integers(-12, 12).map(lambda j: 4 * j + 2 * (index2 % 2))
    terms = data.draw(st.dictionaries(st.tuples(st.sampled_from([0, 24]), l4),
                                      st.integers(-10 ** 6, 10 ** 6), max_size=12))
    form = JacobiForm(Series(DEN2, terms, 48), 0, index2)
    assert linear_residuals(form) == fraction_residuals(form)


def test_hecke_tminus2_identity():
    qp = 24 * 4
    lhs = hecke_tminus(generator(1, 2 * qp + 24), 2) - 2 * generator(2, qp)
    p1, p2 = generator(1, qp), generator(2, qp)
    assert lhs.truncate(qp).same_terms(p1 * p1 - 20 * p2)


def test_hecke_tminus3_gives_psi33():
    qp = 24 * 4
    lhs = hecke_tminus(generator(1, 3 * qp + 24), 3) - 3 * generator(3, qp)
    assert lhs.truncate(qp).same_terms(basis_psi(3, 3, qp))


def hecke_t0_2_by_norms(form):
    """T_0(2) from a dict {norm: coefficient} of every term, each norm's
    q-order found by a search over l: an oracle independent of the
    theta-decomposition table."""
    orders = form.qprec_orders()
    table = {8 * (nq // 24) - (ly // 4) ** 2: c for (nq, ly), c in form.series.terms.items()}

    def g(x):
        rep = next(((x + l * l) // 8 for l in range(4) if (x + l * l) % 8 == 0), None)
        if x != int(x) or rep is None or rep < 0:
            return 0
        assert rep < orders
        return table.get(int(x), 0)

    orders_out = next(o for o in range(orders + 1) if 4 * o >= orders)
    out = {}
    for n in range(orders_out):
        for l in range(-isqrt(8 * n + 4), isqrt(8 * n + 4) + 1):
            norm = 8 * n - l * l
            out[(24 * n, 4 * l)] = (8 * g(4 * norm) + 2 * kronecker(-norm, 2) * g(norm)
                                    + g(Fraction(norm, 4)))
    return JacobiForm(Series(DEN2, out, 24 * orders_out), 0, 4)


def test_hecke_t0_2_norm_determined():
    out = hecke_t0_2(generator(2, 24 * 10))
    assert (out.weight2, out.index2) == (0, 4)
    classes = list(out.theta_table().classes())
    assert classes
    norms = {}
    assert all(norms.setdefault(d, c) == c for (d, _), c in classes)


@pytest.mark.parametrize("name, orders", [("phi02", o) for o in (1, 2, 5, 9, 10, 13)]
                         + [("psi_A", 12)])
def test_hecke_t0_2_equals_the_norm_scan(name, orders):
    form = generator(2, 24 * orders) if name == "phi02" else psi2_variant(2, 24 * orders, "A")
    out = hecke_t0_2(form)
    assert out == hecke_t0_2_by_norms(form)
    assert out.qprec_orders() == (orders - 1) // 4 + 1


def test_specialize_torsion_alpha():
    alpha = specialize_torsion(generator(1, 24 * len(ALPHA_COEFFS)), 2)
    assert [alpha.coeff((24 * n, 0)) for n in range(len(ALPHA_COEFFS))] == ALPHA_COEFFS


def test_xi06_leading_term():
    xi = xi06(QP)
    assert min(xi.series.terms)[0] == 24  # first term at q^1
    assert xi.q_row(0) == {}


def test_phi_threehalf_square_is_phi03():
    f = phi_threehalf(QP)
    assert (f * f).series.same_terms(generator(3, QP).series)


@given(st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=25, deadline=None)
def test_residuals_on_random_polynomials(seed):
    assert linear_residuals(random_form(random.Random(seed), 72)) == (0, 0)


def test_hecke_tminus_on_exact_form():
    """A truncation made exact is refused: through the index reduction it
    would give terms the truncation lacks (phi01 at 9 orders, T_-(3) at
    q**24 y**16 reads c(8, 0) through the class (32, 0))."""
    phi1 = generator(1, 24 * 9)
    exact = JacobiForm(Series(DEN2, phi1.series.terms, None), 0, 2)
    for run in (lambda: hecke_tminus(exact, 3),
                lambda: hecke_tminus(JacobiForm(Series.const(1, DEN2), 0, 2), 6)):
        with pytest.raises(ValidationError, match="finite q-precision"):
            run()


def test_table_readers_refuse_exact_and_index_0_forms():
    phi2 = generator(2, 24 * 6)
    exact = JacobiForm(Series(DEN2, phi2.series.terms, None), 0, 4)
    index0 = unit_form(24 * 3)
    for run in (lambda: hecke_t0_2(exact), lambda: humbert_multiplicity(exact, 0, 1),
                lambda: hecke_tminus(index0, 2), lambda: humbert_multiplicity(index0, 0, 1)):
        with pytest.raises(ValidationError, match="positive index and a finite q-precision"):
            run()


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_tminus_rows_equal_the_term_scan(data):
    """Whole and windowed T_-(m) images from the theta-decomposition table
    equal the per-term scan, which does not use the table: the table's
    rows, one list per q-order N over the weak band |L| <= tm + 2N, read
    back term by term, and the Series hecke_tminus reads off them."""
    index = data.draw(st.integers(1, 4))
    poly = {key: data.draw(st.integers(-3, 3)) for key in index_monomials(index)}
    poly = GeneratorPolynomial(poly) or GeneratorPolynomial({index_monomials(index)[0]: 1})
    orders = data.draw(st.integers(1, 10))
    form = data.draw(st.sampled_from([
        polynomial_form(poly, 24 * orders),
        polynomial_form(poly, 24 * orders).double_z(),
        phi_threehalf(24 * orders).double_z(),
    ]))
    m = data.draw(st.integers(1, 6))
    want = hecke_tminus_scan(form, m)
    assert hecke_tminus(form, m) == want
    top = data.draw(st.integers(-1, (orders - 1) // m))
    assert tminus_rows_read_back(form, m, top) == {
        k: c for k, c in want.series.terms.items() if k[0] <= 24 * top}


def tminus_rows_read_back(form, m, top):
    """The terms {(24N, 4L): c} of the rows ThetaTable.tminus(m, top),
    each row asserted to span the weak band of index tm."""
    rows, tm = form.theta_table().tminus(m, top), form.index2 // 2 * m
    assert [len(row) for row in rows] == [2 * (tm + 2 * n) + 1 for n in range(top + 1)]
    return {(24 * n, 4 * (u - tm - 2 * n)): c for n, row in enumerate(rows)
            for u, c in enumerate(row) if c}


@pytest.mark.parametrize("form", [generator(2, 24 * 5), generator(4, 24 * 4), phi_threehalf(24 * 6),
                                  phi_threehalf(24 * 7).double_z()])
def test_classes_are_the_terms_by_class(form):
    """ThetaTable.classes yields each class a term meets once, with the
    D that its list index stands for (a half-integral index read through
    z -> 2z)."""
    table = form.theta_table()
    t, unit = table.t, 2 if form.index2 % 2 else 4
    classes = list(table.classes())
    assert len(classes) == len(dict(classes)) and dict(classes) == {
        (4 * t * (nq // 24) - (ly // unit) ** 2, ly // unit % (2 * t)): c
        for (nq, ly), c in form.series.terms.items()}


@pytest.mark.parametrize("m", range(1, 7))
def test_tminus_rows_read_classes_below_q_order_0_as_0(m):
    """At index 6 a read can meet a class whose lowest representative sits
    at q-order -1, such as (D, l mod 12) = (-24, 0), read by T_-(1) at
    q^5 y^12; no term has such a class, so it reads 0."""
    form = phi_threehalf(24 * 13).double_z()
    table = form.theta_table()
    assert table.t == 6 and table.coeff(-24, 12) == 0
    top = 12 // m
    assert tminus_rows_read_back(form, m, top) == hecke_tminus_scan(form, m).series.terms


def test_table_precision_names_the_class():
    table = generator(2, 24 * 3).theta_table()
    assert (table.coeff(-1, 1), table.coeff(0, 0), table.coeff(-1, 3)) == (1, 4, 1)  # y + 4 + 1/y
    assert table.coeff(-2, 0) == table.coeff(-8, 0) == 0  # no class: D != -l**2 mod 8; n0 < 0
    with pytest.raises(PrecisionError, match=re.escape(
            "class (D, l mod 4) = (23, 1) sits at q-order 3, which reads 4 q-orders "
            "of the input form; it has 3")):
        table.coeff(23, 5)
    with pytest.raises(PrecisionError, match=r"\(D, l mod 4\) = \(24, 0\) sits at q-order 3"):
        table.tminus(3, 1)


# ---- evaluation of generator polynomials -------------------------------------


def evaluate_per_monomial(poly, values):
    """Each monomial built from scratch and added in key order: the route
    GeneratorPolynomial.evaluate replaced."""
    result = None
    for key, coeff in sorted(poly.terms.items()):
        term = None
        for i, e in enumerate(key):
            for _ in range(e):
                term = values[i] if term is None else term * values[i]
        term = coeff if term is None else term * coeff
        result = term if result is None else result + term
    return result


def index_monomials(m):
    return [
        (e1, e2, e3, e4)
        for e2 in range(m // 2 + 1)
        for e3 in range(m // 3 + 1)
        for e4 in range(m // 4 + 1)
        for e1 in [m - 2 * e2 - 3 * e3 - 4 * e4]
        if e1 >= 0
    ]


@st.composite
def phi_polynomial(draw, homogeneous):
    """A random Phi-polynomial of index <= 8, sometimes plus a multiple of
    the relation 4 Phi4 - Phi1 Phi3 + Phi2^2, whose terms cancel on the
    generators; a non-homogeneous one has a constant term."""
    m = draw(st.integers(0, 8))
    keys = index_monomials(m)
    if not homogeneous:
        keys += [k for i in range(m) for k in index_monomials(i)]
    coeffs = st.integers(-9, 9)
    poly = GeneratorPolynomial({k: draw(coeffs) for k in keys if draw(st.booleans())})
    if not homogeneous:
        poly = poly + GeneratorPolynomial.const(draw(coeffs.filter(bool)))
    if m >= 4 and draw(st.booleans()):
        relation = parse_generator_polynomial("4*Phi4 - Phi1*Phi3 + Phi2^2")
        cofactor = {draw(st.sampled_from(index_monomials(m - 4))): draw(coeffs)}
        poly = poly + relation * GeneratorPolynomial(cofactor)
    return poly


def degree_two_prefixes(poly):
    words = [tuple(i for i, e in enumerate(key) for _ in range(e)) for key in poly.terms]
    return len({w[:n] for w in words for n in range(2, len(w) + 1)})


def horner_products(terms):
    """Series products of nested Horner on {exponent tuple: coefficient}:
    for every group of keys sharing their leading exponents, one product by
    the next generator per step down from the group's top exponent, less the
    first step when the top's remaining exponents are all 0 (a scaling)."""
    arity = len(next(iter(terms), ()))
    if not arity:
        return 0
    groups = {}
    for key, coeff in terms.items():
        groups.setdefault(key[0], {})[key[1:]] = coeff
    top = max(groups)
    scaling = top > 0 and set(groups[top]) == {(0,) * (arity - 1)}
    return top - scaling + sum(horner_products(group) for group in groups.values())


@contextlib.contextmanager
def counted_products():
    """A list that grows by one for each Series x Series product made
    inside the block."""
    products = []
    multiply = Series.__mul__

    def counted(a, b):
        if isinstance(b, Series):
            products.append(1)
        return multiply(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Series, "__mul__", counted)
        yield products


@given(phi_polynomial(homogeneous=True))
@settings(max_examples=60, deadline=None)
def test_evaluate_walk_equals_per_monomial_evaluation(poly):
    """Horner's Series products, on the generators' series: values that
    evaluate_packed, which takes only JacobiForms, leaves to Horner."""
    gens = tuple(generator(i, 24 * 3).series for i in (1, 2, 3, 4))
    with counted_products() as products:
        got = poly.evaluate(gens)
    want = evaluate_per_monomial(poly, gens)
    assert len(products) == horner_products(poly.terms)
    assert got == want  # a Series, a constant's int, or None when empty


@given(phi_polynomial(homogeneous=False), phi_polynomial(homogeneous=True), st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_polynomial_ring_results_pass_the_public_check(p, q, k):
    """Sums, differences, negation, products and integer scaling of valid
    polynomials skip the public constructor's check; their results pass it."""
    for result in (p + q, p - q, p - p, -p, p * q, p * k, k * q, p * 0):
        assert GeneratorPolynomial(result.terms) == result
        assert all(result.terms.values())


def test_evaluate_at_full_index_12_takes_61_products():
    """Every monomial of index 12: 61 Horner products, where sharing
    monomial prefixes took 91 and building each monomial alone 194.  On
    the generators' series, which evaluate_packed does not take."""
    poly = GeneratorPolynomial({key: 1 for key in index_monomials(12)})
    gens = tuple(generator(i, 24).series for i in (1, 2, 3, 4))
    with counted_products() as products:
        got = poly.evaluate(gens)
    assert len(products) == horner_products(poly.terms) == 61
    assert degree_two_prefixes(poly) == 91
    assert got == evaluate_per_monomial(poly, gens)


@given(phi_polynomial(homogeneous=False), st.tuples(*[st.integers(-5, 5)] * 4))
@settings(max_examples=100, deadline=None)
def test_evaluate_walk_equals_per_monomial_evaluation_on_integers(poly, values):
    assert poly.evaluate(values) == evaluate_per_monomial(poly, values)


@st.composite
def phi_polynomial_leaving_generators_unused(draw):
    """A homogeneous phi_polynomial with the monomials of a random set of
    generators dropped: sometimes a constant, sometimes empty."""
    poly = draw(phi_polynomial(homogeneous=True))
    unused = draw(st.sets(st.integers(0, 3), max_size=3))
    return GeneratorPolynomial._trusted(
        {key: c for key, c in poly.terms.items() if not any(key[i] for i in unused)}
    )


@given(phi_polynomial_leaving_generators_unused(),
       st.sampled_from((1, 47, 72, 24 * PACKED_MAX_ORDERS, 24 * PACKED_MAX_ORDERS + 1)))
@settings(max_examples=40, deadline=None)
def test_polynomial_form_equals_evaluate(poly, qp):
    """polynomial_form, on packed q-rows up to PACKED_MAX_ORDERS whole
    orders and on the forms above, equals each monomial built from the
    generators and summed."""
    gens = tuple(generator(i, qp) for i in (1, 2, 3, 4))
    want = evaluate_per_monomial(poly, gens)
    if want is None:  # the empty polynomial has no index
        with pytest.raises(ValidationError, match="zero polynomial has no index"):
            polynomial_form(poly, qp)
        return
    if isinstance(want, int):  # a constant
        want = unit_form(qp) * want
    got = polynomial_form(poly, qp)
    assert got.series == want.series and got.poly == poly
    assert (got.weight2, got.index2) == (want.weight2, want.index2)


@pytest.mark.parametrize("qp", [24 * 16, 24 * (PACKED_MAX_ORDERS + 1)])
def test_polynomial_form_builds_only_the_generators_it_uses(qp):
    """psi_A = Phi1^2 - 20 Phi2 from cold stores builds phi01 and phi02 only,
    and the form carries the polynomial it was given, unchanged."""
    poly = parse_generator_polynomial("Phi1^2 - 20*Phi2")
    terms = dict(poly.terms)
    clear_stores()
    form = polynomial_form(poly, qp)
    assert sorted(generator.store) == [(1,), (2,)]
    assert form.poly is poly and poly.terms == terms


# ---- evaluation on packed q-rows --------------------------------------------


def weak_value(draw, i, qprec):
    """A weak form of index i with a nonzero q**0 row, at qprec: the
    generator, a basis element, or phi01 times a basis element."""
    kind = draw(st.sampled_from(("generator", "basis", "product") if i > 1 else ("generator",)))
    if kind == "generator":
        return generator(i, qprec)
    if kind == "basis":
        return basis_psi(i, draw(st.integers(1, i)), qprec)
    return generator(1, qprec) * basis_psi(i - 1, draw(st.integers(1, i - 1)), qprec)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_packed_evaluation_equals_horner_on_forms(data):
    """evaluate_packed gives what nested Horner on the forms gives: terms,
    qprec, weight, index and polynomial, at 1..PACKED_MAX_ORDERS whole
    orders and at precisions between whole orders."""
    draw = data.draw
    m = draw(st.integers(1, 12))
    keys = draw(st.lists(st.sampled_from(index_monomials(m)), min_size=1, unique=True))
    poly = GeneratorPolynomial({k: draw(st.integers(-9, 9).filter(bool)) for k in keys})
    orders = draw(st.integers(1, PACKED_MAX_ORDERS))
    qprec = 24 * orders - draw(st.sampled_from((0, 0, 1, 5, 23)))
    values = tuple(weak_value(draw, i, qprec) for i in (1, 2, 3, 4))
    want = _horner(poly.terms, values)
    with counted_products() as products:
        got = poly.evaluate(values)
    assert not products  # the packed path took it
    assert got.series == want.series  # terms and qprec
    assert (got.weight2, got.index2, got.poly) == (want.weight2, want.index2, want.poly)


def outside_support(qprec):
    """An index-1 'form' with a term at q y**2, outside |l| <= m + 2n."""
    return JacobiForm(Series(DEN2, {(0, 0): 1, (24, 16): 1}, qprec), 0, 2)


def below_q0(qprec):
    """An index-2 'form' with a term at q**-1, outside n >= 0 though inside
    |l| <= m + 2n."""
    return JacobiForm(Series(DEN2, {(-24, 0): 1, (0, 0): 1}, qprec), 0, 4)


def exact_phi01(qprec):
    return JacobiForm(Series(DEN2, generator(1, qprec).series.terms, None), 0, 2)


GEN = GeneratorPolynomial.generator
# fallback -> (polynomial, values other than the generators at 48): each
# is left to nested Horner on the forms
PACKED_FALLBACKS = {
    "half-integral index": (GEN(1) ** 2, lambda: {0: phi_threehalf(48)}),
    "index 0": (GEN(1) * GEN(2), lambda: {0: unit_form(48)}),
    "term outside the support": (GEN(1) ** 2 * GEN(2), lambda: {0: outside_support(48)}),
    "term below q^0": (GEN(1) * GEN(2), lambda: {1: below_q0(48)}),
    "no q^0 row": (GEN(1) * GEN(2), lambda: {0: xi06(48)}),
    "more than PACKED_MAX_ORDERS rows": (
        GEN(1) * GEN(2),
        lambda: {i: generator(i + 1, 24 * (PACKED_MAX_ORDERS + 1)) for i in range(4)},
    ),
    "mixed precisions": (GEN(1) * GEN(2), lambda: {1: generator(2, 72)}),
    "exact precision": (GEN(1) * GEN(2), lambda: {0: exact_phi01(48)}),
}


@pytest.mark.parametrize("case", sorted(PACKED_FALLBACKS))
def test_packed_evaluation_falls_back_to_horner(case):
    poly, swaps = PACKED_FALLBACKS[case]
    values = [generator(i, 48) for i in (1, 2, 3, 4)]
    for i, value in swaps().items():
        values[i] = value
    values = tuple(values)
    assert evaluate_packed(poly, values) is None
    with counted_products() as products:
        got = poly.evaluate(values)
    assert len(products) == horner_products(poly.terms)
    want = evaluate_per_monomial(poly, values)
    assert got.series == want.series and (got.weight2, got.index2) == (want.weight2, want.index2)


def test_packed_evaluation_leaves_non_homogeneous_polynomials_to_horner():
    values = tuple(generator(i, 48) for i in (1, 2, 3, 4))
    for poly in (GEN(1) + GEN(2), GEN(1) * GEN(2) + GEN(1) * GEN(4)):
        assert evaluate_packed(poly, values) is None
        with pytest.raises(ValidationError, match="equal weight and index"):
            poly.evaluate(values)


def test_packed_evaluation_leaves_constants_to_horner():
    values = tuple(generator(i, 48) for i in (1, 2, 3, 4))
    assert evaluate_packed(GeneratorPolynomial.const(5), values) is None
    assert GeneratorPolynomial.const(5).evaluate(values) == 5


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
    # an empty window still divides by xi06 past its leading q**1 term
    assert divide_by_xi06(JacobiForm(Series.zero(DEN2, 0), 0, 16)).series == Series.zero(DEN2, -24)
    with pytest.raises(ValidationError, match="needs a form with a qprec"):
        divide_by_xi06(JacobiForm(Series(DEN2, prod.series.terms, None), 0, 16))


def taylor_fraction_oracle(form, count):
    """The Taylor coefficients T_j of exp(2*m*G2*w**2) * phi along
    w = 2*pi*i*z, summed over Q as {nq: Fraction} dicts:
    T_j = sum_k (2*m*G2)**k / k! * sum f(n, l) l**(j-2k) / (j-2k)! q**n."""
    qprec = form.series.qprec
    m = form.index2 // 2

    def mul(a, b):
        out = {}
        for i, x in a.items():
            for j, y in b.items():
                if i + j < qprec:
                    out[i + j] = out.get(i + j, 0) + x * y
        return out

    g2 = {0: Fraction(-1, 24)}
    g2.update({24 * n: Fraction(sigma1(n)) for n in range(1, (qprec + 23) // 24)})
    factor = {nq: 2 * m * c for nq, c in g2.items()}
    powers = [{0: Fraction(1)}]
    while 2 * len(powers) < count:
        powers.append(mul(powers[-1], factor))
    moments = []
    for j in range(count):
        moment = {}
        for (nq, ly), c in form.series.terms.items():
            moment[nq] = moment.get(nq, 0) + Fraction(c) * Fraction(ly, 4) ** j / factorial(j)
        moments.append(moment)
    out = []
    for j in range(count):
        total = {}
        for k in range(j // 2 + 1):
            for nq, c in mul(powers[k], moments[j - 2 * k]).items():
                total[nq] = total.get(nq, 0) + c / factorial(k)
        out.append(total)
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_taylor_coeffs_match_the_rational_oracle(m):
    form = generator(m, 96)
    got = taylor_coeffs(form, 6)
    for j, (series, want) in enumerate(zip(got, taylor_fraction_oracle(form, 6))):
        scaled = {nq: c * factorial(j) * 12 ** (j // 2) for nq, c in want.items() if c}
        assert all(c.denominator == 1 for c in scaled.values())
        assert series.qprec == 96
        assert series.terms == {(nq, 0): int(c) for nq, c in scaled.items()}
    assert got[0].terms and (got[4].terms or m == 2)  # T_4 of phi02 vanishes


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


def theta_jacobi_product(qprec, y_scale=1):
    """Product form -q**(1/8) y**(-1/2) prod (1-q**(n-1)y)(1-q**n/y)(1-q**n)."""
    rel = qprec - 3
    acc = Series.const(1, DEN2, rel)
    n = 1
    while True:
        lead = 24 * (n - 1)
        if lead >= rel and 24 * n >= rel:
            break
        for key in ((lead, 4 * y_scale), (24 * n, -4 * y_scale), (24 * n, 0)):
            if key[0] >= rel:
                continue
            factor = Series(DEN2, {(0, 0): 1, key: -1}, rel, _clean=True)
            acc = acc * factor
        n += 1
    return acc.shift((3, -2 * y_scale)).scale(-1)


def test_theta_jacobi_product_form_matches_sum():
    qp = 24 * 8
    assert theta_jacobi(qp).same_terms(theta_jacobi_product(qp), 24 * 6)


def theta_scaled(qprec, ly_step):
    """The odd theta with y -> y**(ly_step/4), on the three-variable lattice:
    sum_m (-4/m) q**(3 m^2 / 24) y**(m * ly_step / 4)."""
    terms = {}
    bound = isqrt(max(qprec, 0) // 3) + 2
    for m in range(-bound, bound + 1):
        c = kronecker(-4, m)
        if c and 3 * m * m < qprec:
            terms[(3 * m * m, m * ly_step, 0)] = c
    return Series(DEN3, terms, qprec)


def test_theta_jacobi_half_integral_scale():
    qp = 24 * 8
    assert lift_to_three(theta_jacobi(qp, y_scale=Fraction(3, 2))) == theta_scaled(qp, 3)
    with pytest.raises(ValidationError):
        theta_jacobi(qp, y_scale=Fraction(1, 4))


def test_bad_index_row_rejected():
    from jacobilift.jacobi import JacobiForm
    from jacobilift.series import DEN2, Series

    with pytest.raises(ValidationError):
        JacobiForm(Series(DEN2, {(0, 2): 1}, 24), 0, 2)  # half-int y for int index


@pytest.mark.parametrize("key, index2, says", [
    ((12, 0), 2, "q-exponents must be integral"),
    ((0, 4), 3, "invalid for index 3/2"),  # integral y for half-integral index
])
def test_public_constructor_rejects_bad_keys(key, index2, says):
    with pytest.raises(ValidationError, match=says):
        JacobiForm(Series(DEN2, {key: 1}, 48), 0, index2)


@given(st.integers(0, 2**32), st.integers(1, 96))
@settings(max_examples=30, deadline=None)
def test_form_difference_equals_sum_with_negation(seed, qprec):
    """f - g at equal or mixed precisions equals the sum with -g, series
    and polynomial; forms of another type are refused."""
    rng = random.Random(seed)
    f = random_form(rng, 72)
    g = polynomial_form(
        GeneratorPolynomial({key: rng.randint(-9, 9) or 1 for key in index_monomials(f.index2 // 2)}),
        qprec,
    )
    for a, b in ((f, g), (g, f), (f, f)):
        diff, want = a - b, a + (-b)
        assert diff == want and diff.poly == want.poly
    with pytest.raises(ValidationError, match="equal weight and index"):
        f - generator(1, 72) * generator(1, 72) * f


@given(st.integers(0, 2**32), st.integers(-9, 9), st.integers(0, 72))
@settings(max_examples=30, deadline=None)
def test_ring_results_pass_the_public_check(seed, k, cut):
    """Sums, differences, negation, products, scaling and truncation of
    valid forms skip the key check; their results pass it."""
    rng = random.Random(seed)
    f = random_form(rng, 72)
    g = polynomial_form(
        GeneratorPolynomial({key: rng.randint(1, 9) for key in index_monomials(f.index2 // 2)}), 72
    )
    half = rng.choice([phi_threehalf(72), phi_weak_weight_minus1(72)])
    results = [f + g, f - g, -half, f * g, f * half, half * half, f * k, k * half,
               f.truncate(cut), half.truncate(cut), (f * 6).scale_div(3)]
    for form in results:
        assert JacobiForm(form.series, form.weight2, form.index2, form.poly) == form


def test_scale_div_names_a_coefficient_it_cannot_divide():
    """scale_div divides by Series.exact_div, so an inexact coefficient is
    an InexactDivisionError naming it, its key and the divisor."""
    phi = generator(1, 48) * 2
    assert phi.scale_div(-2) == -generator(1, 48)
    with pytest.raises(InexactDivisionError, match=r"coefficient -?\d+ at \(\d+, -?\d+\) is not "
                       "divisible by 4"):
        phi.scale_div(4)
