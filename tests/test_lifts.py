"""Siegel lifts: exponential products, additive lifts, SQEG, Humbert data."""

import re
from fractions import Fraction
from math import comb, gcd, isqrt

import pytest
from conftest import hecke_tminus_scan
from hypothesis import given, settings, strategies as st

from jacobilift import jacobi, lifts, series
from jacobilift.errors import InexactDivisionError, PrecisionError, ValidationError
from jacobilift.genus import ENRIQUES, K3, CYInvariants, elliptic_genus
from jacobilift.jacobi import (
    JacobiForm,
    generator,
    hecke_tminus,
    phi_threehalf,
    psi2_variant,
    theta_jacobi,
)
from jacobilift.lifts import (
    ADDITIVE_LIFTS,
    _input_qprec,
    _prefactor_key,
    arithmetic_lift,
    exp_lift,
    exp_lift_homomorphic,
    hodge_anomaly,
    humbert_multiplicity,
    lift_window_for,
    siegel_omega_half_shift,
    sqeg,
    symmetric_product_genus,
)
from jacobilift.modular import kronecker
from jacobilift.series import DEN2, DEN3, Series
from jacobilift.verify import (
    _even_characteristics,
    _siegel_theta_constant,
    _window_equal,
    _window_terms,
)


def test_exp_lift_prefactor_and_metadata():
    ss = exp_lift(generator(1, 24 * 8), 49, 49)
    assert ss.weight2 == 10  # c(0,0) = 10
    assert ss.index_t == 1
    assert min(k[0] for k in ss.series.terms) == 12  # q^(1/2) prefactor
    assert ss.series.coeff((12, 2, 12)) == 1


def test_window_equal_refuses_empty_window():
    ss = exp_lift(generator(1, 24 * 8), 49, 49)  # lowest term at q^(1/2)
    assert _window_equal(ss.series, ss.series, 12, 12)
    assert not _window_equal(ss.series, Series.zero(DEN3, 49), 12, 12)
    with pytest.raises(PrecisionError, match="holds no term"):
        _window_equal(ss.series, ss.series, 11, 48)


def test_exp_lift_rejects_nonzero_weight():
    from jacobilift.jacobi import phi_weak_weight_minus1

    with pytest.raises(ValidationError):
        exp_lift(phi_weak_weight_minus1(96), 49, 49)


def test_exp_lift_rejects_a_q0_row_odd_in_y():
    form = JacobiForm(Series(DEN2, {(0, 4): 1}, 24 * 4), 0, 2)
    with pytest.raises(ValidationError, match="even in y"):
        exp_lift(form, 49, 49)


def test_exp_lift_precision_contract():
    with pytest.raises(PrecisionError):
        exp_lift(generator(2, 24), 100, 400)


def test_omega_half_shift_equals_gaussian_pairs():
    """Delta5 at q,s <= 3 shifted by omega -> omega + 1/2, against each
    term times i**(ms/12) summed as Gaussian pairs (re, im)."""
    qp, sp, inq = lift_window_for(generator(1, 24), 3, 3)
    d5 = exp_lift(generator(1, inq), qp, sp)
    powers = ((1, 0), (0, 1), (-1, 0), (0, -1))
    want = {}
    for key, c in d5.series.terms.items():
        assert key[2] % 12 == 0
        re, im = powers[key[2] // 12 % 4]
        want[key] = (c * re, c * im)
    k, shifted = siegel_omega_half_shift(d5)
    assert k == 1  # every s-exponent of Delta5 lies in 1/2 + Z
    assert shifted.series.qprec == d5.series.qprec and len(want) > 20
    got = {key: (c, 0) if k == 0 else (0, c) for key, c in shifted.series.terms.items()}
    assert got == want
    assert (shifted.weight2, shifted.index_t) == (d5.weight2, d5.index_t)


def test_omega_half_shift_refuses_mixed_s_classes():
    whole = Series(DEN3, {(0, 0, 0): 1, (0, 0, 24): 2, (0, 0, 48): 3}, None)
    k, shifted = siegel_omega_half_shift(lifts.SiegelSeries(whole, 0, 1, 1))
    assert k == 0 and shifted.series.terms == {(0, 0, 0): 1, (0, 0, 24): -2, (0, 0, 48): 3}
    for terms in ({(0, 0, 0): 1, (0, 0, 12): 1}, {(0, 0, 6): 1}):
        with pytest.raises(ValidationError, match="one class"):
            siegel_omega_half_shift(lifts.SiegelSeries(Series(DEN3, terms, None), 0, 1, 1))


def test_negative_ywindow_is_refused():
    calls = [
        lambda: exp_lift(generator(1, 24 * 8), 49, 49, ywindow=-4),
        lambda: lifts.e_form(K3, 25, 25, ywindow=-1),
        lambda: hodge_anomaly(K3, 49, 49, ywindow=-1),
        lambda: lifts.factorization_product(K3, 49, 49, ywindow=-1),
        lambda: exp_lift_homomorphic([(generator(1, 24 * 8), 2)], 73, 73, ywindow=-1),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="ywindow must be >= 0"):
            call()


def test_theta_constant_trivial_characteristic():
    theta = _siegel_theta_constant((0, 0), (0, 0), 49, 49)
    assert theta.coeff((0, 0, 0)) == 1


def test_theta_constant_rejects_odd():
    with pytest.raises(ValidationError):
        _siegel_theta_constant((1, 0), (1, 0), 25, 25)


def test_even_characteristics_count():
    assert len(_even_characteristics()) == 10


def test_delta_half_integral_and_antisymmetric():
    """Delta_{1/2} = -(1/2) Theta_{(1,1),(1,1)}: every coefficient of the
    theta constant is even, and Delta_{1/2} starts at q^(1/8) s^(1/8)
    (y^(1/4) - y^(-1/4))."""
    theta = _siegel_theta_constant((1, 1), (1, 1), 49, 49)
    assert all(c % 2 == 0 for c in theta.terms.values())
    assert theta.coeff((3, 1, 3)) == -2
    assert theta.coeff((3, -1, 3)) == 2


@pytest.fixture(scope="module")
def k3_sqeg():
    chi = elliptic_genus(K3, qprec=24 * 14)
    return chi, sqeg(chi, 97, 73)


def test_sqeg_k3_y1_rows(k3_sqeg):
    _, z = k3_sqeg
    rows = {}
    for (nq, ly, ms), c in z.terms.items():
        rows[(ms, nq)] = rows.get((ms, nq), 0) + c
    rows = {k: v for k, v in rows.items() if v}
    # prod (1-p^n)^{-24}: 1, 24, 324, 3200 (partition convolution)
    assert rows == {(0, 0): 1, (24, 0): 24, (48, 0): 324, (72, 0): 3200}


def test_symmetric_product_genus_matches_sqeg_slice(k3_sqeg):
    chi, z = k3_sqeg
    s2 = symmetric_product_genus(chi, 2, 49)
    assert z.s_slice(48).same_terms(s2, 48)


def test_humbert_zero_form():
    zero = JacobiForm(Series.zero((24, 4), 24 * 6), 0, 4)
    assert humbert_multiplicity(zero, 0, 1) == 0


# ---- the product route, kept as the oracle -----------------------------------


def gen_binomial(e, j):
    """C(e, j) for any integer e and j >= 0."""
    if e >= 0:
        return comb(e, j)
    return (-1) ** j * comb(-e + j - 1, j)


def binomial_factor(key, exponent, qprec, sprec=None, ybound=None):
    """(1 - monomial(key)) ** exponent below qprec and sprec; a pure-y
    monomial with a negative exponent expands one-sidedly up to ybound."""
    nq, ly, ms = key
    bounds = [(qprec - 1) // nq] if nq else []
    if ms:
        bounds.append((sprec - 1) // ms)
    if not bounds:
        if exponent < 0 and ybound is None:
            raise PrecisionError("a pure-y factor with a negative exponent needs a ybound")
        bounds.append(exponent if exponent >= 0 else ybound // abs(ly))
    terms = {(nq * j, ly * j, ms * j): (-1) ** j * gen_binomial(exponent, j)
             for j in range(min(bounds) + 1)}
    return Series(DEN3, {k: c for k, c in terms.items() if c}, qprec)


def product_expand(factors, qprec, sprec=None, ybound=None):
    """prod (1 - monomial(key)) ** exponent over (key, exponent) pairs,
    clipped to the windows after each factor."""
    acc = Series.const(1, DEN3, qprec)
    for key, exponent in factors:
        if exponent:
            acc = acc * binomial_factor(key, exponent, qprec, sprec=sprec, ybound=ybound)
            if ybound is not None:
                acc = acc.clip_y(ybound)
            if sprec is not None:
                acc = acc.truncate_s(sprec)
    return acc


def product_exp_lift(form, qprec, sprec, ywindow=None):
    """exp_lift as the whole Borcherds product, one binomial factor at a
    time: n = m = 0 with l < 0, then m = 0 with n > 0, then m > 0."""
    t = form.index2 // 2
    pref = _prefactor_key(form)
    pq, ps = qprec - pref[0], sprec - pref[2]
    q0 = form.q_row(0)
    factors = [((0, ly, 0), c) for ly, c in q0.items() if ly < 0]
    for n in range(1, (pq - 1) // 24 + 1):
        factors += [((24 * n, ly, 0), c) for ly, c in q0.items()]
    for m in range(1, (ps - 1) // (24 * t) + 1):
        for n in range(0, (pq - 1) // 24 + 1):
            factors += [((24 * n, ly, 24 * t * m), c) for ly, c in form.q_row(n * m).items()]
    return product_expand(factors, pq, sprec=ps, ybound=ywindow).shift(pref)


def product_sqeg(form, qprec, pprec):
    """sqeg as the whole product prod (1 - q^m y^l p^n)^(-f(mn, l))."""
    factors = []
    for n in range(1, (pprec - 1) // 24 + 1):
        for m in range(0, (qprec - 1) // 24 + 1):
            factors += [((24 * m, ly, 24 * n), -c) for ly, c in form.q_row(m * n).items()]
    return product_expand(factors, qprec, sprec=pprec)


def product_hodge_anomaly(inv, qprec, ywindow):
    """hodge_anomaly with eta = q^(1/24) prod (1 - q^n) and
    theta(tau, lam z) = q^(1/8) y^(lam/2) prod (1 - q^n)(1 - q^n y^lam)(1 - q^(n-1) y^-lam)
    expanded one binomial factor at a time, with the exponents read off the
    Hodge data: theta(tau, (d/2 - j) z)^(-chi'_j) for 0 <= j < d/2.
    Returns the anomaly and the key of its leading monomial."""
    chip = [(-1) ** j * c for j, c in enumerate(inv.chi)]
    eta = (inv.euler - (3 * chip[inv.d // 2] if inv.d % 2 == 0 else 0)) // 2
    thetas = {Fraction(inv.d, 2) - j: -chip[j] for j in range((inv.d + 1) // 2)}
    lead = tuple(int(v) for v in (
        eta + 3 * sum(thetas.values()),
        sum(2 * lam * c for lam, c in thetas.items()),
        sum(12 * lam * lam * c for lam, c in thetas.items()),
    ))
    orders = range(1, (qprec - lead[0] - 1) // 24 + 1)
    factors = [((24 * n, 0, 0), eta + sum(thetas.values())) for n in orders]
    for lam, c in thetas.items():
        ly = int(4 * lam)
        factors += [((0, -ly, 0), c)] + [((24 * n, -ly, 0), c) for n in orders]
        factors += [((24 * n, ly, 0), c) for n in orders]
    return product_expand(factors, qprec - lead[0], ybound=ywindow).shift(lead), lead


LIFT_INPUTS = {
    "phi01": lambda qp: generator(1, qp),
    "phi02": lambda qp: generator(2, qp),
    "phi03": lambda qp: generator(3, qp),
    "phi04": lambda qp: generator(4, qp),
    "psi_A": lambda qp: psi2_variant(2, qp, variant="A"),
}


@pytest.mark.parametrize("window", [(2, 2), (4, 1)])
@pytest.mark.parametrize("name", sorted(LIFT_INPUTS))
def test_exp_lift_equals_product(name, window):
    make = LIFT_INPUTS[name]
    qp, sp, inq = lift_window_for(make(24), *window)
    form = make(inq)
    assert exp_lift(form, qp, sp).series == product_exp_lift(form, qp, sp)


SQEG_GENERA = {
    "K3": K3,
    "CY4(1,4,6,4,1)": CYInvariants(4, (1, 4, 6, 4, 1)),
    "CY3(e=40)": CYInvariants.from_euler(3, 40),
}


@pytest.mark.parametrize("window", [(3, 3), (5, 1)])
@pytest.mark.parametrize("name", sorted(SQEG_GENERA))
def test_sqeg_equals_product(name, window):
    qprec, pprec = 24 * window[0] + 1, 24 * window[1] + 1
    chi = elliptic_genus(SQEG_GENERA[name], qprec=_input_qprec(qprec, pprec))
    assert sqeg(chi, qprec, pprec) == product_sqeg(chi, qprec, pprec)


def test_exp_lift_with_ywindow_equals_product_on_interior():
    """exp_lift(a phi_02 + b psi_A), |a|,|b| <= 2, clips F_0 only, so it may
    differ from the product route near |ly| = 80, never at |ly| <= 12."""
    for a in range(-2, 3):
        for b in range(-2, 3):
            if a == b == 0:
                continue
            probe = JacobiForm(generator(2, 24).series.scale(a)
                               + psi2_variant(2, 24, variant="A").series.scale(b), 0, 4)
            qp, sp, inq = lift_window_for(probe, 3, 3)
            form = JacobiForm(generator(2, inq).series.scale(a)
                              + psi2_variant(2, inq, variant="A").series.scale(b), 0, 4)
            lifted = exp_lift(form, qp, sp, ywindow=80).series
            oracle = product_exp_lift(form, qp, sp, ywindow=80)
            assert lifted.qprec == oracle.qprec
            assert _window_terms(lifted, qp - 1, sp - 1, 12), (a, b)
            assert _window_equal(lifted, oracle, qp - 1, sp - 1, ybound=12), (a, b)


@pytest.mark.parametrize("a, b", [(-2, None), (-1, None), (2, None), (3, None),
                                  (2, 1), (-2, -1), (1, -2), (-1, 2)])
def test_exp_lift_homomorphic_equals_exp_lift_on_its_window(a, b):
    """exp_lift_homomorphic of phi01**a, or of phi02**a psi_A**b, equals
    exp_lift of the sum under one ywindow on every term it returns: q
    below both precisions, and every s-row it keeps.  Both have the same
    weight, index and character order 24/gcd(24, 24A)."""
    if b is None:
        pairs, smax = [(generator(1, 24 * 20), a)], 3
    else:
        pairs, smax = [(generator(2, 24 * 20), a), (psi2_variant(2, 24 * 20, variant="A"), b)], 5
    series = [form.series.scale(e) for form, e in pairs]
    combo = JacobiForm(sum(series[1:], series[0]), 0, pairs[0][0].index2)
    qp, sp, _ = lift_window_for(combo, 3, smax)
    rhs = exp_lift_homomorphic(pairs, qp, sp, ywindow=40)
    lhs = exp_lift(combo, qp, sp, ywindow=40)
    assert (rhs.weight2, rhs.character_order, rhs.index_t) == (
        lhs.weight2, lhs.character_order, lhs.index_t)
    assert lhs.character_order == 24 // gcd(24, _prefactor_key(combo)[0])
    lhs, rhs = lhs.series, rhs.series
    slimit = max(k[2] for k in rhs.terms)
    assert len({k[2] for k in rhs.terms}) >= 2
    assert rhs.qprec == lhs.qprec
    assert _window_equal(lhs, rhs, lhs.qprec - 1, slimit)


def test_exp_lift_homomorphic_keeps_the_q_precision_of_exp_lift():
    """On the 24 pairs of the verify homomorphism check, each pair is lifted
    at qprec - A + A_i, so the product keeps exp_lift's q-precision.  Each
    pair lifted at qprec would keep min_i(qprec - A_i) + A: 13 for
    phi02**-2 psi_A**-1 at (73, 121) (the q,s <= 3,5 case of the test
    above), 73 for (-2, 1) at (85, 97) and 121 for (2, 1) at (109, 145).
    The inputs are those of the check: at least 17 q-orders, and as many
    as exp_lift of the sum reads."""
    for a in range(-2, 3):
        for b in range(-2, 3):
            if a == b == 0:
                continue
            probe = JacobiForm(generator(2, 24).series.scale(a)
                               + psi2_variant(2, 24, variant="A").series.scale(b), 0, 4)
            qp, sp, inq = lift_window_for(probe, 3, 3)
            phi = generator(2, max(inq, 24 * 17))
            psi = psi2_variant(2, max(inq, 24 * 17), variant="A")
            combo = JacobiForm(phi.series.scale(a) + psi.series.scale(b), 0, 4)
            want = exp_lift(combo, qp, sp, ywindow=80).series.qprec
            got = exp_lift_homomorphic([(phi, a), (psi, b)], qp, sp, ywindow=80).series.qprec
            assert got == want == qp, (a, b)


def test_verify_homomorphism_check_compares_every_returned_s_row(monkeypatch):
    """With the first step r_1 of the s-row power's recurrence negated, the s^C
    row of every homomorphic lift is unchanged, so only a check that
    compares the later s-rows it returns can fail."""
    from jacobilift import lifts
    from jacobilift.verify import suite_lifts

    original = lifts._miller

    def negated_first_step(rows, k, count, first, divide, zero=0):
        def flipped(acc, n):
            row = divide(acc, n)
            return -row if n == 1 else row

        return original(rows, k, count, first, flipped, zero)

    monkeypatch.setattr(lifts, "_miller", negated_first_step)
    checks = {c["name"]: c["ok"] for c in suite_lifts()}
    assert checks["exp_lift(a*phi + b*psi) == exp_lift(phi)^a exp_lift(psi)^b, |a|,|b| <= 2"] is False


def test_verify_halves_the_theta_constant_exactly(monkeypatch):
    """Delta_{1/2} is -1/2 Theta_{(1,1),(1,1)}: with one coefficient of that
    theta constant made odd, suite_lifts raises InexactDivisionError naming
    it and its key, where a floor would pass on a wrong Delta_{1/2}."""
    from jacobilift import verify

    original = verify._siegel_theta_constant
    key = min(original((1, 1), (1, 1), 80, 200).terms)

    def one_odd(a, b, qprec, sprec):  # only the Delta_{1/2} theta at (80, 200)
        theta = original(a, b, qprec, sprec)
        bump = (a, b, qprec, sprec) == ((1, 1), (1, 1), 80, 200)
        return theta + Series(DEN3, {key: 1}, None) if bump else theta

    monkeypatch.setattr(verify, "_siegel_theta_constant", one_odd)
    odd = one_odd((1, 1), (1, 1), 80, 200).terms[key]
    with pytest.raises(InexactDivisionError,
                       match=re.escape(f"coefficient {odd} at {key} is not divisible by 2")):
        verify.suite_lifts()


def test_exp_lift_homomorphic_refuses_a_pair_past_sprec():
    """2 phi02 - psi_A at its q,s <= 1 window (25, 25): exp_lift of the sum
    reaches s^0, but psi_A's s-prefactor s^2 (ms = 48) lies past sprec, so
    the homomorphic product, which keeps only the s-rows every pair
    reaches, refuses it and names the pair, its ms and sprec."""
    phi, psi = generator(2, 24 * 8), psi2_variant(2, 24 * 8, variant="A")
    combo = JacobiForm(phi.series.scale(2) - psi.series, 0, 4)
    qp, sp, _ = lift_window_for(combo, 1, 1)
    assert (qp, sp) == (25, 25) and _prefactor_key(psi)[2] == 48
    assert exp_lift(combo, qp, sp, ywindow=40).series.terms
    with pytest.raises(PrecisionError, match=re.escape(
            "pair 1 has its s-prefactor at ms = 48, not below sprec = 25: "
            "only the s-rows every pair reaches are kept")):
        exp_lift_homomorphic([(phi, 2), (psi, -1)], qp, sp, ywindow=40)


def test_negative_theta_power_needs_a_ywindow_and_one_index():
    """1/Delta5 has infinitely many y-terms at each order, so without a
    ywindow it raises PrecisionError; a homomorphic lift refuses forms of
    two indices and an all-zero exponent list."""
    minus_phi = JacobiForm(generator(1, 24 * 20).series.scale(-1), 0, 2)
    qp, sp, _ = lift_window_for(minus_phi, 2, 2)
    with pytest.raises(PrecisionError, match="supply a ywindow"):
        exp_lift(minus_phi, qp, sp)
    phi1, phi2 = generator(1, 24 * 20), generator(2, 24 * 20)
    for pairs in ([(phi1, 1), (phi2, 1)], [(phi1, 0)]):
        with pytest.raises(ValidationError, match="one index"):
            exp_lift_homomorphic(pairs, 49, 49)


def test_lifts_refuse_an_input_one_order_short():
    qp, sp, inq = lift_window_for(generator(1, 24), 3, 3)
    exp_lift(generator(1, inq), qp, sp)
    with pytest.raises(PrecisionError, match="reads 10 q-orders of the input form; it has 9"):
        exp_lift(generator(1, inq - 24), qp, sp)
    qprec, pprec = 73, 73
    need = _input_qprec(qprec, pprec)
    sqeg(elliptic_genus(K3, qprec=need), qprec, pprec)
    with pytest.raises(PrecisionError):
        sqeg(elliptic_genus(K3, qprec=need - 24), qprec, pprec)


def fj_rows_oracle(form, sign, qprec, count):
    """The Fourier-Jacobi rows H_0..H_count by the engine the packed rows
    replaced: each T_-(k) image the per-term scan, each H_M a Series, each
    row's sum over k a sum of Series products, divided by M exactly."""
    half = form.index2 % 2
    if half:
        form = form.double_z()
    rows = [Series(DEN2, {(0, 0): 1} if qprec > 0 else {}, qprec)]
    images = []
    for m in range(1, count + 1):
        images.append(Series(DEN2, hecke_tminus_scan(form, m).series.terms, qprec))
        acc = Series(DEN2, {}, qprec)
        for k in range(1, m + 1):
            acc = acc + images[k - 1] * rows[m - k]
        terms = {}
        for key, c in acc.terms.items():
            quot, rem = divmod(c, m)
            if rem:
                raise InexactDivisionError(f"row {m}: {c} at {key}")
            terms[key] = sign * quot
        rows.append(Series(DEN2, terms, qprec))
    if half:
        rows = [Series(DEN2, {(nq, ly // 2): c for (nq, ly), c in row.terms.items()}, qprec)
                for row in rows]
    return rows


ORACLE_ORDERS = 5 * 4 + 1  # count 5 at qprec 97 reads 21 q-orders
ORACLE_INPUTS = {
    "K3": lambda: elliptic_genus(K3, qprec=24 * ORACLE_ORDERS),
    "CY4(1,4,6,4,1)": lambda: elliptic_genus(CYInvariants(4, (1, 4, 6, 4, 1)),
                                           qprec=24 * ORACLE_ORDERS),
    "CY3(e=-200)": lambda: elliptic_genus(CYInvariants.from_euler(3, -200),
                                        qprec=24 * ORACLE_ORDERS),
    "phi_{0,3/2}": lambda: phi_threehalf(24 * ORACLE_ORDERS),
}


@given(st.sampled_from(sorted(ORACLE_INPUTS) + ["a phi02 + b psiA"]), st.integers(-3, 3),
       st.integers(-3, 3), st.sampled_from([-1, 1]), st.integers(0, 5),
       st.sampled_from([1, 24, 25, 73, 97]))
@settings(max_examples=100, deadline=None)
def test_packed_engine_equals_oracle(name, a, b, sign, count, qprec):
    """On a phi02 + b psi_A, on K3, CY4 and CY3 genera and on phi_{0,3/2}
    (the half-index path): the same rows, term for term, and the same
    q-precision."""
    if name in ORACLE_INPUTS:
        form = ORACLE_INPUTS[name]()
    else:
        inq = 24 * ORACLE_ORDERS
        form = JacobiForm(generator(2, inq).series.scale(a)
                          + psi2_variant(2, inq, variant="A").series.scale(b), 0, 4)
    got = lifts._fj_rows(form, sign, qprec, count)
    assert got == fj_rows_oracle(form, sign, qprec, count)


@pytest.mark.parametrize("kind", ["exp_lift(phi01)", "sqeg(K3)"])
def test_packed_engine_equals_oracle_at_14(monkeypatch, kind):
    """exp_lift(phi01) at q,s <= 14 and sqeg(K3) at q,p <= 14 equal the
    same lifts on the oracle's rows, term for term."""
    if kind == "sqeg(K3)":
        qprec = pprec = 24 * 14 + 1
        form = elliptic_genus(K3, qprec=_input_qprec(qprec, pprec))
        lift = lambda: sqeg(form, qprec, pprec)  # noqa: E731
    else:
        qp, sp, inq = lift_window_for(generator(1, 24), 14, 14)
        form = generator(1, inq)
        lift = lambda: exp_lift(form, qp, sp).series  # noqa: E731
    got = lift()
    monkeypatch.setattr(lifts, "_fj_rows", fj_rows_oracle)
    want = lift()
    assert got.qprec == want.qprec and got.terms == want.terms


def y_factor_oracle(series, thetas, ywindow):
    """The (q, y) series times R = prod_lam (1 - y^-lam)^thetas[4 lam],
    clipped to |ly| <= ywindow, R expanded from binomials for this series
    alone: the per-s-row step of the assembly the lift engine replaced.
    The terms below -ywindow are dropped first and R is expanded down to
    ywindow past the top ly left; without a window R must be a polynomial."""
    if ywindow is None:
        if any(c < 0 for c in thetas.values()):
            raise PrecisionError("a negative theta power has unbounded y-support; supply a ywindow")
        depth = sum(step * c for step, c in thetas.items())
    else:
        terms = {k: c for k, c in series.terms.items() if k[1] >= -ywindow}
        series = Series(DEN2, terms, series.qprec)
        depth = ywindow + max((k[1] for k in terms), default=0)
    factor = Series.const(1)
    for step, c in thetas.items():
        binomial = {(0, -step * j): (-1) ** j * comb(c, j) if c >= 0 else comb(j - c - 1, j)
                    for j in range(depth // step + 1)}
        factor = (factor * Series(DEN2, binomial, None)).clip_y(depth)
    product = series * factor
    return product if ywindow is None else product.clip_y(ywindow)


def assemble_oracle(lead, thetas, g, rows, t, ywindow):
    """The per-s-row assembly the lift engine replaced: each row H_M times
    G as a Series product, and R multiplied in by ``y_factor_oracle``,
    rebuilt for each row."""
    terms = {}
    for m, row in enumerate(rows):
        part = y_factor_oracle(g * row, thetas, ywindow)
        ms = 24 * t * m + lead[2]
        terms.update({(nq + lead[0], ly + lead[1], ms): c for (nq, ly), c in part.terms.items()})
    return Series(DEN3, terms, g.qprec + lead[0])


def old_route_cases():
    """name -> a lift run through the package's entry points, each small
    enough for the oracle's Series products."""
    cases = {}

    def make(m, a=1):
        return lambda qp: JacobiForm(generator(m, qp).series.scale(a), 0, 2 * m)

    def lift(name, builder, ywindow=None, lead_only=False):
        qp, sp, _ = lift_window_for(builder(24), 3, 3)
        if lead_only:  # the s-window ends at the lead: only s^C, the row H_0
            sp = _prefactor_key(builder(24))[2] + 1
        cases[name] = lambda: lifts._lift_at(builder, qp, sp, ywindow)

    def combo(qp):
        return JacobiForm(generator(2, qp).series.scale(2)
                          - psi2_variant(2, qp, variant="A").series, 0, 4)

    for m in (1, 2, 3, 4):
        lift(f"exp_lift(phi0{m})", make(m))
    for ywindow in (20, 80):
        lift(f"exp_lift(-phi01), ywindow {ywindow}", make(1, -1), ywindow)
        lift(f"exp_lift(2 phi02 - psi_A), ywindow {ywindow}", combo, ywindow)
    lift("exp_lift(phi01), s-window ends at the lead", make(1), lead_only=True)
    lift("exp_lift(-phi01), s-window ends at the lead, ywindow 20", make(1, -1), 20, lead_only=True)
    phi1, phi2 = generator(1, 24 * 20), generator(2, 24 * 20)
    psi = psi2_variant(2, 24 * 20, variant="A")
    cases["exp_lift_homomorphic(phi01^2)"] = lambda: exp_lift_homomorphic([(phi1, 2)], 73, 73)
    cases["exp_lift_homomorphic(phi02^-1 psi_A^2), ywindow 40"] = lambda: exp_lift_homomorphic(
        [(phi2, -1), (psi, 2)], 73, 121, ywindow=40)
    genera = {"K3": K3, "CY3(e=40)": CYInvariants.from_euler(3, 40),
              "CY4(1,4,6,4,1)": CYInvariants(4, (1, 4, 6, 4, 1))}
    for label, inv in genera.items():
        for run in (hodge_anomaly, lifts.e_form, lifts.factorization_product):
            if run is lifts.factorization_product and inv.d % 2:
                continue  # assembled for even d only
            cases[f"{run.__name__}({label}), ywindow 40"] = lambda run=run, inv=inv: run(
                inv, 49, 73, ywindow=40)
    # -K3: every theta power of its anomaly and of its lift is positive, so
    # no window is needed and F_0 = R G multiplies each row
    minus_k3 = CYInvariants(2, (-2, 20, -2))
    for run in (hodge_anomaly, lifts.e_form, lifts.factorization_product):
        cases[f"{run.__name__}(-K3)"] = lambda run=run: run(minus_k3, 49, 73)
    cases["factorization_product(K3), s-window ends at the lead, ywindow 40"] = (
        lambda: lifts.factorization_product(K3, 49, -23, ywindow=40))
    return cases


OLD_ROUTE_CASES = old_route_cases()


@pytest.mark.parametrize("name", sorted(OLD_ROUTE_CASES))
def test_lift_engine_equals_the_per_row_route(monkeypatch, name):
    """Every lift equals, term for term and in its metadata, the route the
    engine replaced: the oracle's rows, each times G as a Series and times
    R rebuilt for that row."""
    got = OLD_ROUTE_CASES[name]()
    monkeypatch.setattr(lifts, "_fj_rows", fj_rows_oracle)
    monkeypatch.setattr(lifts, "_assemble", assemble_oracle)
    want = OLD_ROUTE_CASES[name]()
    assert got.series.terms and got.series.terms == want.series.terms
    assert got.series.qprec == want.series.qprec
    assert ((got.weight2, got.character_order, got.index_t)
            == (want.weight2, want.character_order, want.index_t))


def test_engine_packs_each_operand_once(monkeypatch):
    """exp_lift(phi01) at q,s <= 9: the recursion makes no Series product,
    so no dense product by _mul_rows either, and packs no term dict.  It
    packs each of the 9 images once, straight from the table's rows, and
    no H_M: each packed H_M is the packed M H_M divided by M.  It reads
    each M H_M back once, and multiplies the packed I_k by the packed
    H_(M-k) once for each M and k < M."""
    qp, sp, inq = lift_window_for(generator(1, 24), 9, 9)
    form = generator(1, inq)
    nq, _, ms = _prefactor_key(form)
    count = (sp - ms - 1) // 24
    dict_packs, packs, products, reads, series_products = [], [], [], [], []
    pack, slots = series._Rows.pack.__func__, series._Rows.slots.__func__
    mul, unpack = series._Rows.__mul__, lifts._unpack_rows
    series_mul = Series.__mul__

    def counted_slots(cls, rows, width):  # index m: row 0 spans |l| <= m
        packs.append(((len(rows[0]) - 1) // 2, slots(cls, rows, width)))
        return packs[-1][1]

    def counted_mul(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(series._Rows, "pack",
                        classmethod(lambda cls, *args: dict_packs.append(args) or pack(cls, *args)))
    monkeypatch.setattr(series._Rows, "slots", classmethod(counted_slots))
    monkeypatch.setattr(series._Rows, "__mul__", counted_mul)
    monkeypatch.setattr(lifts, "_unpack_rows",
                        lambda rows, layout, width: reads.append(-layout[2] // 4)
                        or unpack(rows, layout, width))
    monkeypatch.setattr(Series, "__mul__", lambda a, b: series_products.append(1) or series_mul(a, b))
    rows = lifts._fj_rows(form, -1, qp - nq, count)
    assert len(rows) == count + 1 == 10
    assert series_products == [] and dict_packs == []
    assert [m for m, _ in packs] == list(range(1, count + 1))
    assert reads == list(range(1, count + 1))
    images = [packed for _, packed in packs]
    engine = [(a, b) for a, b in products if any(a is image for image in images)]
    hs = []  # H_1 .. H_(count-1), each where the recursion first multiplies by it
    for _, b in engine:
        if not any(b is h for h in hs):
            hs.append(b)
    assert len(hs) == count - 1 and not any(h is image for h in hs for image in images)
    assert [
        ([i for i, image in enumerate(images) if a is image],
         [j for j, h in enumerate(hs) if b is h])
        for a, b in engine
    ] == [([k - 1], [m - k - 1]) for m in range(2, count + 1) for k in range(1, m)]


def plus_term(form, key, c):
    """form with c q**(key[0]/24) y**(key[1]/4) added, kept as a form."""
    terms = dict(form.series.terms)
    terms[key] = terms.get(key, 0) + c
    return JacobiForm(Series(DEN2, terms, form.series.qprec), form.weight2, form.index2)


@pytest.mark.parametrize("key, c, name", [
    ((24, 20), 1, "1 q^1 y^5"),  # l^2 = 25 > 4 + 1
    ((48, 20), 1, "1 q^2 y^5"),  # |l| <= 1 + 2n, but l^2 = 25 > 8 + 1
    ((48, -20), 1, "1 q^2 y^-5"),
    ((24, 12), -2, "-2 q^1 y^3"),  # l^2 = 9 > 4 + 1
    ((-24, 0), 1, "1 q^-1 y^0"),  # n < 0
])
def test_lifts_refuse_input_outside_the_weak_support(key, c, name):
    qp, sp, inq = lift_window_for(generator(1, 24), 3, 3)
    form = plus_term(generator(1, inq), key, c)
    for run in (lambda: exp_lift(form, qp, sp), lambda: sqeg(form, 73, 73),
                lambda: symmetric_product_genus(form, 2, 73)):
        with pytest.raises(ValidationError, match=re.escape(f"term {name} lies outside the weak-form")):
            run()


@pytest.mark.parametrize("key, name", [
    ((24, 18), "1 q^1 y^9"),  # y^(9/2) -> y^9: 81 > 4*6*1 + 36
    ((96, 26), "1 q^4 y^13"),  # y^(13/2) -> y^13: |l| <= 6 + 8, but 169 > 4*6*4 + 36
])
def test_half_index_input_is_checked_after_z_doubling(key, name):
    form = plus_term(phi_threehalf(24 * 10), key, 1)
    with pytest.raises(ValidationError, match=re.escape(f"term {name} (z -> 2z) lies outside")):
        sqeg(form, 49, 49)


def test_input_that_breaks_the_periodicity_is_refused():
    """A term inside the weak support whose coefficient differs from the
    others of its class (D, l mod 2t) is named with one of them."""
    qp, sp, inq = lift_window_for(generator(1, 24), 3, 3)
    form = plus_term(generator(1, inq), (48, 4), 1)  # class (7, 1): c(2, 1) against c(2, -1)
    runs = (lambda: exp_lift(form, qp, sp), lambda: sqeg(form, 73, 73), lambda: hecke_tminus(form, 2))
    for run in runs:
        with pytest.raises(ValidationError) as err:
            run()
        terms = set(re.findall(r"-?\d+ q\^\d+ y\^-?\d+", str(err.value)))
        assert len(terms) == 2 and "in the class (D, l mod 2) = (7, 1)" in str(err.value)
        assert {t for t in terms if t.endswith(("q^2 y^1", "q^2 y^-1"))} == terms


def test_input_that_lacks_a_representative_is_refused():
    """A class present in the input holds every representative (n, l) with
    n below the precision, else the class and one missing term are named:
    the constant 1 read at index 1 (not a Jacobi form), a half-integral
    form read through z -> 2z, and a form at a q-precision that is not a
    multiple of 24, the last two each with one term dropped."""
    one = JacobiForm(Series.const(1, DEN2, 96), 0, 2)
    half = phi_threehalf(24 * 6)
    odd = generator(1, 24 * 5 + 7)  # six q-orders
    assert hecke_tminus(odd, 1).series.terms == odd.series.terms
    assert sqeg(half, 49, 49).terms
    drop = (24 * 5, 8)  # c(5, 2) of phi_01
    half_drop = max(half.series.terms)  # read as c(5, l) at l = ly/2
    runs = (
        (lambda: hecke_tminus(one, 1), "(D, l mod 2) = (0, 0) lacks its term q^1 y^-2 "),
        (lambda: exp_lift(one, 25, 25), "(D, l mod 2) = (0, 0) lacks its term q^1 y^-2 "),
        (lambda: hecke_tminus(plus_term(odd, drop, -odd.series.terms[drop]), 2),
         "(D, l mod 2) = (16, 0) lacks its term q^5 y^2 below the precision of 6 q-orders"),
        (lambda: sqeg(plus_term(half, half_drop, -half.series.terms[half_drop]), 49, 49),
         f"lacks its term q^5 y^{half_drop[1] // 2} (z -> 2z)"),
    )
    for run, message in runs:
        with pytest.raises(ValidationError, match=re.escape(message)):
            run()


def test_two_lifts_of_one_form_build_its_table_once(monkeypatch):
    builds = []
    table = jacobi.ThetaTable
    monkeypatch.setattr(jacobi, "ThetaTable", lambda form: builds.append(form) or table(form))
    qp, sp, inq = lift_window_for(generator(1, 24), 3, 3)
    form = generator(1, inq)
    assert exp_lift(form, qp, sp).series == exp_lift(form, qp, sp).series
    half = phi_threehalf(24 * 10)
    assert sqeg(half, 49, 49) == sqeg(half, 49, 49)
    assert builds == [form, half]


def test_humbert_guard_comes_from_the_precision():
    assert humbert_multiplicity(elliptic_genus(K3, qprec=24), 0, 1) == -2
    chi3 = -(phi_threehalf(48).double_z())
    assert (humbert_multiplicity(chi3, 0, 1), humbert_multiplicity(chi3, 1, 5)) == (1, -1)
    chi3 = -(phi_threehalf(24).double_z())
    assert humbert_multiplicity(chi3, 0, 1) == 1
    with pytest.raises(PrecisionError, match=re.escape(
            "class (D, l mod 12) = (-1, 5) sits at q-order 1, which reads 2 q-orders "
            "of the input form; it has 1")):
        humbert_multiplicity(chi3, 1, 5)


def test_inexact_row_names_the_row_and_the_key(monkeypatch):
    """Every integral input in the weak support divides exactly (the
    product formula has integral coefficients), so a fault stands in for
    an inexact row: the T_-(2) image of phi01 with 1 added at q**0 y**0
    makes that coefficient of 2 H_2 odd.  sqeg and exp_lift with no
    window both raise, so no packed H_M is taken from a row that does not
    divide."""
    tminus = jacobi.ThetaTable.tminus

    def faulty(table, m, top):
        rows = tminus(table, m, top)
        if m == 2:
            rows[0][table.t * m] += 1  # q^0 y^0: entry L + tm + 2N of row N
        return rows

    monkeypatch.setattr(jacobi.ThetaTable, "tminus", faulty)
    form = generator(1, 24 * 10)
    qp, sp, inq = lift_window_for(form, 3, 3)
    assert inq <= 24 * 10
    for run in (lambda: sqeg(form, 73, 73), lambda: exp_lift(form, qp, sp)):
        with pytest.raises(InexactDivisionError,
                           match=re.escape("Fourier-Jacobi row 2: coefficient ") + r"-?\d+"
                           + re.escape(" at (0, 0) is not divisible by 2")):
            run()


def test_empty_p_window_and_negative_symmetric_power():
    chi = elliptic_genus(K3, qprec=24 * 4)
    for pprec in (0, -24):
        z = sqeg(chi, 49, pprec)
        assert z.terms == {} and z.qprec == 49
    assert sqeg(chi, 49, 1).terms == {(0, 0, 0): 1}
    assert symmetric_product_genus(chi, 0, 49).terms == {(0, 0): 1}
    with pytest.raises(ValidationError, match="n >= 0"):
        symmetric_product_genus(chi, -1, 49)


def abc_exponents_fraction(form):
    """(A, B, C) summed term by term in Fraction: the route abc_exponents
    replaced."""
    a = b = c = Fraction(0)
    for (nq, ly), coeff in form.series.terms.items():
        if nq != 0:
            continue
        l = Fraction(ly, 4)
        a += Fraction(coeff, 24)
        if l > 0:
            b += Fraction(coeff, 1) * l / 2
        c += Fraction(coeff, 1) * l * l / 4
    return a, b, c


@given(st.booleans(), st.integers(-(2**70), 2**70),
       st.dictionaries(st.integers(0, 12), st.integers(-(2**70), 2**70).filter(bool)),
       st.dictionaries(st.integers(-12, 12), st.integers(-9, 9)))
@settings(max_examples=80, deadline=None)
def test_abc_exponents_equal_the_fraction_sums(half, c0, row, q1):
    """On random q**0 rows even in y, of integral or half-integral index
    (ly in 4Z or 4Z + 2), with a q**1 row that is not read."""
    terms = {(24, 4 * l + 2 * half): c for l, c in q1.items()}
    for l, c in row.items():
        ly = 4 * l + 2 * half
        terms[(0, ly)] = terms[(0, -ly)] = c
    if not half:
        terms[(0, 0)] = c0
    form = JacobiForm(Series(DEN2, terms, 48), 0, 2 + half)
    assert lifts.abc_exponents(form) == abc_exponents_fraction(form)


# both parities, e = 0 on each, and d = 6, 7, 8 (realizable by relation_check)
ANOMALY_META = {
    "d1(0,0)": CYInvariants(1, (0, 0)),
    "Enriques": ENRIQUES,
    "CY3(e=0)": CYInvariants.from_euler(3, 0),
    "CY3(e=-2)": CYInvariants.from_euler(3, -2),
    "CY4(1,4,6,4,1)": CYInvariants(4, (1, 4, 6, 4, 1)),
    "CY6(0,1,0,14,0,1,0)": CYInvariants(6, (0, 1, 0, 14, 0, 1, 0)),
    "CY7(e=0)": CYInvariants(7, (0, 1, 3, 2, -2, -3, -1, 0)),
    "CY8(1,2,3,4,22,4,3,2,1)": CYInvariants(8, (1, 2, 3, 4, 22, 4, 3, 2, 1)),
}


ANOMALY_DATA = {
    "K3": K3,
    "CY3(e=40)": CYInvariants.from_euler(3, 40),
    "CY5(e=24)": CYInvariants.from_euler(5, 24),
    **ANOMALY_META,
}


def clip_around(series, lead_ly, ywindow):
    """The terms of series with |ly - lead_ly| <= ywindow."""
    return {k: c for k, c in series.terms.items() if abs(k[1] - lead_ly) <= ywindow}


@pytest.mark.parametrize("name", sorted(ANOMALY_DATA))
def test_hodge_anomaly_equals_product_on_interior(name):
    """Every term of the windowed anomaly, on |ly| <= ywindow around the
    leading key, equals the product route at a window 400 wider."""
    inv, qprec = ANOMALY_DATA[name], 49
    for ywindow in (20, 60):
        got = hodge_anomaly(inv, qprec, qprec, ywindow=ywindow).series
        want, lead = product_hodge_anomaly(inv, qprec, ywindow + 400)
        assert got.qprec == want.qprec == qprec
        assert got.terms and got.terms == clip_around(want, lead[1], ywindow), ywindow


# invariants and the s-exponent ms of their anomaly's monomial
ANOMALY_MS = {
    "K3": (K3, -24),
    "CY4(1,4,6,4,1)": (CYInvariants(4, (1, 4, 6, 4, 1)), 0),
    "CY3(e=2)": (CYInvariants.from_euler(3, 2), -3),
    "Enriques": (ENRIQUES, -12),
}


@pytest.mark.parametrize("name", sorted(ANOMALY_MS))
def test_hodge_anomaly_honours_sprec(name):
    """The anomaly is the one s-row s^ms, so sprec (exclusive) = ms gives
    the empty series, with its weight, character and index kept, and any
    sprec past ms the same row."""
    inv, ms = ANOMALY_MS[name]
    row = hodge_anomaly(inv, 49, ms + 1, ywindow=40)
    assert row.series.terms and {k[2] for k in row.series.terms} == {ms}
    assert row.series == hodge_anomaly(inv, 49, ms + 240, ywindow=40).series
    empty = hodge_anomaly(inv, 49, ms, ywindow=40)
    assert not empty.series.terms and empty.series.qprec == 49
    meta = (row.weight2, row.character_order, row.index_t)
    assert (empty.weight2, empty.character_order, empty.index_t) == meta


@pytest.mark.parametrize("name", sorted(ANOMALY_META))
def test_hodge_anomaly_metadata_is_the_chi_prime_formula(name):
    """weight2 -chi'_{d/2} (0 for odd d), character order 24/gcd(24, e),
    index d/2 (2d for odd d) and the one s-row at
    ms = -12 sum_{p=1..d0} p^2 chi'_{d0-p} (d = 2 d0) or
    ms = -3 sum_{p=1..d0+1} (2p-1)^2 chi'_{d0-p+1} (d = 2 d0 + 1),
    read off the paper's formula, chi'_p = (-1)^p chi_p."""
    inv = ANOMALY_META[name]
    d, d0, e = inv.d, inv.d // 2, inv.euler
    chip = [(-1) ** p * c for p, c in enumerate(inv.chi)]
    if d % 2 == 0:
        weight2, index_t = -chip[d0], d0
        ms = -12 * sum(p * p * chip[d0 - p] for p in range(1, d0 + 1))
    else:
        weight2, index_t = 0, 2 * d
        ms = -3 * sum((2 * p - 1) ** 2 * chip[d0 - p + 1] for p in range(1, d0 + 2))
    got = hodge_anomaly(inv, 25, ms + 24, ywindow=8)
    assert (got.weight2, got.character_order, got.index_t) == (weight2, 24 // gcd(24, e), index_t)
    assert got.series.terms and {k[2] for k in got.series.terms} == {ms}


@pytest.mark.parametrize("name", ["K3", "CY4(1,4,6,4,1)"])
def test_factorization_product_is_the_anomaly_on_its_first_s_row(name):
    """With only the row H_0 = 1 of the second-quantized genus in the
    window, ms < sprec <= ms + 24t, the product is the anomaly, series and
    metadata; at sprec = ms + 24t + 1 the row H_1 enters and they differ."""
    inv, ms = ANOMALY_MS[name]
    t = inv.d // 2
    for sprec in (ms + 1, ms + 12 * t, ms + 24 * t, ms + 24 * t + 1):
        anomaly = hodge_anomaly(inv, 49, sprec, ywindow=40)
        product = lifts.factorization_product(inv, 49, sprec, ywindow=40)
        meta = [(ss.weight2, ss.character_order, ss.index_t) for ss in (anomaly, product)]
        assert meta[0] == meta[1] and anomaly.index_t == t
        assert anomaly.series.terms
        assert (anomaly.series == product.series) == (sprec <= ms + 24 * t), sprec


@pytest.mark.parametrize("step", [pytest.param(step, id=str(Fraction(step, 4)))
                                  for step in (2, 4, 6, 8, 12)])
def test_theta_rest_times_its_y_factor_is_the_theta_unit(step):
    """B_lam (1 - y^-lam) = theta(tau, lam z)/(q^(1/8) y^(lam/2)) for the
    y-step step = 4 lam, the key of a theta power; the id is lam."""
    factor = Series(DEN2, {(0, 0): 1, (0, -step): -1}, None)
    for qprec in (1, 24, 25, 73, 97, 241):
        unit = theta_jacobi(qprec + 3, Fraction(step, 4)).shift((-3, -step // 2))
        assert lifts._theta_rest(qprec, step) * factor == unit


def theta_block_inputs():
    """Lift inputs with varied theta blocks, negative theta powers among
    them: a phi_02 + b psi_A, -phi_01, -2 phi_01 and minus the K3 and CY4
    genera, each as a function of the input q-precision."""
    def combo(a, b):
        return lambda qp: JacobiForm(generator(2, qp).series.scale(a)
                                     + psi2_variant(2, qp, variant="A").series.scale(b), 0, 4)

    inputs = {f"{a} phi02 + {b} psi_A": combo(a, b)
              for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)}
    for k in (1, 2):
        inputs[f"-{k} phi01"] = lambda qp, k=k: JacobiForm(generator(1, qp).series.scale(-k), 0, 2)
    for name, inv in (("K3", K3), ("CY4", CYInvariants(4, (1, 4, 6, 4, 1)))):
        inputs[f"-genus({name})"] = lambda qp, inv=inv: -elliptic_genus(inv, qprec=qp)
    return inputs


THETA_BLOCK_INPUTS = theta_block_inputs()


@pytest.mark.parametrize("name", sorted(THETA_BLOCK_INPUTS) + sorted(LIFT_INPUTS))
def test_prefactor_key_is_the_lead_of_abc_exponents(name):
    """The lead of the q**0 row's theta block, summed over Z, is the
    Fraction view (24A, 4B, 24C) of abc_exponents."""
    form = {**THETA_BLOCK_INPUTS, **LIFT_INPUTS}[name](48)
    a, b, c = lifts.abc_exponents(form)
    assert _prefactor_key(form) == (24 * a, 4 * b, 24 * c)


def test_exp_lift_interior_is_exact():
    """Every term exp_lift returns under a ywindow, on |ly| <= ywindow
    around its prefactor, is unchanged by a window 400 wider."""
    for name, make in sorted(THETA_BLOCK_INPUTS.items()):
        qp, sp, inq = lift_window_for(make(24), 3, 3)
        form = make(inq)
        pref = _prefactor_key(form)
        for ywindow in (8, 24, 40, 80):
            narrow = exp_lift(form, qp, sp, ywindow=ywindow).series
            wide = exp_lift(form, qp, sp, ywindow=ywindow + 400).series
            assert narrow.terms and narrow.terms == clip_around(wide, pref[1], ywindow), (name, ywindow)


def divisor_char_sum(n, l, m, top):
    """sum_{a | (n, l, m)} (top/a)."""
    g = gcd(gcd(n, abs(l)), m)
    return sum(kronecker(top, a) for a in range(1, g + 1) if g % a == 0)


def reference_arithmetic_terms(name, qprec, sprec):
    """The two hand-written loops, one per lift, that the additive-lift
    engine replaced: (terms, (weight2, character order, index_t))."""
    terms = {}
    if name == "Delta2":
        for n in range(1, (qprec - 1) // 6 + 1, 4):
            for m in range(1, (sprec - 1) // 12 + 1, 4):
                lbound = isqrt(2 * n * m)
                for l in range(-lbound, lbound + 1):
                    nn = 2 * n * m - l * l
                    if nn <= 0 or isqrt(nn) ** 2 != nn:
                        continue
                    big_n = isqrt(nn)
                    c = big_n * kronecker(-4, big_n * l) * divisor_char_sum(n, l, m, -4)
                    if c:
                        key = (6 * n, 2 * l, 12 * m)
                        terms[key] = terms.get(key, 0) + c
        meta = (4, 4, 2)
    else:
        for n in range(1, (qprec - 1) // 4 + 1, 6):
            for m in range(1, (sprec - 1) // 12 + 1, 6):
                lbound = isqrt((4 * n * m) // 3)
                for l in range(-lbound, lbound + 1):
                    mm = 4 * n * m - 3 * l * l
                    if mm <= 0 or isqrt(mm) ** 2 != mm:
                        continue
                    c = kronecker(-4, l) * kronecker(12, isqrt(mm)) * divisor_char_sum(n, l, m, -12)
                    if c:
                        key = (4 * n, 2 * l, 12 * m)
                        terms[key] = terms.get(key, 0) + c
        meta = (2, 6, 3)
    return {k: c for k, c in terms.items() if c}, meta


@pytest.mark.parametrize("name", ["Delta2", "Delta1"])
def test_arithmetic_lift_table_equals_the_two_loops(name):
    for qorders in range(1, 11):
        for sorders in range(1, 11):
            qp, sp = 24 * qorders + 1, 24 * sorders + 1
            got = arithmetic_lift(name, qp, sp)
            terms, meta = reference_arithmetic_terms(name, qp, sp)
            assert got.series.terms == terms and got.series.qprec == qp
            assert (got.weight2, got.character_order, got.index_t) == meta


def test_arithmetic_lift_refuses_unknown_name():
    with pytest.raises(ValidationError, match="unknown arithmetic lift"):
        arithmetic_lift("Delta3", 25, 25)


@given(st.sampled_from(sorted(ADDITIVE_LIFTS)), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_arithmetic_lift_equals_exp_lift_of_phi0t(name, qmax, smax):
    """Each table lift of eta^d theta equals exp_lift(phi_0t), t = Q/2 and
    Q = 24/gcd(24, d + 3), term for term on q,s <= 4, with weight2 d + 1,
    character order Q and index t on both sides."""
    d, _ = ADDITIVE_LIFTS[name]
    order = 24 // gcd(24, d + 3)
    t = order // 2
    qp, sp, inq = lift_window_for(generator(t, 24), qmax, smax)
    lifted = exp_lift(generator(t, inq), qp, sp)
    summed = arithmetic_lift(name, qp, sp)
    assert summed.series.terms and summed.series == lifted.series
    for ss in (lifted, summed):
        assert (ss.weight2, ss.character_order, ss.index_t) == (d + 1, order, t)


def test_delta1_divisor_character_is_trivial(monkeypatch):
    """Delta1 = exp_lift(phi_03) on q <= 5, s <= 13 with the trivial divisor
    character.  The character (-12/a) first parts from it at a = 5, which
    needs n = m = 25 (q^(25/6), s^(25/2)): it changes the two keys
    (100, +-50, 300) there and no other key on the window, so on
    q,s <= 12 the two agree."""
    qp, sp, inq = lift_window_for(generator(3, 24), 5, 13)
    lifted = exp_lift(generator(3, inq), qp, sp).series
    window = {k: c for k, c in lifted.terms.items() if k[0] <= 120 and k[2] <= 312}
    trivial = arithmetic_lift("Delta1", 121, 313).series.terms
    assert trivial == window
    monkeypatch.setitem(lifts.ADDITIVE_LIFTS, "Delta1", (1, -12))
    twisted = arithmetic_lift("Delta1", 121, 313).series.terms
    parted = {k for k in trivial.keys() | twisted.keys() if trivial.get(k) != twisted.get(k)}
    assert parted == {(100, 50, 300), (100, -50, 300)}
    assert {trivial[k] for k in parted} == {1, -1}
