"""Ring laws, precision contracts and serialization of sparse series."""

import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from conftest import lift_to_three, plain_power
from hypothesis import assume, given, settings, strategies as st

from jacobilift import series
from jacobilift.errors import InexactDivisionError, ValidationError
from jacobilift.jacobi import _phi01_series
from jacobilift.series import (
    DEN2,
    DEN3,
    STRIP_MIN_BITS,
    Series,
    _divide_row,
    _min_prec,
    _mul_dict,
    _mul_rows,
    _Rows,
    _unpack_rows,
    series_from_dict,
    series_to_dict,
)

KEYS2 = st.tuples(
    st.integers(min_value=-24, max_value=47), st.integers(min_value=-8, max_value=8)
)
COEFFS = st.integers(min_value=-9, max_value=9)


def series2(draw_terms, qprec=72):
    return Series(DEN2, draw_terms, qprec)


SERIES2 = st.dictionaries(KEYS2, COEFFS, max_size=6).map(series2)


@given(SERIES2, SERIES2)
def test_add_commutes(a, b):
    assert (a + b).terms == (b + a).terms


@given(SERIES2, SERIES2, SERIES2)
@settings(max_examples=60)
def test_add_associates(a, b, c):
    assert ((a + b) + c).terms == (a + (b + c)).terms


def merged_then_filtered(a, b, sign):
    """a + sign * b as Series sums were once formed: merge every term, then
    drop those at or above the common precision."""
    qprec = _min_prec(a.qprec, b.qprec)
    terms = dict(a.terms)
    for k, c in b.terms.items():
        new = terms.get(k, 0) + sign * c
        if new:
            terms[k] = new
        else:
            terms.pop(k, None)
    if qprec is not None:
        terms = {k: c for k, c in terms.items() if k[0] < qprec}
    return Series(DEN2, terms, qprec, _clean=True)


PRECS = st.one_of(st.none(), st.integers(-24, 72))
ANY_PREC_SERIES2 = st.builds(series2, st.dictionaries(KEYS2, COEFFS, max_size=8), PRECS)


@given(ANY_PREC_SERIES2, ANY_PREC_SERIES2, st.booleans())
@settings(max_examples=150)
def test_sums_equal_merge_then_filter(a, b, cancel):
    """Sums and differences at mixed and exact (None) precisions, with and
    without cancelling terms, equal the merge-then-filter route; a
    difference equals the sum with the negation."""
    if cancel:
        b = b + Series(DEN2, {k: -c for k, c in a.terms.items()}, None)
    assert a + b == merged_then_filtered(a, b, 1)
    assert a - b == merged_then_filtered(a, b, -1) == a + (-b)
    assert all((a + b).terms.values()) and all((a - b).terms.values())


@given(SERIES2, SERIES2)
@settings(max_examples=60)
def test_mul_commutes(a, b):
    left, right = a * b, b * a
    assert left.terms == right.terms and left.qprec == right.qprec


@given(SERIES2, SERIES2, SERIES2)
@settings(max_examples=40)
def test_mul_distributes(a, b, c):
    lhs = a * (b + c)
    rhs = a * b + a * c
    prec = min(p for p in (lhs.qprec, rhs.qprec) if p is not None)
    assert lhs.same_terms(rhs, prec)


@given(SERIES2)
def test_additive_inverse(a):
    assert (a + (-a)).is_zero()


@given(SERIES2)
def test_one_is_neutral(a):
    one = Series.const(1, DEN2, None)
    assert (a * one).terms == a.terms


@given(SERIES2, SERIES2)
@settings(max_examples=60)
def test_mul_precision_rule(a, b):
    prod = a * b
    expected = min(a.qprec + b.min_nq(), b.qprec + a.min_nq())
    assert prod.qprec == expected
    assert all(k[0] < expected for k in prod.terms)


@given(SERIES2, SERIES2)
@settings(max_examples=40)
def test_exact_div_roundtrip(a, b):
    # force b to be monic at its minimal key so the division is exact
    terms = dict(b.terms)
    terms[(-24, 0)] = 1
    b = Series(DEN2, terms, b.qprec)
    prod = a * b
    quotient = prod.exact_div(b)
    assert quotient.same_terms(a, min(quotient.qprec, a.qprec))


@given(SERIES2)
def test_serialization_roundtrip(a):
    back = series_from_dict(series_to_dict(a))
    assert back == a


def test_serialization_roundtrip_three_vars():
    s = Series(DEN3, {(0, -4, 12): 3, (24, 0, 0): -1}, 48)
    assert series_from_dict(series_to_dict(s)) == s


def test_truncate_drops_high_orders():
    s = Series(DEN2, {(0, 0): 1, (24, 4): 2, (48, 0): 3}, 72)
    t = s.truncate(30)
    assert t.qprec == 30 and (48, 0) not in t.terms and (24, 4) in t.terms


def test_q_slice_beyond_precision_raises():
    from jacobilift.errors import PrecisionError

    s = Series(DEN2, {(0, 0): 1}, 24)
    with pytest.raises(PrecisionError):
        s.q_slice(24)


def test_inexact_division_raises():
    a = Series(DEN2, {(0, 0): 3}, 48)
    b = Series(DEN2, {(0, 0): 2, (24, 0): 1}, 48)
    with pytest.raises(InexactDivisionError):
        a.exact_div(b)


def test_mixed_denominator_arithmetic_rejected():
    a = Series(DEN2, {(0, 0): 1}, 24)
    b = Series(DEN3, {(0, 0, 0): 1}, 24)
    with pytest.raises(ValidationError):
        a + b


def test_scale_y_substitution():
    s = Series(DEN2, {(0, 4): 1, (24, -4): 2}, 48)
    t = s.scale_y(2)
    assert t.terms == {(0, 8): 1, (24, -8): 2}


def test_coefficients_are_ints():
    with pytest.raises(ValidationError, match="is not an int"):
        Series(DEN2, {(0, 0): Fraction(1, 2)}, 24)
    with pytest.raises(ValidationError, match="is not an int"):
        Series(DEN2, {(24, 0): Fraction(2)}, 24)  # even beyond qprec
    s = Series(DEN2, {(0, 0): 2}, 24)
    with pytest.raises(ValidationError, match="must be ints"):
        s.scale(Fraction(1, 2))
    with pytest.raises(TypeError):
        s * Fraction(1, 2)


def test_deserialization_refuses_other_rings():
    data = series_to_dict(Series(DEN2, {(0, 0): 2}, 24))
    assert series_from_dict({**data, "ring": "Z"}) == series_from_dict(data)
    for ring in ("Q", "Zi"):
        with pytest.raises(ValidationError, match="series are over Z"):
            series_from_dict({**data, "ring": ring})


def test_inexact_division_of_exact_series_raises_at_once():
    one = Series.const(1, DEN2, None)
    with pytest.raises(InexactDivisionError, match=r"quotient q-level 0 lies past -24"):
        one.exact_div(Series(DEN2, {(0, 0): 1, (24, 0): -1}, None))


def test_exact_division_of_exact_series():
    b = Series(DEN2, {(0, 0): 1, (24, 0): -1}, None)
    c = Series(DEN2, {(0, -2): 3, (0, 2): -1, (48, 6): 2}, None)
    assert (b * c).exact_div(b) == c


def test_exact_div_refuses_three_variables():
    """Division takes (q, y) series only, as powers do: a (q, y, s)
    dividend, divisor or both raise ValidationError, the exact quotient
    b c / b and the endless 1/(1 - s) alike."""
    b = Series(DEN2, {(0, 0): 1, (24, 0): -1}, None)
    c = Series(DEN3, {(0, -2, 0): 3, (0, 2, 24): -1, (48, 6, 0): 2}, None)
    one = Series.const(1, DEN3, 24 * 40)
    for a, d in [(lift_to_three(b) * c, lift_to_three(b)), (c, b), (b, c),
                 (one, Series(DEN3, {(0, 0, 0): 1, (0, 0, 24): -1}, None))]:
        with pytest.raises(ValidationError, match="two two-variable series"):
            a.exact_div(d)


@pytest.mark.parametrize("den, tail, top", [
    (DEN2, (0, 4), r"\[-4\]"),  # 1/(1 - y)
])
def test_inexact_division_with_an_endless_tail_raises_at_once(den, tail, top):
    # the first quotient term already lies above the top of the y-box an
    # exact quotient's q**0 row fills: the row's top minus the divisor's
    one = Series.const(1, den, 24 * 40)
    with pytest.raises(InexactDivisionError, match=r"at q-level 0: .* to " + top):
        one.exact_div(Series(den, {(0,) * len(den): 1, tail: -1}, None))


@pytest.mark.parametrize("row, divisor, want", [
    # y**(3/2) + y**(-3/2) over y**(1/2) + y**(-1/2): y-offset 2 mod 4, and
    # the row's empty slots in between fill in
    ({-6: 1, 6: 1}, {-2: 1, 2: 1}, {-4: 1, 0: -1, 4: 1}),
    # (1 + y**2)/(1 + y): the third quotient term y**2 passes the top y**1
    ({0: 1, 8: 1}, {0: 1, 4: 1}, r"quotient term \(5, 8\) leaves the y-box \[0\] to \[4\]"),
    # (2 + 3y + y**2)/(2 + 2y): the remainder y inside the y-box is not
    # divisible by 2
    ({0: 2, 4: 3, 8: 1}, {0: 2, 4: 2}, "1 is not divisible by 2 over Z"),
], ids=["y-offset 2 mod 4", "past the top of the y-box", "not divisible"])
def test_row_division_edge_cases(row, divisor, want):
    if isinstance(want, dict):
        assert _divide_row(row, divisor, 5) == want
    else:
        with pytest.raises(InexactDivisionError, match=r"at q-level 5: .*" + want):
            _divide_row(row, divisor, 5)


def test_division_skips_empty_rows():
    """An empty dividend, or a remainder row that cancels to nothing, gives
    no quotient row, and no division of an empty row is tried."""
    b = Series(DEN2, {(0, -2): 1, (0, 2): 1, (24, 6): 3}, None)
    assert Series.zero(DEN2, None).exact_div(b) == Series.zero(DEN2, None)
    c = Series(DEN2, {(0, 0): 2, (48, 4): -1}, 24 * 5)  # q**1 row of b c / b is empty
    assert (b * c).exact_div(b) == c


def test_inexact_division_deep_in_q_raises_at_that_level():
    # theta(2z)/theta(z) is exact; one changed coefficient at q**5 gives the
    # quotient a y-tail there, stopped at the top of that row's box
    from jacobilift.jacobi import theta_jacobi

    num, den = theta_jacobi(24 * 12, y_scale=2), theta_jacobi(24 * 12)
    assert num.exact_div(den).qprec == 24 * 12 - 3
    bad = num + Series(DEN2, {(123, 6): 1}, None)
    with pytest.raises(InexactDivisionError, match=r"at q-level 120: .* to \[22\]"):
        bad.exact_div(den)


# ---- powers by Miller's recurrence against plain products -----------------


@st.composite
def power_bases(draw):
    """A two-variable series with rows at q-levels q0 + g i, some of them
    empty (q-gaps): y-free (every ly one value), or y in steps of 4 from
    an integral or a half-integral (ly = 2 mod 4) lowest exponent; its
    lowest row a unit monomial +-y**a, another monomial c y**a or a
    polynomial; qprec None or a window."""
    q0, g = draw(st.integers(-6, 6)), draw(st.sampled_from([1, 3, 24]))
    y_free = draw(st.booleans())
    y0 = 4 * draw(st.integers(-2, 2)) + 2 * draw(st.integers(0, 1))
    lead = draw(st.sampled_from(["unit", "monomial", "polynomial"]))
    nonzero = st.integers(-5, 5).filter(bool)
    terms = {(q0, y0): draw(st.sampled_from([1, -1]) if lead == "unit" else nonzero)}
    if lead == "polynomial" and not y_free:
        terms[(q0, y0 + 4 * draw(st.integers(1, 2)))] = draw(nonzero)
    for i in range(1, draw(st.integers(1, 6))):
        if draw(st.integers(0, 3)):  # else a q-gap
            for u in [0] if y_free else draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3)):
                terms[(q0 + g * i, y0 + 4 * u)] = draw(nonzero)
    top = max(nq for nq, _ in terms)
    qprec = draw(st.one_of(st.none(), st.integers(q0 + 1, top + 2 * g)))
    return Series(DEN2, terms, qprec)


@given(power_bases(), st.integers(0, 12))
@settings(max_examples=150, deadline=None)
def test_power_equals_plain_products(b, k):
    got = b ** k
    assert got == plain_power(b, k)
    q0 = b.min_nq()
    assert got.qprec == (b.qprec if k == 0 or b.qprec is None else b.qprec + (k - 1) * q0)


@given(power_bases(), st.integers(-6, -1))
@settings(max_examples=150, deadline=None)
def test_negative_power_equals_inverse_products(b, k):
    """A lowest row +-y**a gives the exact_div inverse times itself; any
    other lowest row, or an exact series of several q-rows, raises."""
    row0 = [c for (nq, _), c in b.terms.items() if nq == b.min_nq()]
    rows = {nq for nq, _ in b.terms}
    if row0 in ([1], [-1]) and (b.qprec is not None or len(rows) == 1):
        got = b ** k
        assert got == plain_power(b, k)
        assert got.qprec == (None if b.qprec is None else b.qprec + (k - 1) * b.min_nq())
    else:
        with pytest.raises(InexactDivisionError, match="lowest q-row"):
            b ** k


@pytest.mark.parametrize("base, k", [
    ("theta", 12), ("theta", -1), ("theta_rest", -3), ("theta_rest", 5), ("euler", -12),
])
def test_power_at_forty_orders_equals_plain_products(base, k):
    """Coefficients past 2**40 at 40 q-orders: the slot width holds them."""
    from jacobilift.jacobi import theta_jacobi
    from jacobilift.lifts import _theta_rest
    from jacobilift.modular import euler_product

    if base == "theta" and k < 0:  # theta's lowest row y**(1/2) - y**(-1/2) is no monomial
        with pytest.raises(InexactDivisionError, match="lowest q-row"):
            theta_jacobi(24 * 40) ** k
        return
    b = {"theta": theta_jacobi, "theta_rest": lambda qp: _theta_rest(qp, 8),
         "euler": euler_product}[base](24 * 40)
    assert b ** k == plain_power(b, k)


def test_negative_power_slots_hold_the_unsigned_majorant():
    """1/(1 + 42 q**2 y - 32 q**3 y**-2)**4 at 8 orders: the slot width must
    come from (1 - sum_{j>=1} |b_j|_1 t**j)**k, whose coefficients do not
    cancel; the alternating (1 + sum_{j>=1} |b_j|_1 t**j)**k is too narrow."""
    b = Series(DEN2, {(0, 0): 1, (48, 4): 42, (72, -8): -32}, 24 * 8)
    assert b ** -4 == plain_power(b, -4)


@pytest.mark.parametrize("b", [
    Series(DEN2, {(0, 0): 1, (0, 4): 1, (24, 0): 1}, 240),  # 1 + y, then q
    Series(DEN2, {(0, 0): 2, (24, 0): 1}, 240),  # 2 + q
    Series(DEN2, {(0, 0): 1, (24, 4): 1}, None),  # 1 + q y: 1/b has no last q-row
])
def test_negative_power_needs_a_unit_monomial_lowest_row(b):
    with pytest.raises(InexactDivisionError, match="lowest q-row"):
        b ** -2
    assert b ** 2 == b * b


def test_power_refuses_three_variables_and_the_zero_inverse():
    with pytest.raises(ValidationError, match="two-variable"):
        Series.const(1, DEN3, 24) ** 2
    with pytest.raises(ValidationError, match="integer exponent"):
        Series.const(1, DEN2, 24) ** 0.5
    with pytest.raises(ZeroDivisionError):
        Series.zero(DEN2, 24) ** -1
    assert Series.zero(DEN2, 24) ** 3 == Series.zero(DEN2, 24)
    assert Series.zero(DEN2, 24) ** 0 == Series.const(1, DEN2, 24)


# ---- row division against the min-scan long division ----------------------


def reference_exact_div(a, b):
    """Long division that picks each step's key by a scan of the whole
    remainder, with a constant y-guard: the route exact_div replaced."""
    kb = min(b.terms)
    cb = b.terms[kb]
    alpha, beta = a.min_nq(), kb[0]
    qprec = _min_prec(
        None if a.qprec is None else a.qprec - beta,
        None if b.qprec is None else b.qprec - 2 * beta + alpha,
    )
    if a.is_zero():
        return Series.zero(a.den, qprec)
    if qprec is None:
        box = [
            (min(ca) - min(cb), max(ca) - max(cb))
            for ca, cb in zip(zip(*a.terms), zip(*b.terms))
        ]
    else:
        ya, yb = [k[1] for k in a.terms], [k[1] for k in b.terms]
        ylimit = 2 * (max(ya) - min(ya)) + 4 * (max(yb) - min(yb)) + 512
    rem_bound = None if qprec is None else qprec + beta
    rem = {k: c for k, c in a.terms.items() if rem_bound is None or k[0] < rem_bound}
    quot = {}
    while rem:
        k = min(rem)
        qk = tuple(u - v for u, v in zip(k, kb))
        if qprec is None:
            if any(not lo <= v <= hi for v, (lo, hi) in zip(qk, box)):
                raise InexactDivisionError(f"quotient term {qk} outside {box}")
        elif qk[0] >= qprec:
            break
        elif abs(qk[1]) > ylimit:
            raise InexactDivisionError(f"quotient y-exponent {qk[1]} exceeds {ylimit}")
        qc, r = divmod(rem[k], cb)
        if r:
            raise InexactDivisionError(f"{rem[k]} not divisible by {cb}")
        quot[qk] = qc
        for kbi, cbi in b.terms.items():
            key = tuple(u + v for u, v in zip(qk, kbi))
            if rem_bound is not None and key[0] >= rem_bound:
                continue
            new = rem.get(key, 0) - qc * cbi
            if new == 0:
                rem.pop(key, None)
            else:
                rem[key] = new
    return Series(a.den, quot, qprec, _clean=True)


def division_or_error(a, b, divide):
    try:
        return divide(a, b)
    except InexactDivisionError:
        return InexactDivisionError


@st.composite
def division_case(draw):
    """A (q, y) dividend and divisor, truncated or exact: the dividend is
    the divisor times a random quotient, sometimes with one term changed,
    or unrelated to it."""
    key = st.tuples(st.integers(-1, 4).map(lambda i: 24 * i), st.integers(-8, 8))
    precs = st.one_of(st.none(), st.integers(-24, 24 * 6))
    b = draw(st.dictionaries(key, COEFFS.filter(bool), min_size=1, max_size=5))
    b[min(b)] = draw(st.sampled_from([1, -1, 2, -3]))
    b = Series(DEN2, b, draw(precs))
    assume(b.terms)
    c = Series(DEN2, draw(st.dictionaries(key, COEFFS, max_size=5)), draw(precs))
    kind = draw(st.sampled_from(["exact", "changed", "unrelated"]))
    a = b * c if kind != "unrelated" else c
    if kind == "changed":
        a = a + Series(DEN2, {draw(key): draw(COEFFS.filter(bool))}, None)
    a = a.truncate(draw(precs)) if draw(st.booleans()) else a
    if b.qprec is None and a.qprec is not None and draw(st.booleans()):
        a = Series(DEN2, a.terms, None)  # an exact dividend over an exact divisor
    return a, b


@given(division_case())
@settings(max_examples=200, deadline=None)
def test_row_division_equals_min_scan_division(case):
    a, b = case
    got = division_or_error(a, b, Series.exact_div)
    want = division_or_error(a, b, reference_exact_div)
    assert got == want
    if isinstance(got, Series):
        assert got.qprec == want.qprec


# ---- packed (q, y) products on _Rows against the dict loop ----------------

BIG = 2**200


@st.composite
def lattice_series(draw, nvars, min_size=1, max_size=40):
    """A Z-series on a lattice like the forms' (q in 24Z, y in 4Z or 4Z + 2),
    sometimes on the plain integer lattice, with small or huge coefficients."""
    qstep = draw(st.sampled_from([24, 1]))
    yoff = draw(st.sampled_from([0, 2]))
    axes = [
        st.integers(-2, 10).map(lambda i: qstep * i),
        st.integers(-6, 6).map(lambda j: 4 * j + yoff),
    ]
    if nvars == 3:
        axes.append(st.integers(0, 3).map(lambda m: 24 * m))
    coeff = st.one_of(st.sampled_from([-1, 1]), st.integers(-BIG, BIG)).filter(bool)
    terms = draw(st.dictionaries(st.tuples(*axes), coeff, min_size=min_size, max_size=max_size))
    qprec = draw(st.one_of(st.none(), st.integers(-48, 300)))
    return Series(DEN3 if nvars == 3 else DEN2, terms, qprec)


def s_levels(terms):
    """{ms: (q, y) terms at s**(ms/24)} of a (q, y, s) term dict."""
    levels = {}
    for (nq, ly, ms), c in terms.items():
        levels.setdefault(ms, {})[(nq, ly)] = c
    return levels


def rows_product(a, b, qprec):
    """The rows product of two term dicts below qprec, whatever the route
    gate says, and its slot width in bytes (0 when no pair reaches qprec).
    (q, y, s) products are never packed: theirs is the sum over pairs of
    s-levels of rows products of (q, y) levels, the widest slot counted, an
    independent route to the dict loop they take."""
    if len(next(iter(a))) == 2:
        widths = [0]

        def unpack(rows, layout, width):
            widths.append(width)
            return _unpack_rows(rows, layout, width)

        with mock.patch.object(series, "_unpack_rows", unpack):
            return _mul_rows(a, b, min(a)[0], min(b)[0], qprec), widths[-1]
    levels_a = s_levels(a)
    levels_b = levels_a if b is a else s_levels(b)
    out, width = {}, 0
    for ms, level_a in levels_a.items():
        for mt, level_b in levels_b.items():
            terms, w = rows_product(level_a, level_b, qprec)
            width = max(width, w)
            for (nq, ly), c in terms.items():
                out[(nq, ly, ms + mt)] = out.get((nq, ly, ms + mt), 0) + c
    return {key: c for key, c in out.items() if c}, width


def both_routes(a, b, qprec):
    """The packed and the dict product of two term dicts below qprec."""
    small, large = sorted((a, b), key=len)
    nvars = len(next(iter(a)))
    return rows_product(small, large, qprec)[0], _mul_dict(small, large, qprec, nvars)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_packed_product_equals_dict_product(data):
    nvars = data.draw(st.sampled_from([2, 3]))
    a = data.draw(lattice_series(nvars))
    b = data.draw(lattice_series(nvars))
    assume(a.terms and b.terms)
    prod = a * b
    packed, plain = both_routes(a.terms, b.terms, prod.qprec)
    assert packed == plain == prod.terms
    assert Series(a.den, packed, prod.qprec, _clean=True) == prod
    # a short or empty window, and a square (one packed operand)
    low = min(k[0] for k in a.terms) + min(k[0] for k in b.terms)
    window = data.draw(st.one_of(st.none(), st.integers(low - 48, low + 48)))
    packed, plain = both_routes(a.terms, b.terms, window)
    assert packed == plain
    assert rows_product(a.terms, a.terms, window)[0] == _mul_dict(a.terms, a.terms, window, nvars)


def grid(rows, cols, coeff=1, yoff=0, s=None):
    """rows x cols terms on the (24Z, 4Z + yoff) lattice, at s**(s/24)
    when s is given."""
    terms = {(24 * i, 4 * j + yoff): coeff * (i + j + 1) for i in range(rows) for j in range(cols)}
    return terms if s is None else {key + (s,): c for key, c in terms.items()}


def test_packed_product_cancels_and_keeps_no_zero_terms():
    ones = {(0, 4 * j): 1 for j in range(40)}
    step = {(0, 0): 1, (0, 4): -1, (24, 2): BIG, (24, 6): -BIG}
    packed, plain = both_routes(ones, step, None)
    assert packed == plain and (0, 4 * 40) in packed and (0, 4) not in packed


def sized(width, sign, nvars, yoff=0):
    """4 x 4 (x 2 in s) terms whose products with sized(width, ...) need
    width-byte slots: coefficients up to 2**(4 width - 6), mixed signs
    (sign 1) or all negative (sign -1)."""
    top = 1 << (4 * width - 6)
    keys = [(24 * i, 4 * j + yoff, 24 * m)[:nvars] for i in range(4) for j in range(4) for m in range(2)]
    return {key: (sign if sign < 0 else (-1) ** sum(key)) * (top - sum(key)) for key in keys}


@pytest.mark.parametrize("width", [7, 8, 9, 16, 17])  # slots of 1, 1, 2, 2, 3 words
@pytest.mark.parametrize("sign, nvars, square", [
    (1, 2, False), (-1, 2, False), (1, 2, True), (-1, 2, True), (1, 3, False), (-1, 3, True),
])
def test_packed_product_at_slot_widths_around_whole_words(width, sign, nvars, square):
    a = sized(width, sign, nvars)
    b = a if square else sized(width, sign, nvars, yoff=2)
    for qprec in (None, 49):
        assert rows_product(a, b, qprec) == (_mul_dict(a, b, qprec, nvars), width)


@pytest.mark.parametrize("nvars", [2, 3])
def test_packed_product_slots_past_the_window_overflow_harmlessly(nvars):
    """Slots are sized for the rows below the window (2**400, 51 bytes):
    the q**2 row, with terms about 2**800, is never formed."""
    big = 2**400
    a = {(0, 0, 0): 1, (0, 4, 0): -3, (24, 0, 24): big, (24, 8, 0): -big}
    b = {(0, 2, 0): 5, (24, 2, 24): -big, (24, -2, 0): big - 1}
    a, b = ({k[:nvars]: c for k, c in t.items()} for t in (a, b))
    assert rows_product(a, b, 25) == (_mul_dict(a, b, 25, nvars), 51)
    assert 51 < (max(map(abs, _mul_dict(a, b, None, nvars).values())).bit_length() + 2) // 8


@pytest.mark.parametrize("c, d", [(3, -5), (-(2**70), -(2**70)), (2**63 - 1, 1), (-(2**69), 1)])
def test_packed_product_of_one_slot(c, d):
    key = (24, 6)
    assert _mul_rows({key: c}, {key: d}, 24, 24, None) == {(48, 12): c * d}


def y_free(rows, start=0):
    """A y-free series of rows terms from q**(start/24), like an eta power."""
    return {(start + 24 * i, 0): (-1) ** i * (i + 1) for i in range(rows)}


@pytest.mark.parametrize("a, b", [
    # the lowest-q term is not the lowest y: the y origin is the lowest y of all terms
    (grid(4, 4) | {(96, -40): 7, (120, -60): -5}, grid(3, 6, 2, 2) | {(72, -24): 3}),
    (y_free(20), grid(4, 5, -3, 2)),  # a y-free operand on the left
    (grid(4, 5, -3, 2), y_free(20, -24)),  # and on the right
    # q-gaps, g = 48 from origins 5 and -19, and half-integral y on one side
    ({(5 + 48 * i, 4 * j + 2): i - j for i in range(5) for j in range(5)},
     {(-19 + 96 * i, 8 * j): i + j + 1 for i in range(4) for j in range(4)}),
])
@pytest.mark.parametrize("cut", [None, 2, 5])  # None: qprec=None; else rows below the window
def test_packed_product_of_skewed_operands(a, b, cut):
    """The rows route, forced and through Series.__mul__, equals the dict
    loop on operands that are not weak-form shaped, on their exact product
    and on windows that cut both operands."""
    qprec = None if cut is None else min(a)[0] + min(b)[0] + 24 * cut
    small, large = sorted((a, b), key=len)
    want = _mul_dict(small, large, qprec, 2)
    assert rows_product(a, b, qprec)[0] == want == rows_product(b, a, qprec)[0]
    assert (Series(DEN2, a, None) * Series(DEN2, b, None)).truncate(qprec).terms == want


def test_packed_products_of_the_phi01_build_equal_the_dict_loop(monkeypatch):
    """Every rows product that _phi01_series makes at 100 q-orders, the
    heat series times eta**-6 (a y-free factor) among them, equals the
    dict loop."""
    products = []
    mul_rows = series._mul_rows

    def recorded(a, b, qa, qb, qprec):
        products.append((a, b, qprec, mul_rows(a, b, qa, qb, qprec)))
        return products[-1][-1]

    monkeypatch.setattr(series, "_mul_rows", recorded)
    _phi01_series(24 * 100)
    assert any(all(ly == 0 for _, ly in a) and len(b) > 2000 for a, b, _, _ in products)
    for a, b, qprec, got in products:
        assert got == _mul_dict(a, b, qprec, 2)


def test_sparse_factor_products_pack(monkeypatch):
    """theta times phi01 at 40 orders, a sparse factor of 18 terms (at
    least 16, its square at most the other's 678), goes through
    Series.__mul__ on the rows and equals the dict loop."""
    from jacobilift.jacobi import theta_jacobi

    theta, phi = theta_jacobi(24 * 40), _phi01_series(24 * 40)
    calls = []
    mul_rows = series._mul_rows
    monkeypatch.setattr(series, "_mul_rows", lambda *args: calls.append(1) or mul_rows(*args))
    assert 16 <= len(theta.terms) and len(theta.terms) ** 2 <= len(phi.terms)
    for prod in (theta * phi, phi * theta):
        assert prod.terms == _mul_dict(theta.terms, phi.terms, prod.qprec, 2)
    assert len(calls) == 2


@pytest.mark.parametrize("bound", [0, 1, 127, 128, 255, 2**15 - 1, 2**15, 3**200])
def test_slot_width_holds_the_bound_with_a_sign_bit(bound):
    """The least whole number of bytes whose signed range holds +-bound."""
    width = _Rows.width(bound)
    assert bound < 2 ** (8 * width - 1)
    assert width == 1 or bound >= 2 ** (8 * width - 9)


def test_row_norms_skip_rows_past_orders():
    """Row l1 norms in a layout, rows from its origin q0 in steps of g,
    with no band test: a term far out in y counts, a row past orders does not."""
    terms = {(5, 0): 3, (5, 400): -4, (53, -8): -1, (53, 8): 2, (101, 0): 7}
    assert _Rows.norms(terms, (5, 48, 0, 4, 0), 2).rows == [7, 3]
    assert _Rows.norms(terms, (5, 48, 0, 4, 0), 4).rows == [7, 3, 7, 0]


@pytest.mark.parametrize("small, large, qprec, route", [
    (grid(3, 5), grid(3, 5), None, "dict"),  # 15 terms: below the size gate
    (grid(4, 4), grid(4, 4), None, "packed"),  # 16 x 16 dense
    (grid(4, 4), grid(16, 16), None, "packed"),  # 16 = sqrt(256): a sparse factor packs too
    (grid(4, 4), grid(15, 17), None, "packed"),  # 16 x 255
    (grid(4, 4), grid(4, 4, -1, 2), 25, "dict"),  # qprec 25 leaves 8 terms: below the gate
    (grid(16, 3, BIG), grid(16, 3, -BIG), None, "packed"),  # 52-byte slots
    (grid(4, 4, s=24), grid(4, 4, s=0), None, "dict"),  # 16 x 16 dense in (q, y, s)
    # 256 pairs in a row of 481 y-slots: packed, as no cost rule declines a product
    ({(0, 4 * j * j): j + 1 for j in range(16)}, {(0, 4 * j * j): -j for j in range(16, 0, -1)},
     None, "packed"),
])
def test_product_route_at_the_rule_boundary(monkeypatch, small, large, qprec, route):
    calls = []
    mul_rows = series._mul_rows
    monkeypatch.setattr(series, "_mul_rows", lambda *args: calls.append(1) or mul_rows(*args))
    nvars = len(next(iter(small)))
    den = DEN3 if nvars == 3 else DEN2
    a, b = Series(den, small, qprec), Series(den, large, qprec)
    prod = a * b
    assert prod.terms == _mul_dict(a.terms, b.terms, prod.qprec, nvars)
    assert ("packed" if calls else "dict") == route


# ---- sums of products against the dict loop --------------------------------


def dict_sum(pairs, qprec, nvars):
    """sum a*b over pairs, one _mul_dict product each, added in a dict."""
    out = {}
    for a, b in pairs:
        if a and b:
            for key, c in _mul_dict(*sorted((a, b), key=len), qprec, nvars).items():
                out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def series_sum(pairs, qprec, nvars):
    """sum a*b over pairs below qprec by Series.__mul__ and Series addition:
    each operand is cut where it stops reaching qprec, so each product
    keeps qprec (a pair whose lowest terms meet at or past qprec adds
    nothing below it)."""
    den = DEN3 if nvars == 3 else DEN2
    total = Series(den, {}, qprec)
    for a, b in pairs:
        if a and b:
            qa, qb = min(a)[0], min(b)[0]
            if qprec is None:
                total = total + Series(den, a, None) * Series(den, b, None)
            elif qa + qb < qprec:
                total = total + Series(den, a, qprec - qb) * Series(den, b, qprec - qa)
    return total.terms


def packed_sum(pairs, qprec):
    """The rows route for each product, whatever the route gate says,
    added in a dict."""
    out = {}
    for a, b in pairs:
        if a and b:
            for key, c in rows_product(*sorted((a, b), key=len), qprec)[0].items():
                out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_packed_sum_equals_dict_products(data):
    """Any number of pairs, on 2 or 3 axes, some operands empty, y-offsets
    0 or 2 mod 4 per operand, and a sum that cancels to nothing."""
    nvars = data.draw(st.sampled_from([2, 3]))
    pairs = [
        (data.draw(lattice_series(nvars, min_size=0)).terms,
         data.draw(lattice_series(nvars, min_size=0)).terms)
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    if data.draw(st.booleans()):  # total cancellation
        pairs += [(a, {k: -c for k, c in b.items()}) for a, b in pairs]
    qprec = data.draw(st.one_of(st.none(), st.integers(-48, 300)))
    want = dict_sum(pairs, qprec, nvars)
    assert series_sum(pairs, qprec, nvars) == want
    assert packed_sum(pairs, qprec) == want


@pytest.mark.parametrize("width", [7, 8, 9, 16, 17])
@pytest.mark.parametrize("nvars", [2, 3])
def test_packed_sum_at_slot_widths_with_offsets_apart_mod_4(width, nvars):
    """A wide pair on y in 4Z and a narrow one whose operands sit on y in
    4Z + 2 and 4Z, with lowest keys elsewhere: each product by
    Series.__mul__ and by the packed route equals the dict loop, and the
    sums cancel to nothing."""
    wide = (sized(width, 1, nvars), sized(width, -1, nvars))
    s = 24 if nvars == 3 else None
    narrow = (grid(3, 5, -1, 2, s), grid(4, 2, 3, s=s))
    pairs = [wide, narrow]
    for qprec in (None, 49):
        assert rows_product(*wide, qprec)[1] == width
        want = dict_sum(pairs, qprec, nvars)
        assert series_sum(pairs, qprec, nvars) == want == packed_sum(pairs, qprec)
        cancel = pairs + [(a, {k: -c for k, c in b.items()}) for a, b in pairs]
        assert series_sum(cancel, qprec, nvars) == {} == packed_sum(cancel, qprec)


# ---- the _Rows square and the row read-back ----------------------------------

ROW_VALUES = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-BIG, BIG))


@given(st.lists(ROW_VALUES, max_size=6))
def test_rows_square_equals_the_general_product(rows):
    """A row list times itself (each cross product once, doubled) equals
    the product of two equal lists and the plain convolution, for lists of
    length 0 to 6 with zero and negative rows."""
    a = _Rows(rows)
    square = (a * a).rows
    assert square == (a * _Rows(list(rows))).rows
    assert square == [sum(rows[i] * rows[k - i] for i in range(k + 1)) for k in range(len(rows))]


def gate_rows(rng, count, top_bits):
    """count rows for the stripped-route tests, the last exactly top_bits
    bits long: zero rows (never the last), rows of either sign, rows whose
    lowest bit is set and rows with up to bits - 1 trailing zero bits."""
    rows = []
    for n in range(count):
        last = n == count - 1
        bits = top_bits if last else rng.randint(1, top_bits)
        kind = rng.choice(["low", "shifted"] if last else ["zero", "low", "shifted"])
        if kind == "zero":
            rows.append(0)
            continue
        zeros = rng.randint(1, bits - 1) if kind == "shifted" and bits > 1 else 0
        odd = rng.getrandbits(bits - zeros) | 1 | 1 << (bits - zeros - 1)
        rows.append(rng.choice([1, -1]) * (odd << zeros))
    return rows


def schoolbook(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("bits_a, bits_b", [
    (STRIP_MIN_BITS + 1, STRIP_MIN_BITS + 1),  # both just past the gate
    (4 * STRIP_MIN_BITS, STRIP_MIN_BITS + 1),
    (STRIP_MIN_BITS + 1, 4 * STRIP_MIN_BITS),
    (STRIP_MIN_BITS, 4 * STRIP_MIN_BITS),  # one operand at the gate: plain rows
    (4 * STRIP_MIN_BITS, 64),
    (64, 64),
])
def test_rows_products_on_both_sides_of_the_gate_equal_the_schoolbook_sum(strips, seed, bits_a, bits_b):
    """_Rows.__mul__ equals the plain schoolbook sum row by row, in the
    general and the square branch, with zero, negative, odd and shifted
    rows; it strips the rows exactly when the shorter of the operands'
    last rows is past STRIP_MIN_BITS."""
    rng = random.Random(f"{seed}:{bits_a}:{bits_b}")
    count = rng.randint(1, 8)
    a, b = (gate_rows(rng, count, bits) for bits in (bits_a, bits_b))
    assert (_Rows(a) * _Rows(b)).rows == schoolbook(a, b)
    assert strips == ([a, b] if min(bits_a, bits_b) > STRIP_MIN_BITS else [])
    strips.clear()
    square = _Rows(a)
    assert (square * square).rows == schoolbook(a, a)
    assert strips == ([a] if bits_a > STRIP_MIN_BITS else [])


def test_stripped_rows_shift_out_trailing_zero_bits():
    rows = [0, 1, -1, 12, -12, 5 << 3000, -(7 << 2101)]
    assert _Rows._stripped(rows) == ([0, 1, -1, 3, -3, 5, -7], [0, 0, 0, 2, 2, 3000, 2101])


@pytest.mark.parametrize("x, y", [(2, 4), (3, 3)])
def test_series_products_past_the_gate_equal_the_dict_loop(strips, x, y):
    """phi02 phi04 and the square phi03**2 at 48 q-orders take the stripped
    rows in Series.__mul__ and equal the dict loop."""
    from jacobilift.jacobi import generator

    a, b = (generator(m, 24 * 48).series for m in (x, y))
    prod = a * b
    assert strips and prod.qprec == 24 * 48
    assert prod.terms == _mul_dict(a.terms, b.terms, prod.qprec, 2)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_unpack_rows_reads_back_what_was_packed(data):
    """Terms packed on q-rows, some rows empty, slots of either sign at
    every width from one byte to past a 64-bit word, read back to the same
    terms; a key is built only for a nonzero slot."""
    width = data.draw(st.integers(1, 10))
    top = 1 << (8 * width - 1)
    s = data.draw(st.integers(0, 2))
    orders = data.draw(st.integers(1, 9))
    terms = data.draw(st.dictionaries(
        st.integers(0, orders - 1).flatmap(
            lambda n: st.tuples(st.just(24 * n), st.integers(-8 - s * n, 8 + s * n))),
        st.integers(-top + 1, top - 1).filter(bool), max_size=30))
    layout = (0, 24, -8, 1, s)
    rows = _Rows.pack(terms, layout, orders, width).rows
    assert _unpack_rows(rows, layout, width) == terms



# ---- exact division by an int ---------------------------------------------


@given(st.data(), st.integers(2, 3), st.one_of(st.integers(-9, 9), st.integers(-BIG, BIG)).filter(bool))
@settings(max_examples=100, deadline=None)
def test_exact_div_by_an_int_inverts_scaling(data, nvars, d):
    """(s * d).exact_div(d) == s, qprec kept, for (q, y) and (q, y, s)
    series, exact or not, and every nonzero d, negative and huge ones too."""
    s = data.draw(lattice_series(nvars, min_size=0))
    quotient = (s * d).exact_div(d)
    assert quotient == s and quotient.qprec == s.qprec and quotient.den == s.den


@pytest.mark.parametrize("den, key", [(DEN2, (24, -4)), (DEN3, (24, -4, 48))])
def test_exact_div_by_an_int_names_the_coefficient_and_its_key(den, key):
    s = Series(den, {(0,) * len(den): 6, key: 9}, 48)
    with pytest.raises(InexactDivisionError, match=re.escape(f"coefficient 9 at {key} is not "
                                                             "divisible by 6")):
        s.exact_div(-6)
    assert s.exact_div(3) == Series(den, {(0,) * len(den): 2, key: 3}, 48)


def test_exact_div_by_zero_raises():
    for s in (Series.const(2, DEN2, 24), Series.zero(DEN3, None)):
        with pytest.raises(ZeroDivisionError):
            s.exact_div(0)
