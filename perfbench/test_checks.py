"""Each output check passes on the program's real output and rejects the
same output with one coefficient altered.

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import checks as C  # noqa: E402
import workloads as W  # noqa: E402
import jacobilift as J  # noqa: E402
from jacobilift import lifts as L  # noqa: E402
from jacobilift.series import series_to_dict  # noqa: E402


def altered(terms, key=None, by=1):
    """A copy with one coefficient changed (the given key, or the first in
    sorted order past the q^0 row)."""
    out = dict(terms)
    if key is None:
        key = next(k for k in sorted(out) if k[0] > 0)
    out[key] = out.get(key, 0) + by
    return out


@pytest.fixture(scope="module")
def phi01():
    return J.generator(1, 24 * 8)


@pytest.fixture(scope="module")
def delta5():
    qp, sp, inq = L.lift_window_for(J.generator(1, 24), 3, 3)
    return L.exp_lift(J.generator(1, inq), qp, sp).series.terms


def test_paper_q0_rows():
    for m, row in C.PAPER_Q0_ROWS.items():
        terms = J.generator(m, 48).series.terms
        assert C.q0_row("phi", terms, row) == []
        assert C.q0_row("phi", altered(terms, (0, 0)), row)


def test_row_sums(phi01):
    terms = phi01.series.terms
    assert C.row_sums_vanish("phi01", terms, 24 * 8) == []
    assert C.row_sums_vanish("phi01", altered(terms, (48, 8)), 24 * 8)


def test_theta_classes(phi01):
    terms = phi01.series.terms
    assert C.theta_classes("phi01", terms, 2, 24 * 8) == []
    # a reduced representative and a shifted one
    assert C.theta_classes("phi01", altered(terms, (24, 0)), 2, 24 * 8)
    assert C.theta_classes("phi01", altered(terms, (72, 12)), 2, 24 * 8)
    xi = J.xi06(24 * 6).series.terms
    assert C.theta_classes("xi06", xi, 12, 24 * 6) == []
    assert C.theta_classes("xi06", altered(xi, (120, 32)), 12, 24 * 6)


def test_xi06_start():
    terms = J.xi06(24 * 3).series.terms
    assert C.xi06_start("xi06", terms) == []
    assert C.xi06_start("xi06", altered(terms, (24, 4)))


def test_genus_product_and_q0_row():
    k3 = J.elliptic_genus(J.CYInvariants(2, W.K3), qprec=24 * 4).series.terms
    chi = C.chi_y_product(W.K3, W.K3)
    k3sq = J.elliptic_genus(J.CYInvariants(4, chi), qprec=24 * 4).series.terms
    want = C.mul(k3, k3, 24 * 4)
    assert C.equal_terms("K3^2", k3sq, want, 24 * 4) == []
    assert C.equal_terms("K3^2", altered(k3sq), want, 24 * 4)
    assert C.genus_q0_row("K3^2", k3sq, chi) == []
    assert C.genus_q0_row("K3^2", altered(k3sq, (0, 4)), chi)


def test_decompose_polynomial():
    layers = [W.random_poly(__import__("random").Random(5), 7), {(1, 0, 0, 0): 3}]
    _, form, dec, rebuilt = W._decompose_round_trip(J, layers)
    want = C.poly_add(layers[0], C.poly_mul(layers[1], C.XI06_POLY))
    got = dec.poly.terms
    assert C.poly_same_form("dec", got, want) == []
    # the relation 4 Phi4 = Phi1 Phi3 - Phi2^2 is not a difference
    shifted = C.poly_add(got, C.poly_mul({(3, 0, 0, 0): 1},
                                          {(0, 0, 0, 1): 4, (1, 0, 1, 0): -1, (0, 2, 0, 0): 1}))
    assert C.poly_same_form("dec", shifted, want) == []
    assert C.poly_same_form("dec", altered(got, next(iter(got))), want)
    assert C.equal_terms("rebuilt", rebuilt.series.terms, form.series.terms, 24 * 6) == []
    assert C.equal_terms("rebuilt", altered(rebuilt.series.terms), form.series.terms, 24 * 6)


def mirrored(terms, key, by=1):
    """A copy with c(key) raised by `by` and its y-mirror lowered by it,
    so the expansion stays odd in z."""
    out = altered(terms, key, by)
    return altered(out, (key[0], -key[1], key[2]), -by)


def test_paramodular_lift(delta5):
    assert C.paramodular_lift("d5", delta5, 1) == []
    assert C.paramodular_lift("d5", altered(delta5, next(iter(delta5))), 1)
    swapped = next(k for k in sorted(delta5) if k[0] != k[2])
    assert C.paramodular_lift("d5", mirrored(delta5, swapped), 1)
    assert C.paramodular_lift("d5", mirrored(delta5, (12, 2, 12)), 1)
    qp, sp, inq = L.lift_window_for(J.generator(4, 24), 5, 5)
    d12 = L.exp_lift(J.generator(4, inq), qp, sp).series.terms
    assert C.paramodular_lift("d1/2", d12, 4) == []
    assert C.paramodular_lift("d1/2", altered(d12, (27, 6, 12)), 4)
    # (27, 6, 12) and (3, 6, 108) are exchanged by V_4
    assert C.paramodular_lift("d1/2", mirrored(d12, (27, 6, 12)), 4)
    assert C.paramodular_lift("d1/2", mirrored(d12, (3, 2, 12)), 4)
    assert C.paramodular_lift("d1/2", d12, 2)


def test_lift_equals_arithmetic_lift():
    qp, sp, inq = L.lift_window_for(J.generator(2, 24), 3, 3)
    lifted = L.exp_lift(J.generator(2, inq), qp, sp).series.terms
    summed = L.arithmetic_lift("Delta2", qp, sp).series.terms
    assert C.window_equal("d2", lifted, summed, qp, sp) == []
    assert C.window_equal("d2", altered(lifted, sorted(lifted)[-1]), summed, qp, sp)
    assert C.paramodular_lift("d2", summed, 2) == []
    assert C.paramodular_lift("d2", altered(summed, sorted(summed)[-1]), 2)
    swapped = next(k for k in sorted(summed) if 2 * k[0] != k[2])
    assert C.paramodular_lift("d2", mirrored(summed, swapped), 2)


def test_lift_prefactor():
    for m in (1, 2, 3, 4):
        form = J.generator(m, 48)
        a, _, c = L.abc_exponents(form)
        assert C.lift_prefactor(C.rows(form.series.terms)[0]) == (24 * a, 24 * c)


def test_sqeg_checks():
    chi = J.elliptic_genus(J.CYInvariants(2, W.K3), qprec=24 * 11)
    z = L.sqeg(chi, 73, 73).terms
    assert C.sqeg_y1("sqeg", z, 24, 73, 73) == []
    assert C.sqeg_y1("sqeg", altered(z, (24, 4, 48)), 24, 73, 73)
    assert C.equal_terms("p1", C.p_slice(z, 24), chi.series.terms, 73) == []
    assert C.equal_terms("p1", C.p_slice(altered(z, (48, 4, 24)), 24), chi.series.terms, 73)


def test_eform_check(delta5):
    e = L.e_form(J.CYInvariants(2, W.K3), 49, 49, ywindow=60)
    d5 = json.dumps({"terms": [list(k) + [str(c)] for k, c in delta5.items()]})
    text = json.dumps(e.to_dict())
    assert W.check_eform(text, {("lift", "explift"): d5}) == []
    data = e.to_dict()
    bad = [t for t in data["terms"] if t[0] <= 0 and t[2] <= 0 and abs(t[1]) <= 16]
    bad[0][3] = str(int(bad[0][3]) + 1)
    assert W.check_eform(json.dumps(data), {("lift", "explift"): d5})


def test_expand_check():
    poly = {(2, 1, 0, 0): 3, (0, 0, 0, 1): -2, (1, 0, 1, 0): 5, (0, 2, 0, 0): 1, (4, 0, 0, 0): -1}
    form = J.GeneratorPolynomial(poly).evaluate(tuple(J.generator(m, 24 * 5) for m in (1, 2, 3, 4)))
    data = {"weight2": 0, "index2": form.index2, "series": series_to_dict(form.series)}
    assert W.check_expand(json.dumps(data), poly) == []
    data["series"]["terms"][0][2] = str(int(data["series"]["terms"][0][2]) + 1)
    assert W.check_expand(json.dumps(data), poly)


def test_verify_check():
    good = "ok   [ring] a\nok   [basis] b\nok   [hecke] c\nok   [congruences] d\nok   [lifts] e\nsuite all: ok"
    assert W.check_verify(good) == []
    assert W.check_verify(good.replace("ok   [hecke]", "FAIL [hecke]"))
    assert W.check_verify(good.replace("ok   [lifts] e\n", ""))
