"""Named verification suites over the whole library.

Each suite function returns a list of check dicts {"name", "ok", "detail"};
run_suite wraps one suite (or "all") into a JSON-friendly report.  The
suites are the one statement of the identities the library is built
around: generator goldens, ring relations and the torsion special values,
the canonical-basis structure, Hecke identities, torsion-specialization
congruences, the Calabi-Yau layer, and the Siegel-lift batteries (dual
constructions, the theta-constant product, factorization, Humbert
multiplicities, homomorphism, mirror inversion, the Delta11 product and
the assemblies of Calabi-Yau genera from lift inputs).  The library
modules hold constructions only; an oracle that only a check uses is a
private helper here.  The acceptance tests group these checks by name
into thirteen criteria.
"""

import random
import time
from math import gcd, isqrt

from .errors import (IdentityError, InexactDivisionError, JacobiLiftError, PrecisionError,
                     ValidationError)
from .genpoly import GeneratorPolynomial
from .genus import (
    CY_RELATIONS,
    CYInvariants,
    ENRIQUES,
    K3,
    divisibility_report,
    elliptic_genus,
    relation_check,
)
from .jacobi import (
    JacobiForm,
    basis_psi,
    generator,
    hecke_t0_2,
    hecke_tminus,
    linear_residuals,
    phi_threehalf,
    polynomial_form,
    psi2_variant,
    specialize_center,
    specialize_torsion,
    xi06,
)
from .lifts import (
    ADDITIVE_LIFTS,
    SiegelSeries,
    _lift_at,
    _prefactor_key,
    arithmetic_lift,
    e_form,
    exp_lift,
    exp_lift_homomorphic,
    factorization_product,
    humbert_multiplicity,
    lift_window_for,
    siegel_omega_half_shift,
    siegel_scale,
    sqeg,
)
from .modular import eta_quotient
from .series import DEN2, DEN3, Series

GOLDEN_Q0_ROWS = {
    1: {4: 1, 0: 10, -4: 1},
    2: {4: 1, 0: 4, -4: 1},
    3: {4: 1, 0: 2, -4: 1},
    4: {4: 1, 0: 1, -4: 1},
}
GOLDEN_Q1_ROWS = {
    1: {-8: 10, -4: -64, 0: 108, 4: -64, 8: 10},
    2: {-12: 1, -8: -8, -4: -1, 0: 16, 4: -1, 8: -8, 12: 1},
    3: {-12: -2, -8: -2, -4: 2, 0: 4, 4: 2, 8: -2, 12: -2},
    4: {-16: -1, -12: -1, -4: 1, 0: 2, 4: 1, 12: -1, 16: -1},
}
ALPHA_COEFFS = [8, 2 ** 8, 2 ** 11, 11 * 2 ** 10, 3 * 2 ** 14, 359 * 2 ** 9]

# gamma = theta_00(2 tau)/theta_01(2 tau) as an eta_quotient spec
GAMMA = ((2, 6), (1, -4), (4, -2))

# The torsion values that are c times an eta quotient, by check name:
# ((form, k, e, a), c, spec) states form(tau, 1/k)**e - a == c * eta_quotient(spec),
# for the forms phi_01..phi_03 and xi_06 (alpha, beta and 2 gamma are the
# values of phi_01, phi_02 and phi_03 at z = 1/2, 1/3 and 1/4).
TORSION_ETA_QUOTIENTS = {
    "phi03(1/4) = 2*theta00(2t)/theta01(2t)": (("phi03", 4, 1, 0), 2, GAMMA),
    "alpha**2 - 64 = 2**12 Delta(2t)/Delta(t)": (("phi01", 2, 2, 64), 4096, ((2, 24), (1, -24))),
    "beta**3 - 27 = 3**6 (eta(3t)/eta(t))**12": (("phi02", 3, 3, 27), 729, ((3, 12), (1, -12))),
    "xi06(1/2) = 2**12 Delta(2t)/Delta(t)": (("xi06", 2, 1, 0), 4096, ((2, 24), (1, -24))),
    "xi06(1/3) = 3**6 (eta(3t)/eta(t))**12": (("xi06", 3, 1, 0), 729, ((3, 12), (1, -12))),
    "xi06(1/4) = 2**6 (eta(4t)/eta(2t))**12": (("xi06", 4, 1, 0), 64, ((4, 12), (2, -12))),
    "xi06(1/6) = (eta(t)eta(6t)/(eta(2t)eta(3t)))**12":
        (("xi06", 6, 1, 0), 1, ((1, 12), (6, 12), (2, -12), (3, -12))),
}


def _check(name, ok, detail=None):
    entry = {"name": name, "ok": bool(ok)}
    if detail is not None:
        entry["detail"] = detail
    return entry


def _nonempty(qprec, name):
    """The q-precision (1/24 units) of a compared window, which must hold
    at least one exponent: an empty window would compare nothing."""
    if qprec <= 0:
        raise PrecisionError(
            f"{name}: compared window is empty (q-precision {qprec}/24, "
            "needs > 0); increase qmax"
        )
    return qprec


def suite_ring(qmax=10):
    """Generator goldens, the two ring relations, and the special-value
    identities of the torsion specializations."""
    checks = []
    qp = 24 * (qmax + 2)
    for n, goldens in enumerate((GOLDEN_Q0_ROWS, GOLDEN_Q1_ROWS)):
        for m, row in goldens.items():
            checks.append(
                _check(f"phi_0{m} q^{n} row golden", generator(m, qp).q_row(n) == row)
            )
    window = _nonempty(24 * qmax, "ring relations")
    p1, p2, p3, p4 = (generator(m, qp) for m in (1, 2, 3, 4))
    rel = (p1 * p3 - p2 * p2).truncate(window)
    checks.append(
        _check(
            f"4*phi_04 == phi_01*phi_03 - phi_02^2 ({qmax} q-orders)",
            rel.same_terms((4 * p4).truncate(window)),
        )
    )
    xi = xi06(window)
    poly_val = polynomial_form(xi.poly, qp)
    checks.append(
        _check(
            f"xi_06 == -phi1^2 phi4 + 9 phi1 phi2 phi3 - 8 phi2^3 - 27 phi3^2"
            f" ({qmax} q-orders)",
            poly_val.truncate(window).series.same_terms(xi.series),
        )
    )
    alpha = specialize_torsion(generator(1, 24 * len(ALPHA_COEFFS)), 2)
    got = [alpha.coeff((24 * n, 0)) for n in range(6)]
    checks.append(_check("alpha q^0..q^5 coefficients", got == ALPHA_COEFFS, got))
    # each eta quotient is asked for half an order past qp: a negative
    # power of eta(4 tau) ends gamma's expansion half an order short
    forms = {"phi01": p1, "phi02": p2, "phi03": p3, "xi06": xi06(qp)}
    torsion = []
    for name, ((form, k, e, a), c, spec) in TORSION_ETA_QUOTIENTS.items():
        value = specialize_torsion(forms[form], k) ** e - Series.const(a, DEN2, qp)
        quotient = eta_quotient(spec, qp + 12).truncate(qp)
        torsion.append(_check(name, value.same_terms(quotient.scale(c))))
    alpha = specialize_torsion(p1, 2)
    gamma = eta_quotient(GAMMA, qp + 12).truncate(qp)
    # in the report's order: the gamma checks sit among the generators' values
    checks += torsion[:1] + [
        _check("alpha = 16*gamma**4 - 8",
               alpha.same_terms((gamma ** 4).scale(16) - Series.const(8, DEN2, qp))),
    ] + torsion[1:3] + [
        _check("alpha has positive coefficients", all(c > 0 for c in alpha.terms.values())),
        _check("gamma has positive coefficients", all(c > 0 for c in gamma.terms.values())),
    ] + torsion[3:]
    # center specializations (hat series)
    hat = {m: specialize_center(generator(m, qp)) for m in (1, 2, 3, 4)}
    for m, h in hat.items():
        _nonempty(h.qprec, f"hat phi_0{m}")
    checks.append(_check("hat phi_03 == 0", not hat[3].terms))
    checks.append(_check("hat phi_04 == -1", dict(hat[4].terms) == {(0, 0): -1}))
    checks.append(_check("hat phi_02 == -2", dict(hat[2].terms) == {(0, 0): -2}))
    sq = hat[1] * hat[1]
    lhs = sq + Series.const(64, DEN2, sq.qprec)
    compare_to = 2 * _nonempty(min(lhs.qprec, window), "hat phi_01^2 + 64")
    # compared at 2 tau, where (theta_00/eta)^12 is eta(2t)^48 / (eta(t) eta(4t))^24
    lhs = lhs.substitute([[2, 0], [0, 1]], compare_to)
    rhs = eta_quotient(((1, -24), (2, 48), (4, -24)), compare_to)
    checks.append(_check("hat phi_01^2 + 64 == (theta_00/eta)^12", lhs.same_terms(rhs)))
    return checks


def random_form(rng, qprec):
    """A random integer generator-polynomial of index 1..8, evaluated at
    qprec; the polynomial is the form's ``poly``."""
    m = rng.randint(1, 8)
    monomials = [
        (e1, e2, e3, e4)
        for e1 in range(m + 1)
        for e2 in range(m // 2 + 1)
        for e3 in range(m // 3 + 1)
        for e4 in range(m // 4 + 1)
        if e1 + 2 * e2 + 3 * e3 + 4 * e4 == m
    ]
    terms = {}
    while not terms:
        terms = {
            key: rng.randint(-9, 9) for key in monomials if rng.random() < 0.7
        }
        terms = {k: c for k, c in terms.items() if c}
    return polynomial_form(GeneratorPolynomial(terms), qprec)


def suite_basis(qmax=3):
    """Existence and canonical shape of the basis elements for index <= 12,
    plus the two linear residuals on generators, basis and 100 random
    forms."""
    checks = []
    qp = _nonempty(24 * qmax, "basis shapes and residuals")
    psi2_row = {8: 1, 4: -4, 0: 6, -4: -4, -8: 1}
    shape_ok = True
    bad = None
    for m in range(1, 13):
        pivot = m // gcd(12, m)
        for n in range(1, m + 1):
            row = basis_psi(m, n, qp).q_row(0)
            if n == 1:  # pivot * (y + 1/y) + c
                ok = set(row) <= {-4, 0, 4} and row.get(4) == pivot
            elif n == 2:
                ok = row == psi2_row
            else:  # top degree n, monic, no y^2..y^(n-1), y^1 reduced mod the pivot
                ok = (max(row) == 4 * n and row[4 * n] == 1 and 0 <= row.get(4, 0) < pivot
                      and all(row.get(4 * j, 0) == 0 for j in range(2, n)))
            if not ok:
                shape_ok = False
                bad = (m, n, row)
    checks.append(_check("basis (m <= 12) q^0 canonical shape", shape_ok, bad))
    checks.append(
        _check(
            "psi^(1)_{0,5} q^0 row == 5y + 2 + 5/y",
            basis_psi(5, 1, qp).q_row(0) == {4: 5, 0: 2, -4: 5},
        )
    )
    res_ok = True
    bad = None
    for m in (1, 2, 3, 4):
        if linear_residuals(generator(m, qp)) != (0, 0):
            res_ok = False
            bad = ("generator", m)
    for m in range(1, 13):
        for n in range(1, m + 1):
            if linear_residuals(basis_psi(m, n, qp)) != (0, 0):
                res_ok = False
                bad = ("basis", m, n)
    checks.append(_check("residuals vanish on generators and basis", res_ok, bad))
    rng = random.Random(1259)
    rand_ok = True
    bad = None
    for _ in range(100):
        form = random_form(rng, 72)
        if linear_residuals(form) != (0, 0):
            rand_ok = False
            bad = str(form.poly)
    checks.append(
        _check(
            "residuals vanish on 100 random generator polynomials",
            rand_ok,
            bad,
        )
    )
    return checks


def suite_hecke(qmax=6):
    """The index-raising Hecke identities and a structural check of the
    index-preserving operator."""
    checks = []
    qp = _nonempty(24 * qmax, "Hecke identities")
    lhs = hecke_tminus(generator(1, 24 * (2 * qmax + 1)), 2) - 2 * generator(
        2, qp
    ).truncate(qp)
    p1 = generator(1, qp + 24)
    p2 = generator(2, qp + 24)
    rhs = (p1 * p1 - 20 * p2).truncate(qp)
    checks.append(
        _check(
            f"phi_01|T_-(2) - 2 phi_02 == phi_01^2 - 20 phi_02 ({qmax} q-orders)",
            lhs.truncate(qp).same_terms(rhs),
        )
    )
    lhs = hecke_tminus(generator(1, 24 * (3 * qmax + 1)), 3) - 3 * generator(
        3, qp
    ).truncate(qp)
    checks.append(
        _check(
            f"psi^(3)_{{0,3}} == phi_01|T_-(3) - 3 phi_03 ({qmax} q-orders)",
            lhs.truncate(qp).same_terms(basis_psi(3, 3, qp + 24).truncate(qp)),
        )
    )
    out = hecke_t0_2(generator(2, 24 * (4 * qmax + 2)))
    try:
        classes = list(out.theta_table().classes())
        norms = {}  # norm-determined: one coefficient per D over the classes
        structural = (out.weight2 == 0 and out.index2 == 4 and bool(classes)
                      and all(norms.setdefault(d, c) == c for (d, _), c in classes))
    except JacobiLiftError:
        structural = False
    checks.append(
        _check("phi_02|T_0(2) is a norm-determined index-2 form", structural)
    )
    return checks


def suite_congruences(qmax=5):
    """The mod 2^k / 3^k congruence battery on 200 random integral weight-0
    forms of index 1..8, including the d*e = 0 mod 24 divisibility, and the
    Calabi-Yau layer: K3 and Enriques genera, the forced relations and the
    rejections for d = 4, 5 and 7."""
    rng = random.Random(682)
    qp = 24 * qmax
    # the q-tail checks compare the orders q^1 .. q^(qmax-1)
    _nonempty(qp - 24, "q-tail divisibility")
    all_ok = True
    bad = None
    for _ in range(200):
        form = random_form(rng, qp)
        for name, (ok, detail) in divisibility_report(form, d=form.index2).items():
            if not ok:
                all_ok = False
                bad = (str(form.poly), name)
    return [
        _check(
            "congruence battery on 200 random forms of index 1..8",
            all_ok,
            bad,
        )
    ] + _cy_checks(qmax)


def _rejected(fn, *args, **kwargs):
    """Whether fn(*args, **kwargs) raises ValidationError."""
    try:
        fn(*args, **kwargs)
    except ValidationError:
        return True
    return False


def _cy_checks(qmax):
    """K3 and Enriques genera, and the forced relations and rejections of
    the Calabi-Yau layer for d = 4, 5 and 7."""
    qp = 24 * qmax
    phi1 = generator(1, qp).series
    checks = [
        _check(
            f"genus(K3) == 2 phi_01 ({qmax} q-orders)",
            elliptic_genus(K3, qprec=qp).series.same_terms(phi1.scale(2)),
        ),
        _check(
            f"genus(Enriques) == phi_01 ({qmax} q-orders)",
            elliptic_genus(ENRIQUES, qprec=qp).series.same_terms(phi1),
        ),
    ]
    d4, mod6 = CY_RELATIONS[4]
    good = relation_check(CYInvariants(4, (1, 4, 6, 4, 1)))
    checks.append(_check(f"d=4: {d4} holds for chi (1,4,6,4,1)", good[d4][0]))
    bad4 = CYInvariants(4, (1, 4, 7, 4, 1))
    bad = relation_check(bad4)
    checks.append(
        _check(
            f"d=4: chi (1,4,7,4,1) breaks {d4} and e mod 6, and has no genus",
            not bad[d4][0]
            and not bad[mod6][0]
            and _rejected(elliptic_genus, bad4, qprec=48),
        )
    )
    inv5 = CYInvariants.from_euler(5, 24)
    checks.append(
        _check(
            "d=5: e = 24 gives chi1 = -1, chi2 = 11 and every relation;"
            " e = 23 is rejected",
            (inv5.chi[1], inv5.chi[2]) == (-1, 11)
            and all(ok for ok, _ in relation_check(inv5).values())
            and _rejected(CYInvariants.from_euler, 5, 23),
        )
    )
    (d7,) = CY_RELATIONS[7]
    good = relation_check(CYInvariants(7, (0, 1, 3, 2, -2, -3, -1, 0)))
    bad = relation_check(CYInvariants(7, (0, 1, 2, 3, -3, -2, -1, 0)))
    checks.append(
        _check(
            f"d=7: {d7} holds for chi (0,1,3,2,-2,-3,-1,0),"
            " fails for (0,1,2,3,-3,-2,-1,0)",
            good[d7][0] and not bad[d7][0],
        )
    )
    return checks


# ---- oracles of the lift checks ---------------------------------------------


def _window_terms(series, qlimit, slimit, ybound=None):
    """The terms of a triple series with nq <= qlimit, ms <= slimit and
    (optionally) |ly| <= ybound."""
    return {
        k: c
        for k, c in series.terms.items()
        if k[0] <= qlimit and k[2] <= slimit and (ybound is None or abs(k[1]) <= ybound)
    }


def _window_equal(s1, s2, qlimit, slimit, ybound=None):
    """Compare two triple series on all keys with nq <= qlimit,
    ms <= slimit, and (optionally) |ly| <= ybound.

    Raises PrecisionError when the window holds no term of either series:
    such a comparison would hold without comparing anything."""
    w1 = _window_terms(s1, qlimit, slimit, ybound)
    w2 = _window_terms(s2, qlimit, slimit, ybound)
    if not w1 and not w2:
        bound = "" if ybound is None else f", |ly| <= {ybound}/4"
        raise PrecisionError(
            f"compared window nq <= {qlimit}/24, ms <= {slimit}/24{bound} "
            "holds no term of either series"
        )
    return w1 == w2


def _even_characteristics():
    """The ten even genus-2 theta characteristics (a, b), a.b even."""
    pairs = [(a1, a2) for a1 in (0, 1) for a2 in (0, 1)]
    return [(a, b) for a in pairs for b in pairs if (a[0] * b[0] + a[1] * b[1]) % 2 == 0]


def _siegel_theta_constant(a, b, qprec, sprec):
    """The genus-2 theta constant with characteristic (a, b), a, b in
    {0,1}^2 with a.b even, as a triple series on the (1/8)-step lattice
    (stored keys: nq = 3 u^2, ly = u v, ms = 3 v^2 for u = 2 n1 + a1,
    v = 2 n2 + a2)."""
    a1, a2 = a
    b1, b2 = b
    if (a1 * b1 + a2 * b2) % 2 != 0:
        raise ValidationError("odd theta characteristic")
    sign0 = (-1) ** ((a1 * b1 + a2 * b2) // 2)
    terms = {}
    ubound = isqrt(max(qprec - 1, 0) // 3)
    vbound = isqrt(max(sprec - 1, 0) // 3)
    n1min = (-ubound - a1) // 2 - 1
    n1max = (ubound - a1) // 2 + 1
    n2min = (-vbound - a2) // 2 - 1
    n2max = (vbound - a2) // 2 + 1
    for n1 in range(n1min, n1max + 1):
        u = 2 * n1 + a1
        nq = 3 * u * u
        if nq >= qprec:
            continue
        for n2 in range(n2min, n2max + 1):
            v = 2 * n2 + a2
            ms = 3 * v * v
            if ms >= sprec:
                continue
            c = sign0 * (-1) ** ((n1 * b1 + n2 * b2) % 2)
            key = (nq, u * v, ms)
            terms[key] = terms.get(key, 0) + c
    return Series(DEN3, terms, qprec)


def _theta_product_delta5_squared(qprec, sprec):
    """2^{-12} times the product of the squares of the ten even genus-2
    theta constants; equals the square of the first weight-5 cusp form.
    A coefficient that 2^12 does not divide is an IdentityError."""
    acc = Series.const(1, DEN3, qprec)
    for a, b in _even_characteristics():
        theta = _siegel_theta_constant(a, b, qprec, sprec)
        acc = (acc * theta).truncate_s(sprec)
        acc = (acc * theta).truncate_s(sprec)
    try:
        return acc._div_int(2 ** 12)
    except InexactDivisionError as exc:
        raise IdentityError(f"theta-constant product {exc}") from None


def suite_lifts():
    """The Siegel-lift batteries: dual constructions, the theta-product
    square, factorization, SQEG sanity, Humbert multiplicities, the
    exponential homomorphism, mirror inversion and the assemblies."""
    checks = []
    # dual constructions: each additive lift is exp_lift(phi_0t), t = Q/2,
    # with the weight2 d + 1, character order Q = 24/(d + 3) and index t
    for name, (d, _) in ADDITIVE_LIFTS.items():
        t = 12 // (d + 3)
        qp, sp, inq = lift_window_for(generator(t, 24), 3, 3)
        lifted = exp_lift(generator(t, inq), qp, sp)
        summed = arithmetic_lift(name, qp, sp)
        meta = {(f.weight2, f.character_order, f.index_t) for f in (lifted, summed)}
        checks.append(
            _check(
                f"exp_lift(phi_0{t}) == arithmetic_lift({name}), weight2 {d + 1},"
                f" character order {2 * t} (q,s <= 3,3)",
                _window_equal(lifted.series, summed.series, qp - 1, sp - 1)
                and meta == {(d + 1, 2 * t, t)},
            )
        )
    # smallest terms of Delta2: q^{1/4} s^{1/2} (y^{1/2} - y^{-1/2})
    small = arithmetic_lift("Delta2", 13, 13)
    checks.append(
        _check(
            "Delta2 leading terms q^(1/4)s^(1/2)(y^(1/2) - y^(-1/2))",
            dict(small.series.terms) == {(6, 2, 12): 1, (6, -2, 12): -1},
        )
    )
    # theta-constant product
    tp = _theta_product_delta5_squared(73, 73)
    two_phi1 = exp_lift_homomorphic([(generator(1, 24 * 8), 2)], 73, 73)
    checks.append(
        _check(
            "2^(-12) prod Theta_ab^2 == exp_lift(2 phi_01) (q,s <= 2)",
            _window_equal(tp, two_phi1.series, 48, 48),
        )
    )
    d5 = exp_lift(generator(1, 24 * 8), 73, 73)
    checks.append(
        _check(
            "Delta5 antisymmetric under y -> 1/y",
            all(
                d5.series.terms.get((k[0], -k[1], k[2]), 0) == -c
                for k, c in d5.series.terms.items()
            ),
        )
    )
    # Delta_{1/2} = -(1/2) Theta_{(1,1),(1,1)}, substituted
    theta = _siegel_theta_constant((1, 1), (1, 1), 80, 200)
    dh = siegel_scale(SiegelSeries(theta._div_int(-2), 1, 0, None), 2, 4)
    e4 = exp_lift(generator(4, 24 * 12), 80, 80)
    checks.append(
        _check(
            "exp_lift(phi_04)(t,z,w) == Delta_1/2(t,2z,4w) (q,s <= 3)",
            _window_equal(e4.series, dh.series, 72, 72),
        )
    )
    # factorization
    qp, sp, w = 49, 49, 60
    for label, inv in (("K3", K3), ("CY4(1,4,6,4,1)", CYInvariants(4, (1, 4, 6, 4, 1)))):
        ef = e_form(inv, qp, sp, ywindow=w)
        fp = factorization_product(inv, qp, sp, ywindow=w)
        checks.append(
            _check(
                f"anomaly * SQEG == exp_lift(-genus) for {label} (q,s <= 2)",
                _window_equal(ef.series, fp.series, 48, 48),
            )
        )
    # SQEG sanity
    chi = elliptic_genus(K3, qprec=24 * 10)
    z = sqeg(chi, 97, 49)
    checks.append(
        _check("SQEG p^1 coefficient equals the input genus",
               z.s_slice(24).same_terms(chi.series, 96))
    )
    rows = {}
    for (nq, ly, ms), c in z.terms.items():
        key = (ms, nq)
        rows[key] = rows.get(key, 0) + c
    rows = {k: v for k, v in rows.items() if v}
    want = {(0, 0): 1, (24, 0): 24, (48, 0): 324}
    got = {k: v for k, v in rows.items() if k[0] <= 48}
    checks.append(
        _check("SQEG(K3) at y=1 == prod (1-p^n)^(-24): rows 1, 24, 324",
               got == want,
               [[ms, nq, c] for (ms, nq), c in sorted(got.items())])
    )
    # Humbert multiplicities
    chi3 = -(phi_threehalf(24 * 12).double_z())
    got = (humbert_multiplicity(chi3, 0, 1), humbert_multiplicity(chi3, 1, 5))
    checks.append(
        _check("Phi_3 divisor: H_1(0) - H_1(5)", got == (1, -1), got)
    )
    chi5 = -((phi_threehalf(24 * 14) * generator(1, 24 * 14)).double_z())
    got = (
        humbert_multiplicity(chi5, 0, 3),
        humbert_multiplicity(chi5, 1, 7),
        humbert_multiplicity(chi5, 0, 1),
        humbert_multiplicity(chi5, 2, 9),
    )
    checks.append(
        _check(
            "Phi_5 divisor: H_9(3) - H_9(7) + 12 H_1(1) - 12 H_1(9)",
            got == (1, -1, 12, -12),
            got,
        )
    )
    chi_k3 = elliptic_genus(K3, qprec=24 * 6)
    checks.append(
        _check("K3: pole of order 2 along H_1(0)",
               humbert_multiplicity(chi_k3, 0, 1) == -2)
    )
    # exponential homomorphism.  phi_02 and psi_A are built once, at the
    # largest input precision of the pairs, so that the right side reads one
    # theta table of each; the left side lifts the sum at its own precision
    hom_ok = True
    bad = None
    phi0 = generator(2, 97)
    psi0 = psi2_variant(2, 97, variant="A")
    windows = {}
    for a in (-2, -1, 0, 1, 2):
        for b in (-2, -1, 0, 1, 2):
            if a or b:
                probe = JacobiForm(phi0.series.scale(a) + psi0.series.scale(b), 0, 4)
                qp, sp, inq = lift_window_for(probe, 3, 3)
                windows[a, b] = qp, sp, max(inq, 24 * 17), _prefactor_key(probe)
    top = max(inq for _, _, inq, _ in windows.values())
    phi = generator(2, top)
    psi = psi2_variant(2, top, variant="A")
    for (a, b), (qp, sp, inq, pref) in windows.items():
        form = JacobiForm(phi.series.truncate(inq).scale(a) + psi.series.truncate(inq).scale(b), 0, 4)
        lhs = exp_lift(form, qp, sp, ywindow=80)
        rhs = exp_lift_homomorphic([(phi, a), (psi, b)], qp, sp, ywindow=80)
        # every s-row the right side returns (its rows lie 24t apart)
        sl = max(k[2] for k in rhs.series.terms)
        meta = [(ss.weight2, ss.character_order, ss.index_t, ss.series.qprec) for ss in (lhs, rhs)]
        if meta[0] != meta[1] or not _window_equal(lhs.series, rhs.series, pref[0] + 24, sl):
            hom_ok = False
            bad = (a, b)
    checks.append(
        _check("exp_lift(a*phi + b*psi) == exp_lift(phi)^a exp_lift(psi)^b, |a|,|b| <= 2",
               hom_ok, bad)
    )
    # mirror inversion, d = 3: each factor is exact on its whole y-window, but
    # their product only on an interior of it
    m1 = e_form(CYInvariants.from_euler(3, -2), 49, 49, ywindow=80)
    m2 = e_form(CYInvariants.from_euler(3, 2), 49, 49, ywindow=80)
    prod = m1.series * m2.series
    checks.append(
        _check(
            "E(CY3, e=-2) * E(CY3, e=+2) == 1 (q,s <= 1)",
            _window_equal(prod, Series.const(1, prod.den, 49), 24, 24, ybound=16),
        )
    )
    # Delta11 identity on q, s <= 4, up to a unit: the half-period factor is
    # i**k times an integral series (siegel_omega_half_shift), so both sides
    # are multiplied over Z and the unit is +-i**k
    qp = sp = 97
    d11 = _lift_at(lambda q: psi2_variant(2, q, variant="A"), qp, sp).series
    d2 = _lift_at(lambda q: generator(2, q), qp, sp).series
    lhs = ((d11 * d2).truncate_s(sp) * d2).truncate_s(sp)
    d5 = _lift_at(lambda q: generator(1, q), qp, sp)
    k, d5_shifted = siegel_omega_half_shift(d5)
    rhs = (d5.series * siegel_scale(d5, 2, 4).series).truncate_s(sp)
    rhs = (rhs * d5_shifted.series).truncate_s(sp)
    qlimit = min(lhs.qprec, rhs.qprec) - 1
    sign = next((u for u in (1, -1) if _window_equal(rhs, lhs.scale(u), qlimit, sp - 1)), None)
    unit = None if sign is None else f"{sign}i" if k else str(sign)
    checks.append(
        _check(
            "Delta5(Z)Delta5(2z,4w)Delta5(z,w+1/2) == i Delta11 Delta2^2",
            unit == "1i",
            {"unit": unit},
        )
    )
    # the assemblies of Calabi-Yau genera from lift inputs, on 6 q-orders
    qp = 24 * 6
    psi_a, phi2 = psi2_variant(2, qp, variant="A"), generator(2, qp)
    d4_ok = all(
        (-elliptic_genus(inv, qprec=qp).series).same_terms(
            psi_a.series.scale(-inv.chi[0]) + phi2.series.scale(inv.chi[1]), qp
        )
        for inv in (
            CYInvariants(4, (1, 4, 6, 4, 1)),
            CYInvariants(4, (1, 0, 22, 0, 1)),
            CYInvariants(4, (0, 1, -4, 1, 0)),
        )
    )
    checks.append(_check("-chi(M4) == -chi0 psi_A + chi1 phi_02", d4_ok))
    phi4, phi1_2z = generator(4, qp).series, generator(1, qp).double_z().series
    psi3, psi4 = basis_psi(4, 3, qp).series, basis_psi(4, 4, qp).series
    d8_ok = all(
        (-elliptic_genus(inv, qprec=qp).series).same_terms(
            phi4.scale(inv.chi[3]) + phi1_2z.scale(-inv.chi[2])
            + psi3.scale(inv.chi[1]) + psi4.scale(-inv.chi[0]),
            qp,
        )
        for inv in (
            CYInvariants(8, (1, 2, 3, 4, 22, 4, 3, 2, 1)),
            CYInvariants(8, (0, 0, 0, 1, -1, 1, 0, 0, 0)),
            CYInvariants(8, (0, 1, 0, 0, -25, 0, 0, 1, 0)),
        )
    )
    checks.append(
        _check(
            "-chi(M8) == chi3 phi_04 - chi2 phi_01(2z) + chi1 psi^(3) - chi0 psi^(4)",
            d8_ok,
        )
    )
    # the two index-6 lift inputs 3 phi3^2 - 2 phi2 phi4 and
    # 5 phi3^2 - 4 phi2 phi4 differ by 2 phi_06, on 10 q-orders
    p2, p3, p4 = (generator(m, 252) for m in (2, 3, 4))
    sq3, prod24 = (p3 * p3).series, (p2 * p4).series
    diff = (sq3.scale(3) - prod24.scale(2)) - (sq3.scale(5) - prod24.scale(4))
    checks.append(
        _check(
            "index-6 quotient reduction: difference of lift inputs == 2 phi_06",
            diff.same_terms(generator(6, 252).series.scale(2), 240),
        )
    )
    return checks


SUITES = {
    "ring": suite_ring,
    "basis": suite_basis,
    "hecke": suite_hecke,
    "congruences": suite_congruences,
    "lifts": suite_lifts,
}

# the suites whose checks a qmax window resizes
WINDOWED = ("ring", "basis", "hecke", "congruences")


def run_suite(name, qmax=None):
    """Run one named suite (or 'all') at its default windows or, for the
    WINDOWED suites, at qmax q-orders; returns a JSON-friendly report.
    Each suite's report carries its wall-clock `seconds`."""
    if name == "all":
        suites = [run_suite(s, qmax if s in WINDOWED else None) for s in SUITES]
        return {
            "suite": "all",
            "ok": all(s["ok"] for s in suites),
            "suites": suites,
        }
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    if qmax is not None and name not in WINDOWED:
        raise ValidationError(f"verify {name} does not read --qmax")
    start = time.perf_counter()
    checks = SUITES[name]() if qmax is None else SUITES[name](qmax)
    return {
        "suite": name,
        "ok": all(c["ok"] for c in checks),
        "seconds": time.perf_counter() - start,
        "checks": checks,
    }
