"""Output checks computed apart from the program.

Every check takes plain dicts (Series terms: exponent keys in the
package's storage units, q and s in 1/24, y in 1/4) and returns a list of
failure messages; an empty list is a pass.  Nothing here calls jacobilift:
each check is either an identity the method must satisfy or a value
stated in the source paper.
"""

from fractions import Fraction

# q^0 rows of the weight-0 generators phi_{0,1}..phi_{0,4}: y + c + 1/y with
# c = 10, 4, 2, 1 (Gritsenko, math/9906190), keyed by 4*l.
PAPER_Q0_ROWS = {
    1: {4: 1, 0: 10, -4: 1},
    2: {4: 1, 0: 4, -4: 1},
    3: {4: 1, 0: 2, -4: 1},
    4: {4: 1, 0: 1, -4: 1},
}

# xi_{0,6} = -phi1^2 phi4 + 9 phi1 phi2 phi3 - 8 phi2^3 - 27 phi3^2, keyed
# by exponent tuples (e1, e2, e3, e4).
XI06_POLY = {(2, 0, 0, 1): -1, (1, 1, 1, 0): 9, (0, 3, 0, 0): -8, (0, 0, 2, 0): -27}


def _fail(out, limit=5):
    return out[:limit]


def rows(terms):
    """{nq: {ly: c}} from two-variable terms."""
    out = {}
    for (nq, ly), c in terms.items():
        out.setdefault(nq, {})[ly] = c
    return out


def q0_row(name, terms, want):
    got = rows(terms).get(0, {})
    return [] if got == want else [f"{name}: q^0 row {got} != {want}"]


def row_sums_vanish(name, terms, qprec):
    """A weight-0 weak Jacobi form is constant at z = 0, so every q^n row
    with n >= 1 sums to zero; rows must sit on whole q-orders."""
    out = []
    sums = {}
    for (nq, ly), c in terms.items():
        if nq % 24:
            out.append(f"{name}: q-exponent {nq}/24 is not integral")
        sums[nq] = sums.get(nq, 0) + c
    for nq, total in sorted(sums.items()):
        if nq > 0 and nq < qprec and total:
            out.append(f"{name}: q^{nq // 24} row sums to {total}, not 0")
    return _fail(out)


def theta_classes(name, terms, index2, qprec):
    """For integral index t, c(n, l) depends only on 4tn - l^2 and
    l mod 2t (the elliptic transformation law).  Every stored coefficient
    is compared with its class's reduced representative, and every
    reduced coefficient with each shifted representative inside the
    window, so a change at any one key breaks the check."""
    if index2 % 2:
        return []
    t = index2 // 2
    orders = (qprec + 23) // 24
    c = {(nq // 24, ly // 4): v for (nq, ly), v in terms.items()}
    out = []
    for (n, l), v in c.items():
        l0 = (l + t - 1) % (2 * t) - t + 1  # representative in (-t, t]
        n0 = n - (l * l - l0 * l0) // (4 * t)
        if n0 < 0 or c.get((n0, l0), 0) != v:
            out.append(f"{name}: c({n},{l}) = {v} but c({n0},{l0}) = {c.get((n0, l0), 0)}")
            continue
        if l != l0:
            continue
        for lam in range(-orders, orders + 1):
            if lam == 0:
                continue
            n1 = n + lam * l + t * lam * lam
            if 0 <= n1 < orders and c.get((n1, l + 2 * t * lam), 0) != v:
                out.append(
                    f"{name}: c({n},{l}) = {v} but c({n1},{l + 2 * t * lam}) = "
                    f"{c.get((n1, l + 2 * t * lam), 0)}"
                )
    return _fail(out)


def weak_form(name, terms, index2, qprec):
    return row_sums_vanish(name, terms, qprec) + theta_classes(name, terms, index2, qprec)


def mul(a, b, qprec):
    """Plain-dict product of two-variable terms, truncated below qprec."""
    out = {}
    for (qa, ya), ca in a.items():
        for (qb, yb), cb in b.items():
            q = qa + qb
            if q < qprec:
                key = (q, ya + yb)
                out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def mul3(a, b, limit):
    """Plain-dict product of three-variable terms, keeping keys with
    q- and s-exponents <= limit."""
    out = {}
    for (qa, ya, sa), ca in a.items():
        for (qb, yb, sb), cb in b.items():
            if qa + qb <= limit and sa + sb <= limit:
                key = (qa + qb, ya + yb, sa + sb)
                out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def truncated(terms, qprec):
    return {k: v for k, v in terms.items() if k[0] < qprec}


def equal_terms(name, got, want, qprec):
    got, want = truncated(got, qprec), truncated(want, qprec)
    if got == want:
        return []
    diff = sorted(k for k in set(got) | set(want) if got.get(k, 0) != want.get(k, 0))
    return [f"{name}: {len(diff)} coefficients differ, first at {diff[0]}"]


def chi_y_product(*chis):
    """The chi vector of a product manifold: chi_y polynomials multiply."""
    out = [1]
    for chi in chis:
        new = [0] * (len(out) + len(chi) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(chi):
                new[i + j] += a * b
        out = new
    return tuple(out)


def genus_q0_row(name, terms, chi):
    """The q^0 row of a dimension-d genus is sum_p (-1)^p chi_p y^(d/2 - p)."""
    d = len(chi) - 1
    want = {2 * d - 4 * p: (-1) ** p * c for p, c in enumerate(chi) if c}
    return q0_row(name, terms, want)


def xi06_start(name, terms):
    """xi_{0,6} = theta^12 / eta^12 starts at q^1 with
    (y^(1/2) - y^(-1/2))^12 and has no q^0 row."""
    r = rows(terms)
    want = {}
    coeff = 1
    for j in range(13):
        want[4 * (6 - j)] = (-1) ** j * coeff
        coeff = coeff * (12 - j) // (j + 1)
    if 0 in r or r.get(24) != want:
        return [f"{name}: expansion does not start q (y^(1/2) - y^(-1/2))^12"]
    return []


def poly_mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def poly_add(*polys):
    out = {}
    for p in polys:
        for k, v in p.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def poly_equal(name, got, want):
    return [] if got == want else [f"{name}: polynomial {got} != {want}"]


def _without_phi4(poly):
    """Rewrite with 4 Phi4 = Phi1 Phi3 - Phi2^2, over Q.  Phi1..Phi3 are
    algebraically independent, so two polynomials give the same form
    exactly when their rewrites are equal."""
    phi4 = {(1, 0, 1, 0): Fraction(1, 4), (0, 2, 0, 0): Fraction(-1, 4)}
    out = {}
    for (e1, e2, e3, e4), c in poly.items():
        term = {(e1, e2, e3, 0): Fraction(c)}
        for _ in range(e4):
            term = poly_mul(term, phi4)
        out = poly_add(out, term)
    return out


def poly_same_form(name, got, want):
    if _without_phi4(got) == _without_phi4(want):
        return []
    return [f"{name}: polynomial {got} is not {want} modulo 4 Phi4 = Phi1 Phi3 - Phi2^2"]


def paramodular_lift(name, terms, t):
    """exp_lift(phi_{0,t}) for t = 1..4 (Delta5, Delta2, Delta1, Delta1/2)
    is a paramodular form of level t (Gritsenko-Nikulin):

    - its lowest term is q^A s^C (y^(1/2) - y^(-1/2)), with (A, C) the
      lift prefactor of the q^0 row y + c + 1/y, and every key has
      nq >= A and ms >= C;
    - it is odd in z: c(n, -l, m) = -c(n, l, m);
    - it is invariant under V_t: (tau, z, omega) -> (t omega, z, tau / t),
      which maps q^n y^l s^m to q^(m/t) y^l s^(t n), so every s-exponent
      is a multiple of t and c(n, l, m) = c(m/t, l, t n) for every key
      whose image lies inside the stored range.  For t = 1 this is the
      symmetry under tau <-> omega."""
    if not terms:
        return [f"{name}: empty expansion"]
    out = []
    nq0, ms0 = lift_prefactor(PAPER_Q0_ROWS[t])
    lowest = {k[1]: c for k, c in terms.items() if (k[0], k[2]) == (nq0, ms0)}
    if lowest != {2: 1, -2: -1} or min(k[0] for k in terms) < nq0 or min(k[2] for k in terms) < ms0:
        out.append(f"{name}: lowest term is not q^{nq0}/24 s^{ms0}/24 (y^(1/2) - y^(-1/2))")
    qtop = max(k[0] for k in terms)
    stop = max(k[2] for k in terms)
    for (nq, ly, ms), c in terms.items():
        if ms % t:
            out.append(f"{name}: s-exponent {ms}/24 of c{(nq, ly, ms)} is not a multiple of {t}/24")
            continue
        image = (ms // t, ly, t * nq)
        if image[0] <= qtop and image[2] <= stop and terms.get(image, 0) != c:
            out.append(f"{name}: c{(nq, ly, ms)} = {c} but c{image} = {terms.get(image, 0)}")
        if terms.get((nq, -ly, ms), 0) != -c:
            out.append(f"{name}: c{(nq, ly, ms)} = {c} but c{(nq, -ly, ms)} = {terms.get((nq, -ly, ms), 0)}")
    return _fail(out)


def window_equal(name, a, b, qlimit, slimit, ybound=None):
    """Equality on the nonempty window nq <= qlimit, ms <= slimit and,
    if given, |ly| <= ybound."""

    def window(t):
        return {k: v for k, v in t.items()
                if k[0] <= qlimit and k[2] <= slimit and (ybound is None or abs(k[1]) <= ybound)}

    wa, wb = window(a), window(b)
    if not wa:
        return [f"{name}: compared window is empty"]
    if wa != wb:
        diff = sorted(k for k in set(wa) | set(wb) if wa.get(k, 0) != wb.get(k, 0))
        return [f"{name}: {len(diff)} coefficients differ, first at {diff[0]}"]
    return []


def lift_prefactor(row):
    """(nq, ms) of the leading monomial q^A s^C of the exponential lift of
    a form with the given q^0 row {ly: c}: A = sum c / 24 and
    C = sum c l^2 / 4 (Gritsenko-Nikulin), in 1/24 units."""
    nq = sum(row.values())
    ms6 = sum(c * ly * ly for ly, c in row.items()) * 6
    if ms6 % 16:
        raise ArithmeticError("lift prefactor off the 1/24 lattice")
    return nq, ms6 // 16


def euler_power_series(e, count):
    """Coefficients of prod_{n>=1} (1 - p^n)^(-e) up to p^(count-1), from
    N a_N = e * sum_{k=1..N} sigma(k) a_{N-k}."""
    sigma = [0] + [sum(d for d in range(1, k + 1) if k % d == 0) for k in range(1, count)]
    a = [1]
    for n in range(1, count):
        total = e * sum(sigma[k] * a[n - k] for k in range(1, n + 1))
        if total % n:
            raise ArithmeticError("non-integral coefficient")
        a.append(total // n)
    return a


def sqeg_y1(name, terms, euler, qprec, pprec):
    """At y = 1 the second-quantized genus is prod (1 - p^n)^(-e): every
    elliptic-genus row with n >= 1 sums to zero at z = 0."""
    want = euler_power_series(euler, (pprec + 23) // 24)
    sums = {}
    for (nq, ly, ms), c in terms.items():
        sums[(nq, ms)] = sums.get((nq, ms), 0) + c
    out = []
    for nq in range(0, qprec, 24):
        for ms in range(0, pprec, 24):
            expect = want[ms // 24] if nq == 0 else 0
            if sums.get((nq, ms), 0) != expect:
                out.append(f"{name}: y=1 coefficient of q^{nq // 24} p^{ms // 24} is "
                           f"{sums.get((nq, ms), 0)}, want {expect}")
    return _fail(out)


def p_slice(terms, ms):
    return {(k[0], k[1]): c for k, c in terms.items() if k[2] == ms}
