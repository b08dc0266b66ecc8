"""Siegel modular forms from Jacobi forms: Borcherds-style exponential
products, second-quantized elliptic genera, the Hodge-anomaly factor and
the additive lifts of eta^d theta(tau, z).  The identities connecting
them are checks in ``jacobilift.verify``.

Triple series live on the exponent lattice (q**(1/24), y**(1/4),
s**(1/24)).

``exp_lift`` and ``sqeg`` share one Fourier-Jacobi engine: the s-rows of
exp(-sum_k s^{tk} (phi|T_-(k))/k), the s-dependent part of the Borcherds
product of phi, satisfy

    H_0 = 1,    H_M = -(1/M) sum_{k=1..M} (phi|T_-(k)) H_{M-k}

(Gritsenko-Nikulin), and the second-quantized genus is the same recursion
with the sign flipped (Dijkgraaf-Moore-Verlinde-Verlinde).  The division
by M is exact over Z and every H_M is a finite y-polynomial at each
q-order.  The engine does only the work its q-window keeps: each T_-(k)
image is read, on the window's rows only, from the input's
theta-decomposition table (``jacobi.ThetaTable``: c(n, l) by
D = 4tn - l**2 and l mod 2t), which each form builds once, and the
recursion runs on packed q-rows (``series._Rows``), one integer per
q-row: each image is packed once, from the table's rows, and each H_M
stays packed.  That layout holds the weak-form support n >= 0,
l**2 <= 4tn + t**2, and the table refuses an input term outside it.
The s**0 part F_0 of the lift is the theta block
eta^(c(0,0) - sum_{l>0} c(0,l)) prod_{l>0} theta(tau, l z)^c(0,l)
(Gritsenko-Nikulin), and the Hodge anomaly is one too.  By the triple
product each theta unit is (1 - y^-lam) B_lam with B_lam finite at each
q-order (``_theta_rest``), so every lift, F_0 and anomaly here is the
monomial of ``_block_lead`` times R = prod (1 - y^-lam)^c_lam times an
exact series, built by one route (``_block_rest``, ``_assemble``); its
theta powers are keyed by the y-step 4 lam.  R is infinite when some
c_lam < 0; ``_assemble`` then clips it to |ly| <= ``ywindow`` around the
monomial, the one place a y-window is applied.  Every term is exact.
"""

from fractions import Fraction
from math import gcd, isqrt

from .errors import InexactDivisionError, PrecisionError, ValidationError
from .genus import elliptic_genus
from .jacobi import theta_jacobi
from .modular import euler_product, eta_power, kronecker
from .series import DEN2, DEN3, Series, _miller, _Rows, _unpack_rows, _weak_layout, series_to_dict


class SiegelSeries:
    """A truncated Fourier expansion of a (meromorphic) Siegel modular
    form for a paramodular group, with bookkeeping metadata."""

    __slots__ = ("series", "weight2", "character_order", "index_t")

    def __init__(self, series, weight2, character_order, index_t):
        if series.den != DEN3:
            raise ValidationError("Siegel expansions use three-variable series")
        self.series = series
        self.weight2 = weight2
        self.character_order = character_order
        self.index_t = index_t

    @property
    def weight(self):
        return Fraction(self.weight2, 2)

    def __repr__(self):
        return (
            f"SiegelSeries(weight={self.weight}, index_t={self.index_t}, "
            f"character_order={self.character_order}, "
            f"qprec={self.series.qprec})"
        )

    def to_dict(self):
        data = series_to_dict(self.series)
        data["weight2"] = self.weight2
        data["character_order"] = self.character_order
        data["index_t"] = self.index_t
        return data


def siegel_scale(ss, yfactor, sfactor):
    """The substitution (tau, z, omega) -> (tau, yfactor*z, sfactor*omega)."""
    matrix = [[1, 0, 0], [0, yfactor, 0], [0, 0, sfactor]]
    series = ss.series.substitute(matrix, ss.series.qprec)
    index_t = None if ss.index_t is None else ss.index_t * sfactor
    return SiegelSeries(series, ss.weight2, ss.character_order, index_t)


def siegel_omega_half_shift(ss):
    """The substitution omega -> omega + 1/2, as (k, shifted) with k in
    {0, 1}: the shifted form is i**k times the integral SiegelSeries
    shifted.  The substitution multiplies the term s**(ms/24) by i**(ms/12),
    so it stays in i**k Z only when every s-exponent lies in one class of
    12 mod 24: with ms in 24Z the term takes the sign (-1)**(ms/24) (k = 0),
    with ms in 12 + 24Z it takes i * (-1)**((ms/12 - 1)/2) (k = 1).  Any
    other s-exponents raise ValidationError."""
    classes = {key[2] % 24 for key in ss.series.terms}
    if len(classes) > 1 or not classes <= {0, 12}:
        raise ValidationError(
            "half-period shift needs every ms in one class of 0 or 12 mod 24, "
            f"got the classes {sorted(classes)}"
        )
    k = 1 if classes == {12} else 0
    terms = {key: -c if (key[2] - 12 * k) // 24 % 2 else c for key, c in ss.series.terms.items()}
    series = Series(DEN3, terms, ss.series.qprec, _clean=True)
    return k, SiegelSeries(series, ss.weight2, ss.character_order, ss.index_t)


# ---- the y-factor and theta blocks ----------------------------------------


def _check_ywindow(ywindow):
    """A y-window bounds |ly| (1/4 units), so a negative one is invalid."""
    if ywindow is not None and ywindow < 0:
        raise ValidationError(f"ywindow must be >= 0, got {ywindow}")


def _theta_rest(qprec, step):
    """B_lam = prod_{n>=1} (1 - q^n)(1 - q^n y^lam)(1 - q^n y^-lam) below
    qprec, the theta unit theta(tau, lam z)/(q^(1/8) y^(lam/2)) divided by
    1 - y^-lam, for the y-step step = 4 lam.  By the triple product it is

        sum_{m odd >= 1} (-4/m) q^((m^2-1)/8) (y^(lam(m-1)/2) + y^(lam(m-3)/2)
                                                + ... + y^(-lam(m-1)/2)).
    """
    terms, m = {}, 1
    while 3 * (m * m - 1) < qprec:
        half = (m - 1) // 2
        for j in range(-half, half + 1):
            terms[(3 * (m * m - 1), step * j)] = (-1) ** half
        m += 2
    return Series(DEN2, terms, qprec, _clean=True)


def _block_rest(eta_exp, thetas, rel):
    """G = prod_{n>=1} (1 - q^n)^eta_exp prod B_lam^thetas[4 lam] below rel.
    Each factor has constant term 1 and finitely many terms at each q-order,
    so G has too, and a negative power is q-adic exact division."""
    g = euler_product(rel) ** eta_exp
    for step, c in sorted(thetas.items()):
        g = g * _theta_rest(rel, step) ** c
    return g


def _y_factor(thetas, depth=None):
    """R = prod_lam (1 - y^-lam)^thetas[4 lam] on ly >= -depth, expanded by
    binomials factor by factor.  R only lowers ly, so each partial product
    clipped to that depth is exact on it.  With no depth R must be a
    polynomial, and is returned whole; else PrecisionError."""
    if depth is None:
        if any(c < 0 for c in thetas.values()):
            raise PrecisionError("a negative theta power has unbounded y-support; supply a ywindow")
        depth = sum(step * c for step, c in thetas.items())
    factor = Series.const(1)
    for step, c in thetas.items():
        binomial, a, j = {}, 1, 0
        while a and step * j <= depth:
            binomial[(0, -step * j)] = a  # (-1)^j C(c, j)
            j += 1
            a = a * (j - 1 - c) // j
        factor = (factor * Series(DEN2, binomial, None, _clean=True)).clip_y(depth)
    return factor


def _block_lead(eta_exp, thetas):
    """The key of the leading monomial q^((eta_exp + 3 sum c)/24)
    y^(sum lam c/2) s^(sum lam^2 c/2) of the theta block
    eta^eta_exp prod theta(tau, lam z)^c, c = thetas[4 lam]: its s-part is
    the block's index, the C of an exponential lift and the ms of a Hodge
    anomaly."""
    return (eta_exp + 3 * sum(thetas.values()),
            sum(step * c for step, c in thetas.items()) // 2,
            3 * sum(step * step * c for step, c in thetas.items()) // 4)


# ---- the exponential lift ------------------------------------------------


def abc_exponents(form):
    """The exact leading exponents (A, B, C) of the exponential lift,
    read off the q**0 row of a weight-0 form: with l = ly/4,
    A = sum c/24, B = sum_{l>0} c*l/2 and C = sum c*l**2/4, summed over
    Z and divided once."""
    a = b = c = 0
    for (nq, ly), coeff in form.series.terms.items():
        if nq != 0:
            continue
        a += coeff
        if ly > 0:
            b += coeff * ly
        c += coeff * ly * ly
    return Fraction(a, 24), Fraction(b, 8), Fraction(c, 64)


def _lift_block(form):
    """A lift input, a weight-0 form of positive integral index t, as
    (t, eta_exp, thetas): its q**0 row, even in y, read as the theta block
    eta^(c(0,0) - sum_{l>0} c(0,l)) prod_{l>0} theta(tau, l z)^c(0,l) with
    thetas[4l] = c(0, l)."""
    if form.weight2 != 0:
        raise ValidationError("exponential lifts take weight-0 forms")
    if form.index2 % 2 != 0:
        raise ValidationError("exponential lifts take integral-index forms")
    if form.index2 <= 0:
        raise ValidationError("exponential lifts need positive index")
    q0 = form.q_row(0)
    if any(q0.get(-ly) != c for ly, c in q0.items()):
        raise ValidationError("the q**0 row of a lift input must be even in y")
    thetas = {ly: c for ly, c in q0.items() if ly > 0}
    return form.index2 // 2, q0.get(0, 0) - sum(thetas.values()), thetas


def _prefactor_key(form):
    """The key (24A, 4B, 24C) of the lift prefactor q^A y^B s^C."""
    return _block_lead(*_lift_block(form)[1:])


def _fj_rows(form, sign, qprec, count):
    """The s-rows H_0..H_count of exp(sign * sum_k s^k (form|T_-(k))/k),
    as (q, y) series below qprec (none when count < 0):

        H_0 = 1,    H_M = (sign/M) sum_{k=1..M} (form|T_-(k)) H_{M-k}

    Only the q-orders n <= nmax = (qprec - 1)//24 are computed, on packed
    q-rows (``series._Rows``).  Each image I_k is read from the form's
    ``jacobi.ThetaTable``, built once per form; its furthest class sits at
    q-order k*nmax, so the input must reach that q-order, else
    PrecisionError.  Each I_k, of index tk, comes as one list per q-row
    (``ThetaTable.tminus``), entry u its slot u in the weak layout, and is
    packed once; M H_M, the schoolbook sum of the row products I_k H_{M-k},
    is read back once and divided by sign M (``Series.exact_div``, else
    InexactDivisionError naming the row and the key), so its packed rows
    divided by M as integers are H_M's, in the same layout and width: no
    H_M is packed.  One slot width serves the recursion: the images' per-row
    l1 norms (the sums of the absolute values in each list), carried
    through the same recursion, bound every M H_M.

    The table refuses an input outside the weak-form support n >= 0,
    l**2 <= 4tn + t**2 of index t (ValidationError).  T_-(k) keeps that
    support at index tk (4tkN - (al)**2 >= -(at)**2 >= -(tk)**2 for a | k),
    which puts every image in the layout |l| <= tk + 2N; products stay in
    it.  A half-integral index is read through z -> 2z, and its rows back
    in its own y-units (``series._weak_layout`` with unit 2)."""
    if form.weight2:
        raise ValidationError("T_-(m) needs a weight-0 form of integral index")
    nmax = (qprec - 1) // 24
    if nmax < 0 or count < 0:
        return [Series(DEN2, {}, qprec, _clean=True)] * (count + 1)
    table = form.theta_table()
    t = table.t
    images = [table.tminus(k, nmax) for k in range(1, count + 1)]
    # per-row l1 norms through the recursion bound every M H_M and image
    norms = [_Rows([sum(map(abs, row)) for row in image]) for image in images]
    top, bounds = 0, [None]
    for m in range(1, count + 1):
        acc = sum((norms[k - 1] * bounds[m - k] for k in range(1, m)), norms[m - 1])
        top = max(top, *acc.rows)
        bounds.append(_Rows([v // m for v in acc.rows]))
    width = _Rows.width(top)
    images = [_Rows.slots(image, width) for image in images]
    unit = 2 if form.index2 % 2 else 4
    out, packed = [Series(DEN2, {(0, 0): 1}, qprec, _clean=True)], [None]
    for m in range(1, count + 1):
        acc = sum((images[k - 1] * packed[m - k] for k in range(1, m)), images[m - 1])
        row = _unpack_rows(acc.rows, _weak_layout(t * m, unit), width)
        try:
            out.append(Series(DEN2, row, qprec, _clean=True)._div_int(sign * m))
        except InexactDivisionError as exc:
            raise InexactDivisionError(f"Fourier-Jacobi row {m}: {exc}") from None
        if m < count:
            packed.append(_Rows([sign * (v // m) for v in acc.rows]))
    return out


def _lift_parts(form, qprec, sprec):
    """exp_lift(form) = q^A y^B s^C R G sum_M H_M s^{tM} taken apart as
    (pref, thetas, G, rows, t): the key of q^A y^B s^C, the powers
    thetas[4l] = c(0, l) of R = prod_{l>0} (1 - y^-l)^c(0,l), and G and the
    rows H_M below the q-precision left past q^A."""
    t, eta_exp, thetas = _lift_block(form)
    pref = _block_lead(eta_exp, thetas)
    pq, ps = qprec - pref[0], sprec - pref[2]
    if pq <= 0 or ps <= 0:
        raise PrecisionError("requested precision does not reach the leading term")
    g = _block_rest(eta_exp, thetas, pq)
    return pref, thetas, g, _fj_rows(form, -1, pq, (ps - 1) // (24 * t)), t


def _assemble(lead, thetas, g, rows, t, ywindow):
    """The triple series q^lead R G sum_M rows[M] s^{tM}, R = prod
    (1 - y^-lam)^thetas[4 lam], with the q-precision of G past the lead.
    R is expanded once per call (``_y_factor``).  With no ywindow it must
    be a polynomial, and F_0 = R G is formed once and multiplies each row.
    Under one, R reaches ywindow past the top ly of G plus that of the
    rows, and each G H_M takes its clip of it (``_clipped``)."""
    if ywindow is None:
        f0 = g * _y_factor(thetas)
        parts = (f0 * row for row in rows)
    else:
        tops = [max((ly for _, ly in row.terms), default=0) for row in (g, *rows)]
        r = _y_factor(thetas, ywindow + tops[0] + max(tops[1:], default=0))
        parts = (_clipped(g * row, r, ywindow) for row in rows)
    terms = {}
    for m, part in enumerate(parts):
        ms = 24 * t * m + lead[2]
        terms.update({(nq + lead[0], ly + lead[1], ms): c for (nq, ly), c in part.terms.items()})
    return Series(DEN3, terms, g.qprec + lead[0], _clean=True)


def _clipped(product, r, ywindow):
    """product R on |ly| <= ywindow, with r = R on ly >= -depth for a depth
    at least ywindow past product's top ly.  R only lowers ly, so the terms
    of product below -ywindow are dropped and r is clipped to ywindow past
    the top ly left; each term returned sums every product that reaches it,
    so it is exact."""
    terms = {k: c for k, c in product.terms.items() if k[1] >= -ywindow}
    depth = ywindow + max((k[1] for k in terms), default=0)
    return (Series(DEN2, terms, product.qprec, _clean=True) * r.clip_y(depth)).clip_y(ywindow)


def exp_lift(form, qprec, sprec, ywindow=None):
    """The Borcherds exponential product of a weight-0 Jacobi form of
    integral index t:

        q^A y^B s^C  prod_{(n,l,m)>0} (1 - q^n y^l s^{t m})^{c(nm, l)}

    where (n,l,m)>0 means m>0 (n, l free), or m=0 and n>0, or n=m=0 and
    l<0.  qprec and sprec are exclusive bounds in (1/24) units.

    It is computed as q^A y^B s^C F_0 sum_M H_M s^{tM}: F_0 is the m = 0
    part, the theta block eta^(c(0,0) - sum_{l>0} c(0,l))
    prod_{l>0} theta(tau, l z)^c(0,l) divided by q^A y^B, and H_M are the
    Fourier-Jacobi rows of the module's recursion, exact and finite.
    With no ``ywindow``, F_0 = R G, R = prod_{l>0} (1 - y^-l)^c(0,l), is
    formed once and multiplies each row (``_assemble``).  R is infinite
    when some c(0, l) < 0, and then a ywindow is needed: each term on
    |ly| <= ywindow around q^A y^B is returned exact (``_assemble``).
    """
    _check_ywindow(ywindow)
    pref, thetas, g, rows, t = _lift_parts(form, qprec, sprec)
    series = _assemble(pref, thetas, g, rows, t, ywindow)
    return SiegelSeries(series, form.series.coeff((0, 0)), 24 // gcd(24, pref[0]), t)


def _input_qprec(pq, ps, t=1):
    """q-precision (1/24 units) an input form needs for a lift that keeps
    q-precision pq and s-precision ps past its prefactor, at index t:
    nmax*mmax + 1 whole orders, which is what T_-(mmax) reads for the last
    q-order nmax (at least 0) and the last s-row mmax (at least 1)."""
    nmax = max((pq - 1) // 24, 0)
    mmax = max((ps - 1) // (24 * t), 1)
    return 24 * (nmax * mmax + 1)


def _lift_input_for(form, qprec, sprec):
    """The input q-precision of exp_lift(form, qprec, sprec); only the
    q**0 row of form is read, so a one-order form serves."""
    t, eta_exp, thetas = _lift_block(form)
    pref = _block_lead(eta_exp, thetas)
    return _input_qprec(qprec - pref[0], sprec - pref[2], t)


def lift_window_for(form, qmax, smax):
    """Precisions (qprec, sprec, input_qprec) so that exp_lift(form)
    covers qmax whole q-orders and smax whole s-orders past its leading
    term, and the input form is expanded far enough to serve every
    exponent lookup."""
    pref = _prefactor_key(form)
    qprec = 24 * qmax + 1 + max(pref[0], 0)
    sprec = 24 * smax + 1 + max(pref[2], 0)
    return qprec, sprec, _lift_input_for(form, qprec, sprec)


def _rows_mul(x, y):
    """The product of two row series sum_M x[M] s^M and sum_M y[M] s^M,
    on the rows both reach."""
    return [sum((x[j] * y[m - j] for j in range(1, m + 1)), x[0] * y[m])
            for m in range(min(len(x), len(y)))]


def exp_lift_homomorphic(pairs, qprec, sprec, ywindow=None):
    """exp_lift(sum a_i phi_i) computed as prod exp_lift(phi_i)**a_i, for
    checking the exponential homomorphism property.  Each exp_lift(phi_i)
    is taken apart (``_lift_parts``): the prefactors and the powers of R
    add, the G's and the row series multiply (powers by Miller's recurrence,
    ``series._miller``, row M divided by M by ``Series.exact_div``), and R is applied once.

    With q^A_i s^C_i the prefactor of exp_lift(phi_i) and q^A s^C that of
    the product, exp_lift(phi_i) is taken apart at (qprec - A + A_i, sprec),
    so every G and row keeps qprec - A past its prefactor and the result
    keeps qprec, as exp_lift of the sum does.  Each pair is taken apart at
    the one sprec, so it keeps only the s-rows that every pair reaches:
    s^(C + tM) for 24tM < sprec - max(C, max_i C_i).  A pair whose C_i is
    not below sprec reaches none, and raises PrecisionError."""
    _check_ywindow(ywindow)
    prefs = [(i, form, a, _prefactor_key(form)) for i, (form, a) in enumerate(pairs) if a]
    for i, _, _, (_, _, ms) in prefs:
        if ms >= sprec:
            raise PrecisionError(f"pair {i} has its s-prefactor at ms = {ms}, not below sprec = "
                                 f"{sprec}: only the s-rows every pair reaches are kept")
    rel = qprec - sum(a * pref[0] for _, _, a, pref in prefs)
    parts = [(a, _lift_parts(form, rel + pref[0], sprec)) for _, form, a, pref in prefs]
    if not parts or len({part[4] for _, part in parts}) > 1:
        raise ValidationError("exp_lift_homomorphic needs forms of one index, an exponent nonzero")
    t = parts[0][1][4]
    pref, thetas, g, rows = (0, 0, 0), {}, Series.const(1, DEN2), None
    for a, (pref_i, thetas_i, g_i, rows_i, _) in parts:
        pref = tuple(v + a * w for v, w in zip(pref, pref_i))
        for step, c in thetas_i.items():
            thetas[step] = thetas.get(step, 0) + a * c
        g, rows_i = g * g_i ** a, _miller(rows_i, a, len(rows_i), rows_i[0], Series._div_int,
                                          Series.zero(DEN2))
        rows = rows_i if rows is None else _rows_mul(rows, rows_i)
    thetas = {step: c for step, c in thetas.items() if c}
    count = (sprec - pref[2] - 1) // (24 * t)
    series = _assemble(pref, thetas, g, rows[:max(count + 1, 0)], t, ywindow)
    weight2 = sum(a * form.series.coeff((0, 0)) for form, a in pairs)
    return SiegelSeries(series, weight2, 24 // gcd(24, pref[0]), t)


# ---- second-quantized elliptic genus --------------------------------------


def sqeg(form, qprec, pprec):
    """The second-quantized elliptic genus of a weight-0 form

        prod_{m>=0, n>0, l} (1 - q^m y^l p^n)^{-f(mn, l)}
            = sum_n p^n H_n,   H_n = (1/n) sum_{k=1..n} (f|T_-(k)) H_{n-k}

    as a triple series whose third variable is p (graded in 1/24 units
    on the s-slot).  No prefactor, and every row is exact.  An empty window
    in q or in p (qprec <= 0 or pprec <= 0) gives the empty series."""
    terms = {}
    for n, row in enumerate(_fj_rows(form, 1, qprec, (pprec - 1) // 24)):
        terms.update({(nq, ly, 24 * n): c for (nq, ly), c in row.terms.items()})
    return Series(DEN3, terms, qprec, _clean=True)


def symmetric_product_genus(form, n, qprec):
    """The p**n coefficient of the second-quantized genus: the orbifold
    elliptic genus of the n-th symmetric product, n >= 0."""
    if n < 0:
        raise ValidationError(f"a symmetric product needs n >= 0, got {n}")
    return _fj_rows(form, 1, qprec, n)[n]


# ---- the Hodge anomaly -----------------------------------------------------


def _anomaly_block(inv):
    """The Hodge anomaly of inv as (eta_exp, thetas, meta): the theta
    block eta^eta_exp prod theta(tau, lam z)^thetas[4 lam] and (weight2,
    character order) (``hodge_anomaly``)."""
    d, chi, e = inv.d, inv.chi, inv.euler

    def chip(p):
        return (-1) ** p * chi[p]

    thetas = {}
    if d % 2 == 0:
        d0 = d // 2
        num = e - 3 * chip(d0)
        if num % 2 != 0:
            raise ValidationError("eta exponent (e - 3 chi'_{d0})/2 is not integral")
        eta_exp = num // 2
        weight2 = -chip(d0)
        for p in range(1, d0 + 1):
            thetas[4 * p] = -chip(d0 - p)
    else:
        d0 = (d - 1) // 2
        if e % 2 != 0:
            raise ValidationError("odd-dimensional Euler numbers must be even")
        eta_exp = e // 2
        weight2 = 0
        for p in range(1, d0 + 2):
            thetas[4 * p - 2] = -chip(d0 - p + 1)
    meta = (weight2, 24 // gcd(24, e) if e else 1)
    return eta_exp, {step: c for step, c in thetas.items() if c}, meta


def _anomaly_times(inv, qprec, sprec, ywindow, t, genus):
    """The Hodge anomaly of inv, times the second-quantized genus of its
    elliptic genus (p -> s^t) when genus is set, as a SiegelSeries of index
    t: q^lead R G sum_M H_M s^(tM) (``_assemble``) with the one row 1 or
    those of ``sqeg`` below the windows past the lead; empty when the lead
    does not lie below (qprec, sprec)."""
    _check_ywindow(ywindow)
    eta_exp, thetas, meta = _anomaly_block(inv)
    lead = _block_lead(eta_exp, thetas)
    rel, ps = qprec - lead[0], sprec - lead[2]
    series = Series(DEN3, {}, qprec, _clean=True)
    if rel > 0 and ps > 0:
        rows = [Series.const(1)]
        if genus:
            chi = elliptic_genus(inv, qprec=_input_qprec(rel, ps, t))
            rows = _fj_rows(chi, 1, rel, (ps - 1) // (24 * t))
        series = _assemble(lead, thetas, _block_rest(eta_exp, thetas, rel), rows, t, ywindow)
    return SiegelSeries(series, *meta, t)


def hodge_anomaly(inv, qprec, sprec, ywindow=None):
    """The anomaly factor H(M; Z) of the factorization theorem: the theta
    block of an eta power and theta powers at multiple z, times an
    s-monomial, depending only on the signed Hodge invariants.

        d = 2 d0:     eta^{(e - 3 chi'_{d0})/2}
                      prod_{p=1..d0} theta(tau, p z)^{-chi'_{d0-p}}
                      s^{-(1/2) sum p^2 chi'_{d0-p}}
        d = 2 d0 + 1: eta^{e/2}
                      prod_{p=1..d0+1} theta(tau, (2p-1) z / 2)^{-chi'_{d0-p+1}}
                      s^{-(1/8) sum (2p-1)^2 chi'_{d0-p+1}}

    with chi'_p = (-1)^p chi_p.  (The eta exponent signs here are fixed
    by requiring that H times the second-quantized genus reproduce the
    exponential lift of minus the elliptic genus; see the factorization
    check.)  Under a ``ywindow`` the terms on |ly| <= ywindow around the
    leading monomial are returned, each exact (``_assemble``).  The
    series is empty when its s-exponent ms is not below sprec."""
    index_t = inv.d // 2 if inv.d % 2 == 0 else 2 * inv.d
    return _anomaly_times(inv, qprec, sprec, ywindow, index_t, False)


# ---- assembled Siegel forms for Calabi-Yau data ---------------------------


def _lift_at(make, qprec, sprec, ywindow=None):
    """exp_lift of make(input_qprec), where make builds the input form at
    a q-precision and input_qprec is as far as the lift reads it."""
    need = _lift_input_for(make(24), qprec, sprec)
    return exp_lift(make(need), qprec, sprec, ywindow=ywindow)


def e_form(inv, qprec, sprec, ywindow=None):
    """The Siegel form attached to Calabi-Yau invariants: the exponential
    lift of minus the elliptic genus (with z doubled first when the
    dimension is odd)."""
    def minus_genus(qp):
        form = -elliptic_genus(inv, qprec=qp)
        return form.double_z() if inv.d % 2 == 1 else form

    return _lift_at(minus_genus, qprec, sprec, ywindow=ywindow)


def factorization_product(inv, qprec, sprec, ywindow=None):
    """Hodge anomaly times the second-quantized genus, with the p-grading
    rescaled to the paramodular s-lattice (p -> s^t), on the windows past
    the anomaly's monomial (``_assemble``)."""
    if inv.d % 2 != 0:
        raise ValidationError("the factorization product is assembled for even d")
    return _anomaly_times(inv, qprec, sprec, ywindow, inv.d // 2, True)


# ---- arithmetic (additive) lifts ------------------------------------------

# name -> (d, chi): the cusp form is the additive lift of eta^d theta(tau, z)
# with the divisor character (chi/a), chi = 1 the trivial one
ADDITIVE_LIFTS = {"Delta5": (9, 1), "Delta2": (3, -4), "Delta1": (1, 1)}


def arithmetic_lift(name, qprec, sprec):
    """The additive (Maass) lift of phi = eta^d theta(tau, z), (d, chi) =
    ADDITIVE_LIFTS[name]: a cusp form that is also an exponential lift
    (Gritsenko-Nikulin).  phi has weight k = (d + 1)/2 and index 1/2, and
    d + 3 divides 24, so its q-exponents lie in 1/Q + Z with
    Q = 24/(d + 3).  With f(N, L) its coefficient of q^N y^(L/2), the
    coefficient of q^(n/Q) y^(L/2) s^(m/2), n, m = 1 mod Q, is

        sum_{a | (n, L, m)} a^(k-1) (chi/a) f(nm/(Q a^2), L/a),

    read here as a sum over a | (n, m) and the terms of one q-row of phi:
    the term q^N y^(L'/2) lands at L = a L'.  The lift has weight2 d + 1,
    character order Q and index Q/2; every term below (qprec, sprec) is
    returned."""
    if name not in ADDITIVE_LIFTS:
        raise ValidationError(f"unknown arithmetic lift {name!r}")
    d, chi = ADDITIVE_LIFTS[name]
    unit = d + 3
    order = 24 // unit
    nmax, mmax = (qprec - 1) // unit, (sprec - 1) // 12
    top = unit * max(nmax, 0) * max(mmax, 0) + 1
    rows = {}
    for (nq, ly), c in (eta_power(d, top) * theta_jacobi(top)).terms.items():
        rows.setdefault(nq, []).append((ly, c))
    terms = {}
    for n in range(1, nmax + 1, order):
        for m in range(1, mmax + 1, order):
            g = gcd(n, m)
            for a in range(1, g + 1):
                if g % a:
                    continue
                weight = a ** ((d - 1) // 2) * kronecker(chi, a)
                for ly, c in rows.get(unit * (n // a) * (m // a), ()):
                    key = (unit * n, a * ly, 12 * m)
                    terms[key] = terms.get(key, 0) + weight * c
    series = Series(DEN3, {k: c for k, c in terms.items() if c}, qprec, _clean=True)
    return SiegelSeries(series, d + 1, order, order // 2)


# ---- Humbert surface multiplicities ----------------------------------------


def humbert_multiplicity(form, a, b):
    """The multiplicity  m_{D,b} = -sum_{n>0} f(n^2 a, n b)  of the
    Humbert surface of discriminant D = b^2 - 4 t a in the divisor of the
    exponential lift of minus the form (f = Fourier coefficients of the
    form itself, e.g. the elliptic genus).  f(n^2 a, n b) is the class
    (-n^2 D, n b) of the form's ``ThetaTable``, which is 0 below -t^2, so
    the sum runs while n^2 D <= t^2; a class past the form's precision
    raises PrecisionError."""
    if form.index2 % 2 != 0:
        raise ValidationError("Humbert data needs integral index")
    t = form.index2 // 2
    disc = b * b - 4 * t * a
    if disc <= 0:
        raise ValidationError("Humbert discriminant must be positive")
    table = form.theta_table()
    return -sum(table.coeff(-n * n * disc, n * b) for n in range(1, isqrt(t * t // disc) + 1))
