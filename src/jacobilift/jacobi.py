"""Weak Jacobi forms: generators, the canonical basis, Hecke operators,
ideal division, decomposition and torsion specializations.

Conventions.  A JacobiForm stores doubled weight and index (weight2,
index2) so that half-integral cases stay in integer arithmetic.  The
Fourier expansion lives in a two-variable Series with exponent units
q: 1/24, y: 1/4; a coefficient f(n, l) of q**n y**l sits at the key
(24*n, 4*l).
"""

from bisect import bisect_left
from fractions import Fraction
from functools import wraps
from math import factorial, gcd, isqrt
from operator import add

from .errors import PrecisionError, ValidationError
from .genpoly import GeneratorPolynomial, _horner
from .modular import e2_series, eta_power, kronecker
from .series import DEN2, Series, _min_prec, _Rows, _unpack_rows, _weak_layout


class JacobiForm:
    """A weak Jacobi form given by its exact truncated Fourier expansion."""

    __slots__ = ("series", "weight2", "index2", "poly", "_table")

    def __init__(self, series, weight2, index2, poly=None):
        if series.den != DEN2:
            raise ValidationError("Jacobi forms use two-variable series")
        residue = 0 if index2 % 2 == 0 else 2
        for key in series.terms:
            if key[0] % 24 != 0:
                raise ValidationError("Jacobi form q-exponents must be integral")
            if key[1] % 4 != residue:
                raise ValidationError(
                    f"y-exponent {key[1]}/4 invalid for index {index2}/2"
                )
        self.series = series
        self.weight2 = weight2
        self.index2 = index2
        self.poly = poly
        self._table = None

    @classmethod
    def _trusted(cls, series, weight2, index2, poly=None):
        """A form from ring operations on valid forms (sums, products,
        negation, scaling, truncation), whose keys need no re-check."""
        form = object.__new__(cls)
        form.series, form.weight2, form.index2, form.poly = series, weight2, index2, poly
        form._table = None
        return form

    # ---- queries --------------------------------------------------------

    @property
    def weight(self):
        return Fraction(self.weight2, 2)

    @property
    def index(self):
        return Fraction(self.index2, 2)

    def qprec_orders(self):
        """Number of complete whole q-orders available."""
        if self.series.qprec is None:
            return None
        return max((self.series.qprec + 23) // 24, 0)

    def q_row(self, n):
        """The q**n row as a dict {l4: coeff}, read in one pass over the
        terms; PrecisionError at or past the form's precision."""
        nq, qprec = 24 * n, self.series.qprec
        if qprec is not None and nq >= qprec:
            raise PrecisionError(f"q-exponent {nq} is beyond qprec {qprec}")
        return {ly: c for (q, ly), c in self.series.terms.items() if q == nq}

    def theta_table(self):
        """The form's ``ThetaTable``, built on first use; forms do not change."""
        if self._table is None:
            self._table = ThetaTable(self)
        return self._table

    def __repr__(self):
        return (
            f"JacobiForm(weight={self.weight}, index={self.index}, "
            f"qprec={self.series.qprec})"
        )

    def __eq__(self, other):
        if not isinstance(other, JacobiForm):
            return NotImplemented
        return (
            self.weight2 == other.weight2
            and self.index2 == other.index2
            and self.series == other.series
        )

    def same_terms(self, other, qprec=None):
        return (
            self.weight2 == other.weight2
            and self.index2 == other.index2
            and self.series.same_terms(other.series, qprec)
        )

    # ---- arithmetic -------------------------------------------------------

    def _require_same_type(self, other):
        if (
            not isinstance(other, JacobiForm)
            or self.weight2 != other.weight2
            or self.index2 != other.index2
        ):
            raise ValidationError(
                "can only add or subtract Jacobi forms of equal weight and index"
            )

    def __add__(self, other):
        self._require_same_type(other)
        poly = None
        if self.poly is not None and other.poly is not None:
            poly = self.poly + other.poly
        return JacobiForm._trusted(
            self.series + other.series, self.weight2, self.index2, poly
        )

    def __neg__(self):
        poly = None if self.poly is None else -self.poly
        return JacobiForm._trusted(-self.series, self.weight2, self.index2, poly)

    def __sub__(self, other):
        self._require_same_type(other)
        poly = None
        if self.poly is not None and other.poly is not None:
            poly = self.poly - other.poly
        return JacobiForm._trusted(
            self.series - other.series, self.weight2, self.index2, poly
        )

    def __mul__(self, other):
        if isinstance(other, int):
            poly = None if self.poly is None else self.poly * other
            return JacobiForm._trusted(
                self.series.scale(other), self.weight2, self.index2, poly
            )
        poly = None
        if self.poly is not None and other.poly is not None:
            poly = self.poly * other.poly
        return JacobiForm._trusted(
            self.series * other.series,
            self.weight2 + other.weight2,
            self.index2 + other.index2,
            poly,
        )

    __rmul__ = __mul__

    def scale_div(self, d):
        """Exact division of every coefficient by the int d
        (``Series.exact_div``: InexactDivisionError on a coefficient d does
        not divide); the polynomial is divided by
        ``GeneratorPolynomial.divide``, None when it does not."""
        series = self.series._div_int(d)
        poly = None if self.poly is None else self.poly.divide(d)
        return JacobiForm._trusted(series, self.weight2, self.index2, poly)

    def double_z(self):
        """phi(tau, 2z): index quadruples, weight unchanged."""
        return JacobiForm(self.series.scale_y(2), self.weight2, self.index2 * 4)

    def truncate(self, qprec):
        return JacobiForm._trusted(
            self.series.truncate(qprec), self.weight2, self.index2, self.poly
        )


def unit_form(qprec):
    return JacobiForm(
        Series.const(1, DEN2, qprec), 0, 0, GeneratorPolynomial.const(1)
    )


# ---- generator polynomials on packed q-rows ---------------------------------

# evaluate_packed takes values of at most this many whole q-orders.  Fitted
# by timing it against nested Horner on forms for the four random
# polynomials (index 4, 7, 9 and 12) of a forms round, on the generators:
# the most orders at which it is faster for three of the four.
PACKED_MAX_ORDERS = 16


def evaluate_packed(poly, values):
    """poly(values) for a GeneratorPolynomial and four JacobiForms (None
    for one poly does not use), by the nested Horner of
    GeneratorPolynomial.evaluate on packed q-rows (``_Rows``): the form,
    precision and polynomial that Horner on the forms gives, with no Series
    product.  One slot width serves the whole evaluation: the same Horner
    of the polynomial's |coefficients| on the values' per-row l1 norms
    bounds the l1 norm of every row of the result.

    Returns None, leaving the evaluation to Horner on the forms, unless
    the polynomial is nonconstant with one weight and index in every
    monomial, and every value it uses has
    * integral index m >= 1,
    * a q-precision of at most PACKED_MAX_ORDERS whole orders, the same
      for all of them,
    * a nonzero q**0 row,
    * every term q**n y**l in the weak layout of ``_Rows``: n >= 0, |l| <= m + 2n.
    The common precision and the nonzero q**0 rows make every product of
    that Horner keep the precision."""
    terms = poly.terms
    used = [i for i in range(4) if any(key[i] for key in terms)]
    if not used:
        return None
    qprec = values[used[0]].series.qprec
    if qprec is None or not 0 < qprec <= 24 * PACKED_MAX_ORDERS:
        return None
    types = {
        (sum(e * v.weight2 for e, v in zip(key, values) if e),
         sum(e * v.index2 for e, v in zip(key, values) if e))
        for key in terms
    }
    if len(types) != 1:
        return None
    orders = (qprec + 23) // 24
    norms = [None] * 4
    for i in used:
        form = values[i]
        m = form.index2 // 2
        if (form.series.qprec != qprec or form.index2 < 2 or form.index2 % 2
                or any(nq < 0 or abs(ly) > 4 * (m + 2 * (nq // 24)) for nq, ly in form.series.terms)):
            return None
        norms[i] = _Rows.norms(form.series.terms, _weak_layout(m), orders)
        if not norms[i].rows[0]:
            return None
    size = {k: abs(c) for k, c in terms.items()}
    width = _Rows.width(max(_horner(size, norms).rows))
    packed = [_Rows.pack(v.series.terms, _weak_layout(v.index2 // 2), orders, width)
              if i in used else None for i, v in enumerate(values)]
    (weight2, index2), = types
    series_terms = _unpack_rows(_horner(terms, packed).rows, _weak_layout(index2 // 2), width)
    polys = [None if v is None else v.poly for v in values]
    result_poly = None if any(polys[i] is None for i in used) else _horner(terms, polys)
    series = Series(DEN2, series_terms, qprec, _clean=True)
    return JacobiForm._trusted(series, weight2, index2, result_poly)


# ---- theta functions and generators -------------------------------------


def theta_jacobi(qprec, y_scale=1):
    """The odd Jacobi theta function theta(tau, y_scale*z), as the series
    sum_m (-4/m) q**(m*m/8) y**(m*y_scale/2); y_scale is an integer or a
    half-integer."""
    step = 2 * y_scale
    if step % 1:
        raise ValidationError(f"theta_jacobi needs an integer or half-integer y_scale, got {y_scale}")
    if qprec is None:
        raise ValidationError("theta(tau, z) is an infinite series; give a qprec")
    terms = {}
    bound = isqrt(max(qprec, 0) // 3) + 2
    for m in range(-bound, bound + 1):
        nq = 3 * m * m
        if nq >= qprec:
            continue
        c = kronecker(-4, m)
        if c:
            terms[(nq, m * int(step))] = c
    return Series(DEN2, terms, qprec)


def _phi01_series(qprec):
    """phi01 by the heat identity (Eichler-Zagier): with D = y d/dy,
    phi01 * eta**6 = E2 theta**2 - 12 (theta D**2 theta - (D theta)**2),
    which is 12 phi_{-2,1} wp/(2 pi i)**2 with phi_{-2,1} = theta**2/eta**6.
    D is counted in units of y**(1/2) (it multiplies y**(m/2) by m), which
    turns the 12 into 3 and keeps every term in Z."""
    theta = theta_jacobi(qprec + 3)
    d1, d2 = (
        Series(DEN2, {k: c * (k[1] // 2) ** e for k, c in theta.terms.items()}, theta.qprec)
        for e in (1, 2)
    )
    heat = e2_series(qprec) * (theta * theta) - (theta * d2 - d1 * d1).scale(3)
    return (heat * eta_power(-6, qprec - 6)).truncate(qprec)


def _phi02_series(qprec):
    pad = qprec + 8
    terms = {}
    mbound = isqrt(pad // 3) + 2
    nbound = isqrt(pad) + 2
    for m in range(-mbound, mbound + 1):
        km = kronecker(-4, m)
        if not km:
            continue
        for n in range(-nbound, nbound + 1):
            kn = kronecker(12, n)
            if not kn:
                continue
            nq = 3 * m * m + n * n
            if nq >= pad:
                continue
            key = (nq, 2 * (m + n))
            c = (3 * m - n) * km * kn
            terms[key] = terms.get(key, 0) + c
    return (Series(DEN2, terms, pad)._div_int(2) * eta_power(-4, pad)).truncate(qprec)


def _phi_threehalf_series(qprec):
    """theta(tau, 2z)/theta(tau, z) by the quintuple product identity:
    eta**-1 * sum_{n>=1} (12/n) q**(n**2/24) (y**(n/2) + y**(-n/2)).  The
    sum starts at q**(1/24) and eta**-1 at q**(-1/24), so the sum is taken
    to qprec + 1."""
    terms = {}
    for n in range(1, isqrt(max(qprec, 0)) + 1):
        c = kronecker(12, n)
        if c:
            terms[(n * n, 2 * n)] = terms[(n * n, -2 * n)] = c
    return Series(DEN2, terms, qprec + 1, _clean=True) * eta_power(-1, qprec)


def _phi03_series(qprec):
    form = phi_threehalf(qprec).series
    return form * form


def _phi04_series(qprec):
    num = theta_jacobi(qprec + 6, y_scale=3)
    den = theta_jacobi(qprec + 6)
    return num.exact_div(den).truncate(qprec)


def _xi06_series(qprec):
    """xi06 = (theta/eta)**12; theta/eta starts at q**(1/12), so it is taken to qprec - 22."""
    rest = max(qprec - 22, 3)  # at least past its first term, so the product is not empty
    return ((theta_jacobi(rest + 1) * eta_power(-1, rest - 3)) ** 12).truncate(qprec)


def _form_store(build):
    """Keep one form per key (the arguments before qprec), grown only in
    precision.

    A request is computed at whole q-orders, 24*ceil(qprec/24) but at least
    one, which loses nothing since Jacobi forms have integral q-exponents.
    Only the highest precision computed is kept.  A request at that
    precision gets the kept form.  A lower one gets the kept terms up to its q-row: the kept form's
    keys are put in key order once, and the offset of a q-row in them is
    found by bisection.  The forms are infinite series, so qprec=None raises
    ValidationError.
    """
    store = {}
    order = {}  # key -> (kept form, its keys in key order)

    @wraps(build)
    def stored(*args, **kwargs):
        if kwargs:
            from inspect import signature  # keeps inspect out of the import

            args = signature(build).bind(*args, **kwargs).args
        *key, qprec = args
        if qprec is None:
            raise ValidationError(f"{build.__name__}{tuple(key)} is an infinite series; give a qprec")
        key = tuple(key)
        form = store.get(key)
        if form is None or form.series.qprec < qprec:
            # at least the q**0 row, so that an empty window is a truncation
            whole = max(-(-qprec // 24), 1) * 24
            form = build(*key, whole)
            if form.series.qprec < whole:
                raise PrecisionError(
                    f"{build.__name__}{key}: requested q-precision {qprec} "
                    f"(built at {whole}), computed {form.series.qprec} "
                    "(1/24 units)"
                )
            store[key] = form
        if qprec == form.series.qprec:
            return form
        kept = order.get(key)
        if kept is None or kept[0] is not form:
            order[key] = kept = (form, sorted(form.series.terms))
        keys = kept[1][:bisect_left(kept[1], (qprec,))]  # (qprec,) precedes row qprec
        terms = dict(zip(keys, map(form.series.terms.__getitem__, keys)))
        series = Series(DEN2, terms, qprec, _clean=True)
        return JacobiForm._trusted(series, form.weight2, form.index2, form.poly)

    stored.store = store
    return stored


@_form_store
def phi_threehalf(qprec):
    """The index 3/2 weight 0 generator (odd theta quotient)."""
    return JacobiForm(_phi_threehalf_series(qprec), 0, 3, None)


@_form_store
def phi_weak_weight_minus1(qprec):
    """The index 1/2 weight -1 form theta(tau,z)/eta(tau)**3."""
    return JacobiForm(theta_jacobi(qprec + 3) * eta_power(-3, qprec - 3), -2, 1, None)


@_form_store
def xi06(qprec):
    """The weight-0 index-6 form theta**12/eta**12 generating the ideal of
    forms that vanish at the centers of torsion specialization."""
    p1, p2, p3, p4 = map(GeneratorPolynomial.generator, (1, 2, 3, 4))
    poly = -(p1**2 * p4) + 9 * p1 * p2 * p3 - 8 * p2**3 - 27 * p3**2
    return JacobiForm(_xi06_series(qprec), 0, 12, poly)


@_form_store
def generator(m, qprec):
    """The canonical weight-0 generator of index m in {1,2,3,4,6,8,12}."""
    if m in (1, 2, 3, 4):
        build = {1: _phi01_series, 2: _phi02_series, 3: _phi03_series, 4: _phi04_series}[m]
        return JacobiForm(build(qprec), 0, 2 * m, GeneratorPolynomial.generator(m))
    if m in (6, 8, 12):
        *parts, x = {6: (2, 3, 4, 1), 8: (2, 4, 6, 1), 12: (4, 6, 8, 2)}[m]
        return _packed_quadratic(*(generator(i, qprec) for i in parts), x)
    raise ValidationError(f"no canonical generator of index {m}")


def _packed_quadratic(a, b, c, x):
    """a c - x b**2 for weak forms of integral index and one precision, on
    packed q-rows in the weak layouts (``_Rows``): each form is packed once
    and the result read back once.  The slot width holds the same quadratic
    of the forms' row l1 norms, |a||c| + x|b|**2."""
    qprec, index2 = a.series.qprec, a.index2 + c.index2
    packs = [(f.series.terms, _weak_layout(f.index2 // 2), -(-qprec // 24)) for f in (a, b, c)]
    na, nb, nc = (_Rows.norms(*p) for p in packs)
    width = _Rows.width(max((na * nc + nb * nb * x).rows))
    ra, rb, rc = (_Rows.pack(*p, width) for p in packs)
    terms = _unpack_rows((ra * rc + rb * rb * -x).rows, _weak_layout(index2 // 2), width)
    poly = a.poly * c.poly - b.poly * b.poly * x
    return JacobiForm._trusted(Series(DEN2, terms, qprec, _clean=True), 0, index2, poly)


def polynomial_form(poly, qprec):
    """The weight-0 form poly(phi01, ..., phi04) at qprec, whose ``poly``
    is poly, which must be nonzero and index-homogeneous.  It is the nested
    Horner of GeneratorPolynomial.evaluate at the generators poly uses, no
    other one built.  The values carry no polynomial, so none is rebuilt."""
    index = poly.index()
    if not index:
        return unit_form(qprec) * poly.terms[(0, 0, 0, 0)]
    used = {i for key in poly.terms for i, e in enumerate(key) if e}
    values = tuple(
        JacobiForm._trusted(generator(i + 1, qprec).series, 0, 2 * i + 2) if i in used else None
        for i in range(4)
    )
    return JacobiForm._trusted(poly.evaluate(values).series, 0, 2 * index, poly)


# ---- the canonical basis (weight 0, integral index) ----------------------


def _combination(parts, m, qprec=None):
    """sum x f over parts [(f, x)] of weight-0 forms of index m, below
    the least of qprec and the parts' precisions, in one pass over the
    terms; its polynomial is sum x f.poly, None when a part has none."""
    qprec = _min_prec(qprec, *(f.series.qprec for f, _ in parts))
    terms, poly = {}, GeneratorPolynomial()
    for f, x in parts:
        items = f.series.truncate(qprec).terms.items()
        if not terms:
            terms = {k: x * c for k, c in items}
        else:
            get = terms.get
            for k, c in items:
                terms[k] = get(k, 0) + x * c
        poly = None if poly is None or f.poly is None else poly + f.poly * x
    series = Series(DEN2, {k: c for k, c in terms.items() if c}, qprec, _clean=True)
    return JacobiForm._trusted(series, 0, 2 * m, poly)


# psi_m^(1) off the generators is sum_k x_k psi~_{m-k} phi_0k / d, with
# d = gcd(12, m) -> {k: x_k} and psi~_j = gcd(12, j) psi_j^(1).  Each sum has
# the q**0 row m(y + 1/y) + c, so its quotient by d is canonical.
_PSI1_LADDER = {
    **dict.fromkeys((1, 2), {4: 1, 2: 1, 3: -2}),
    **dict.fromkeys((3, 6, 12), {3: 2, 4: -3, 6: 1}),
    4: {12: 1, 4: 1, 8: -1},
}


def _tilde_part(j, k, x, qprec):
    """(psi~_j phi_0k, x) as a part of ``_combination``, gcd(12, j) taken into x."""
    return basis_psi(j, 1, qprec) * generator(k, qprec), gcd(12, j) * x


def _psi1_raw(m, qprec):
    if m in (1, 2, 3, 4, 6, 8, 12):
        return generator(m, qprec)
    d = gcd(12, m)
    parts = [_tilde_part(m - k, k, x, qprec) for k, x in _PSI1_LADDER[d].items()]
    return _combination(parts, m, qprec).scale_div(d)


def psi2_variant(m, qprec, variant="B"):
    """The two index-m rank-2 elements of the basis at m in {2, 3, 4}.

    Variant "A" uses the subtraction constants (20, 15, 12); variant "B"
    (the default used by the canonical basis) uses (24, 18, 16), which pins
    the q**0 row to y**2 - 4y + 6 - 4/y + 1/y**2.
    """
    if m not in (2, 3, 4):
        raise ValidationError("closed psi2 variants exist for index 2, 3, 4 only")
    consts = {"A": {2: 20, 3: 15, 4: 12}, "B": {2: 24, 3: 18, 4: 16}}
    if variant not in consts:
        raise ValidationError("variant must be 'A' or 'B'")
    c = consts[variant][m]
    g = GeneratorPolynomial.generator
    return polynomial_form(g(1) * g(m - 1) - c * g(m), qprec)


def _psi2_raw(m, qprec):
    if m in (2, 3, 4):
        return psi2_variant(m, qprec, "B")
    parts = [_tilde_part(m - 3, 3, 1, qprec), _tilde_part(m - 4, 4, -1, qprec),
             (basis_psi(m, 1, qprec), -gcd(12, m))]
    return _combination(parts, m, qprec)


def _psi_raw(m, n, qprec):
    if n < 1 or n > m:
        raise ValidationError(f"basis label n={n} out of range for index {m}")
    if n == 1:
        return _psi1_raw(m, qprec)
    if n == 2:
        return _psi2_raw(m, qprec)
    phi1 = GeneratorPolynomial.generator(1)
    if n == m:
        return polynomial_form(phi1 ** m, qprec)
    if n == m - 1:
        return polynomial_form(phi1 ** (m - 2) * GeneratorPolynomial.generator(2), qprec)
    return generator(3, qprec) * basis_psi(m - 3, n - 1, qprec)


@_form_store
def basis_psi(m, n, qprec):
    """Element n of the canonical basis of weight-0 index-m weak forms.

    Construction follows the recursive ladder over the generators
    (``_PSI1_LADDER`` for n = 1); elements with n >= 3 are then put in a
    Hermite-style canonical shape: monic at y**n, zero q**0 coefficients at
    y**j for 2 <= j < n, and the y**1 coefficient reduced modulo the
    leading coefficient of element 1.
    """
    if m < 1:
        raise ValidationError("basis index must be >= 1")
    raw = _psi_raw(m, n, qprec)
    if n < 3:
        return raw
    row = raw.q_row(0)
    if row.get(4 * n, 0) != 1:
        raise ValidationError(f"raw basis element ({m},{n}) is not monic")
    parts = [(raw, 1)]
    for j in range(n - 1, 0, -1):
        coeff = row.get(4 * j, 0)
        if j == 1:
            coeff //= m // gcd(12, m)
        if coeff:
            lower = basis_psi(m, j, qprec)
            parts.append((lower, -coeff))
            for l4, c in lower.q_row(0).items():
                row[l4] = row.get(l4, 0) - coeff * c
    return _combination(parts, m)


def basis_sum(m, coords, qprec):
    """sum_n coords[n] psi_m^(n) at qprec, its polynomial included."""
    parts = [(basis_psi(m, n, qprec), x) for n, x in coords.items() if x]
    return _combination(parts, m, qprec)


# ---- the theta decomposition and Hecke operators ---------------------------


class ThetaTable:
    """A Jacobi form of index t by class: c(n, l) depends only on
    D = 4tn - l**2 and on l mod 2t (Eichler-Zagier, Thm 2.2).  The one
    statement of that reduction, built once per form
    (``JacobiForm.theta_table``) from all of its terms: the classes of
    residue r = l mod 2t in one list, class D at (D + t**2) // 4t (D runs
    in steps of 4t), 0 where no term meets it (terms are nonzero).
    * Domain: index t >= 1 and a finite precision of ``orders`` = P whole
      q-orders, else ValidationError.  A half-integral index h is read as
      phi(tau, 2z), of index 4h, terms named with the marker (z -> 2z).
    * Support: a term with n < 0 or D < -t**2 is a ValidationError naming it.
    * Consistency: two terms of one class with different coefficients are a
      ValidationError naming both.
    * Completeness: a class present has every representative (n, l) with
      n < P among the terms, else ValidationError naming the class and one
      missing (n, l).  A representative with n < 0 is never a term, so a
      class whose lowest representative has n0 < 0 is refused too.
    * Determined classes: with r0 = l mod 2t in (-t, t], class (D, l) sits
      at q-order n0 = (D + r0**2)/4t and is known when n0 < P; ``coeff``
      past that raises PrecisionError naming the class, the needed q-order
      and the available one.  A class with D != -l**2 mod 4t, or n0 < 0, is 0.
    * Images: f|T_-(m) at (N, L) is the sum over a | (N, L, m) of
      (m/a) C((4tmN - L**2)/a**2, (L/a) mod 2t) (``tminus``)."""

    __slots__ = ("t", "orders", "_rows")

    def __init__(self, form):
        half = form.index2 % 2
        t = 2 * form.index2 if half else form.index2 // 2
        orders = form.qprec_orders()
        if t < 1 or orders is None:
            raise ValidationError("a theta decomposition needs a positive index and a finite "
                                  f"q-precision (Jacobi forms are infinite series), got {form!r}")
        unit, marker = (2, " (z -> 2z)") if half else (4, "")  # ly per unit of l
        t4, t2, tt, top, count = 4 * t, 2 * t, t * t, 4 * t * (orders - 1), 0
        self.t, self.orders, self._rows = t, orders, [[0] * (orders + t // 4) for _ in range(t2)]
        rows, terms = self._rows, form.series.terms

        def klass(key):  # the class (D, l mod 2t) of a term
            l = key[1] // unit
            return t4 * (key[0] // 24) - l * l, l % t2

        def reps(d, r):  # the l = r mod 2t with n = (D + l**2)/4t < P
            b = isqrt(top - d)
            return range(-b + (r + b) % t2, b + 1, t2)

        for (nq, ly), c in terms.items():
            n, l = nq // 24, ly // unit
            d = t4 * n - l * l
            if n < 0 or d < -tt:
                raise ValidationError(f"input term {c} q^{n} y^{l}{marker} lies outside the "
                                      f"weak-form support n >= 0, l^2 <= 4*{t}*n + {t}^2")
            row, i = rows[l % t2], (d + tt) // t4
            known = row[i]
            if not known:
                row[i] = c
                count += len(reps(d, l % t2))
            elif known != c:
                n1, l1 = next((k[0] // 24, k[1] // unit) for k in terms if klass(k) == (d, l % t2))
                raise ValidationError(
                    f"input terms {known} q^{n1} y^{l1} and {c} q^{n} y^{l}{marker} differ in the "
                    f"class (D, l mod {t2}) = {(d, l % t2)}, on which a Jacobi form of index {t} "
                    "is constant")
        # each term is one of its class's representatives, so the terms fill
        # every class they meet exactly when they are as many as those
        if count != len(terms):
            for d, r in dict.fromkeys(map(klass, terms)):  # in the order of their first terms
                for l in reps(d, r):
                    n = (d + l * l) // t4
                    if (24 * n, unit * l) not in terms:
                        raise ValidationError(
                            f"input class (D, l mod {t2}) = {(d, r)} lacks its term q^{n} y^{l}"
                            f"{marker} below the precision of {orders} q-orders: a Jacobi form "
                            f"of index {t} is constant on the class")

    def classes(self):
        """Each class a term meets, as ((D, l mod 2t), c), D from its list index."""
        t = self.t
        return (((4 * t * i + (t * t - r * r) % (4 * t) - t * t, r), c)
                for r, row in enumerate(self._rows) for i, c in enumerate(row) if c)

    def coeff(self, d, l):
        """The coefficient of class (d, l mod 2t)."""
        t = self.t
        r0 = (l + t - 1) % (2 * t) - t + 1
        n0, rest = divmod(d + r0 * r0, 4 * t)
        if rest or n0 < 0:
            return 0
        if n0 >= self.orders:
            raise PrecisionError(f"class (D, l mod {2 * t}) = ({d}, {l % (2 * t)}) sits at q-order "
                                 f"{n0}, which reads {n0 + 1} q-orders of the input form; it has "
                                 f"{self.orders}")
        return self._rows[l % (2 * t)][(d + t * t) // (4 * t)]

    def tminus(self, m, top):
        """f|T_-(m) at q-orders N <= top, as one list per N over the weak
        band |L| <= tm + 2N, entry L + tm + 2N the coefficient of q^N y^L.
        Part a at (a*n, a*l) reads class (4t(m/a)n - l**2, l), 0 unless
        l**2 <= 4t(m/a)n + t**2, and (4tm*top, 0) sits furthest, at m*top."""
        t, t2, t4 = self.t, 2 * self.t, 4 * self.t
        if top < 0:
            return []
        self.coeff(t4 * m * top, 0)  # PrecisionError past the input
        reach = isqrt(t4 * m * top + t * t)  # class 4twn - l**2 sits at w*n + e in l's list
        cols = [(self._rows[l % t2], (t * t - l * l) // t4) for l in range(-reach, reach + 1)]
        out = []
        for a, w in ((a, m // a) for a in range(1, m + 1) if m % a == 0):
            for n in range(top // a + 1):
                b, base = isqrt(t4 * w * n + t * t), w * n
                part = [w * row[base + e] for row, e in cols[reach - b:reach + b + 1]]
                if a == 1:
                    pad = [0] * (t * m + 2 * n - b)
                    out.append(pad + part + pad)
                else:  # at L = a*l, every a-th entry of row a*n
                    row, lo = out[a * n], t * m + 2 * a * n - a * b
                    row[lo:lo + 2 * a * b + 1:a] = map(add, row[lo:lo + 2 * a * b + 1:a], part)
        return out


def hecke_tminus(form, m):
    """The index-raising Hecke operator T_-(m) on weight-0 integral-index
    forms, on every q-order its input determines: (P - 1)//m + 1 of the
    input's P, read off the rows of ``ThetaTable.tminus``."""
    if form.weight2 != 0 or form.index2 % 2:
        raise ValidationError("T_-(m) needs a weight-0 form of integral index")
    if m < 1:
        raise ValidationError("Hecke parameter must be positive")
    table = form.theta_table()
    top, tm = (table.orders - 1) // m, table.t * m
    terms = {(24 * n, 4 * (u - tm - 2 * n)): c
             for n, row in enumerate(table.tminus(m, top)) for u, c in enumerate(row) if c}
    return JacobiForm(Series(DEN2, terms, 24 * (top + 1), _clean=True), 0, form.index2 * m, None)


def hecke_t0_2(form):
    """The index-preserving operator T_0(2) on index-2 weight-0 forms,
    acting on norm-indexed coefficients by
    g2(N) = 8 g(4N) + 2 (-N/2) g(N) + g(N/4), g read from the form's
    ``ThetaTable`` (at index 2, D = 0, 4, 7 mod 8 fix l = 0, 2, +-1 mod 4,
    and no other D is a norm), on the (P - 1)//4 + 1 q-orders n whose
    g(32n) the input's P determine."""
    if form.weight2 != 0 or form.index2 != 4:
        raise ValidationError("T_0(2) is implemented for weight 0, index 2")
    table = form.theta_table()

    def g(norm):
        return table.coeff(norm, (0, 0, 0, 0, 2, 0, 0, 1)[norm % 8])

    orders_out = (table.orders - 1) // 4 + 1
    if orders_out <= 0:
        raise PrecisionError("input precision too small for T_0(2)")
    out = {}
    for n in range(orders_out):
        bound = isqrt(8 * n + 4)  # norm >= -4
        for l in range(-bound, bound + 1):
            norm = 8 * n - l * l
            val = 8 * g(4 * norm) + 2 * kronecker(-norm, 2) * g(norm)
            if norm % 4 == 0:
                val += g(norm // 4)
            if val:
                out[(24 * n, 4 * l)] = val
    series = Series(DEN2, out, 24 * orders_out, _clean=True)
    return JacobiForm(series, 0, 4, None)


# ---- ideal division and decomposition -------------------------------------


def divide_by_xi06(form):
    """Exact division by theta**12/eta**12 (weight 0, index 6), which starts
    at q**1: xi06 to qprec + 24 - min_nq, and past its q**1 term, leaves the
    quotient qprec - 24."""
    if form.series.qprec is None:
        raise ValidationError("divide_by_xi06 needs a form with a qprec")
    xi = xi06(max(form.series.qprec - form.series.min_nq(), 1) + 24)
    return JacobiForm(form.series.exact_div(xi.series), form.weight2, form.index2 - 12, None)


class Decomposition:
    """Result of writing a weak form over the canonical basis and the
    xi06-ideal: form = sum_k xi06**k * sum_n coords[k][n] * psi_{m-6k}^{(n)}."""

    __slots__ = ("index2", "levels", "poly")

    def __init__(self, index2, levels, poly):
        self.index2 = index2
        self.levels = levels
        self.poly = poly

    def __repr__(self):
        return f"Decomposition(index={self.index2 // 2}, levels={self.levels})"


def _solve_row(row, m, qprec):
    """Coordinates {n: x} of an integer q**0 row over the canonical index-m
    basis.  Raises ValidationError naming the failed pivot, or the residue,
    when the row is not the q**0 row of a weak Jacobi form over Z."""
    work = dict(row)
    coords = {}
    for n in range(m, 0, -1):
        prow = basis_psi(m, n, qprec).q_row(0)
        lead = prow[4 * n]
        c = work.get(4 * n, 0)
        if c % lead:
            raise ValidationError(
                f"q**0 coefficient {c} at y**{n} is not divisible by the basis "
                f"pivot {lead} (index {m})"
            )
        x = c // lead
        coords[n] = x
        if x:
            for l4, pc in prow.items():
                new = work.get(l4, 0) - x * pc
                if new:
                    work[l4] = new
                else:
                    work.pop(l4, None)
    if work:
        raise ValidationError(
            f"q**0 row is not that of a weak Jacobi form over Z: residue {work}"
        )
    return coords


def decompose(form):
    """Write a weight-0 integral-index weak form over the canonical basis
    and powers of xi06, returning coordinates and a generator polynomial."""
    if form.weight2 != 0 or form.index2 % 2:
        raise ValidationError("decompose needs weight 0 and integral index")
    m = form.index2 // 2
    min_prec = 24 * (m // 6 + 2)
    if form.series.qprec is not None and form.series.qprec < min_prec:
        raise PrecisionError(
            f"decompose at index {m} needs q-precision >= {min_prec} "
            f"(in 1/24 units), got {form.series.qprec}"
        )
    qprec = form.series.qprec
    levels = []
    poly = GeneratorPolynomial()
    current = form
    xi_poly = xi06(48).poly
    level = 0
    while True:
        mm = current.index2 // 2
        if mm == 0:
            c = current.series.coeff((0, 0))
            if not current.series.same_terms(
                Series.const(c, DEN2, current.series.qprec)
            ):
                raise ValidationError("index-0 residue is not constant")
            levels.append({0: c} if c else {})
            poly = poly + (xi_poly ** level) * c
            break
        coords = _solve_row(current.q_row(0), mm, current.series.qprec)
        levels.append({n: x for n, x in coords.items() if x})
        part = basis_sum(mm, coords, current.series.qprec)
        poly = poly + (xi_poly ** level) * part.poly
        reduction = current - part
        if reduction.series.is_zero():
            break
        if mm < 6:
            raise ValidationError(
                "nonzero remainder of index < 6 after removing the q**0 row; "
                "the input is not a weak Jacobi form over Z"
            )
        current = divide_by_xi06(reduction)
        level += 1
    return Decomposition(form.index2, levels, poly)


# ---- analytic-style invariants --------------------------------------------


def taylor_coeffs(form, count):
    """The Taylor coefficients T_0, ..., T_{count-1} of
    exp(2*m*G2*w**2) * phi along w = 2*pi*i*z (m the index,
    G2 = -1/24 + sum sigma_1(n) q**n), scaled to integral series: entry j
    is j! * 12**(j//2) * T_j.

    With E2 = -24*G2 and the moments P_i = sum f(n, l) l**i q**n,
    j! 12**(j//2) T_j = sum over 2k <= j of
    j!/(k! (j-2k)!) * (-m)**k * 12**(j//2 - k) * E2**k * P_{j-2k},
    every factor of which is integral (Eichler-Zagier, section 3).  The
    w**2 coefficient vanishes identically for weight-0 forms (it would be a
    holomorphic weight-2 level-1 form)."""
    if form.index2 % 2:
        raise ValidationError("taylor_coeffs expects integral index")
    if any(ly % 4 for _, ly in form.series.terms):
        raise ValidationError("taylor_coeffs expects integral y-exponents")
    qprec = form.series.qprec
    m = form.index2 // 2
    e2 = e2_series(qprec)
    e2_powers = [Series.const(1, DEN2, qprec)]
    while 2 * len(e2_powers) < count:
        e2_powers.append(e2_powers[-1] * e2)
    moments = []
    for j in range(count):
        terms = {}
        for (nq, ly), c in form.series.terms.items():
            terms[(nq, 0)] = terms.get((nq, 0), 0) + c * (ly // 4) ** j
        moments.append(Series(DEN2, terms, qprec))
    out = []
    for j in range(count):
        total = Series.zero(DEN2, qprec)
        for k in range(j // 2 + 1):
            weight = factorial(j) // (factorial(k) * factorial(j - 2 * k))
            weight *= (-m) ** k * 12 ** (j // 2 - k)
            total = total + (e2_powers[k] * moments[j - 2 * k]).scale(weight)
        out.append(total)
    return out


def linear_residuals(form):
    """The two linear residuals that vanish on weight-0 weak forms:
    r1 = m*sum f(0,l) - 6*sum l**2 f(0,l),
    r2 = 24*m*sum f(0,l) - sum (m - 6*n**2) f(1,n).
    With m = index2/2 and l = l4/4, both are summed over Z in eighths and
    divided once."""
    m2 = form.index2
    row0 = form.q_row(0)
    row1 = form.q_row(1)
    s0 = sum(row0.values())
    r1 = 4 * m2 * s0 - 3 * sum(l4 * l4 * c for l4, c in row0.items())
    r2 = 96 * m2 * s0 - sum((4 * m2 - 3 * l4 * l4) * c for l4, c in row1.items())
    return Fraction(r1, 8), Fraction(r2, 8)


# ---- specializations -------------------------------------------------------


# Cyclotomic polynomials Phi_N for small N, as monic coefficient lists
# (constant term first).  Used to reduce sums of roots of unity exactly.
_CYCLOTOMIC = {
    1: [-1, 1],
    2: [1, 1],
    3: [1, 1, 1],
    4: [1, 0, 1],
    5: [1, 1, 1, 1, 1],
    6: [1, -1, 1],
}


def _root_of_unity_sum(weights, order):
    """sum(weights[r] * zeta**r) for a primitive order-th root of unity
    zeta, as an int; raises ValidationError when the sum is not rational.

    The powers zeta**k with k >= deg Phi_order are folded down by
    zeta**deg = -sum(Phi_order[i] zeta**i)."""
    if order not in _CYCLOTOMIC:
        raise ValidationError(f"unsupported root-of-unity order {order}")
    phi = _CYCLOTOMIC[order]
    deg = len(phi) - 1
    vec = [0] * order
    for r, w in weights.items():
        vec[r % order] += w
    for k in range(order - 1, deg - 1, -1):
        c = vec[k]
        if c == 0:
            continue
        vec[k] = 0
        for i in range(deg):
            vec[k - deg + i] -= c * phi[i]
    if any(vec[1:deg]):
        raise ValidationError(
            f"root-of-unity sum is not rational: coefficients {vec[:deg]} at order {order}"
        )
    return vec[0]


def specialize_torsion(form, order):
    """Evaluate at z = 1/order (y -> a primitive order-th root of unity),
    returning an integer q-series.  Needs an integral index."""
    if form.index2 % 2:
        raise ValidationError("torsion specialization needs integral index")
    if order < 1:
        raise ValidationError("torsion order must be positive")
    by_q = {}
    for (nq, ly), c in form.series.terms.items():
        weights = by_q.setdefault(nq, {})
        r = (ly // 4) % order
        weights[r] = weights.get(r, 0) + c
    terms = {}
    for nq, weights in by_q.items():
        value = _root_of_unity_sum(weights, order)
        if value:
            terms[(nq, 0)] = value
    return Series(DEN2, terms, form.series.qprec, _clean=True)


def specialize_center(form):
    """The hat series q**(m/4) * phi(tau, -(tau+1)/2), via y -> -q**(-1/2).

    Exponents land in (1/4)Z.  Unknown coefficients beyond the input
    precision can move down, so the output precision is reduced by the
    usual norm bound |l| <= sqrt(4nm + m**2) on weak-form support.
    """
    if form.index2 % 2:
        raise ValidationError("center specialization needs integral index")
    m = form.index2 // 2
    orders = form.qprec_orders()
    if orders is None:
        raise ValidationError("center specialization needs finite precision")
    # First unknown order is n = orders; bound the landing exponent.
    n0 = orders
    lmax = isqrt(4 * n0 * m + m * m) + 1
    qout = 24 * n0 - 12 * lmax + 6 * m
    terms = {}
    for (nq, ly), c in form.series.terms.items():
        l = ly // 4
        new_nq = nq - 3 * ly + 6 * m
        if new_nq >= qout:
            continue
        sign = -1 if l % 2 else 1
        key = (new_nq, 0)
        terms[key] = terms.get(key, 0) + sign * c
    return Series(DEN2, terms, qout)
