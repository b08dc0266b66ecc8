"""Sparse exact Laurent series in two or three formal variables.

A Series stores terms as a dict mapping integer exponent keys to nonzero
coefficients.  Exponents are kept in fixed fractional units given by the
denominator tuple ``den``:

* two variables (q, y): den = (24, 4), a key (nq, ly) means q**(nq/24) * y**(ly/4);
* three variables (q, y, s): den = (24, 4, 24), key (nq, ly, ms).

``qprec`` is an exclusive bound on the stored q-exponent in 1/24 units:
all terms with nq < qprec are exact and complete; nothing is stored at or
above it.  qprec=None marks an exact (polynomial) object with no missing
tail.  Every coefficient is a Python int: the package works over Z alone.

Sums, scalings, products, exponent substitutions and truncations take
both arities, as does exact division by an int; a (q, y, s) product is the
dict loop.  Powers and exact division by a series take (q, y) series only:
the package assembles its Siegel series from (q, y) rows.
"""

import sys
from array import array
from math import gcd
from operator import add, lshift, mul, rshift

from .errors import (
    InexactDivisionError,
    PrecisionError,
    ValidationError,
)

DEN2 = (24, 4)
DEN3 = (24, 4, 24)


def _min_prec(*precs):
    vals = [p for p in precs if p is not None]
    return min(vals) if vals else None


class Series:
    """Immutable sparse Laurent series with exact integer coefficients."""

    __slots__ = ("den", "terms", "qprec")

    def __init__(self, den, terms, qprec, *, _clean=False):
        if tuple(den) not in (DEN2, DEN3):
            raise ValidationError(f"unsupported denominator tuple {den}")
        self.den = tuple(den)
        self.qprec = qprec
        if _clean:
            self.terms = terms
        else:
            nvars = len(self.den)
            clean = {}
            for key, coeff in terms.items():
                key = tuple(key)
                if len(key) != nvars:
                    raise ValidationError(f"key {key} has wrong arity for {den}")
                if not isinstance(coeff, int):
                    raise ValidationError(f"coefficient {coeff!r} at {key} is not an int")
                if qprec is not None and key[0] >= qprec:
                    continue
                if coeff == 0:
                    continue
                clean[key] = coeff
            self.terms = clean

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, den=DEN2, qprec=None):
        return cls(den, {}, qprec, _clean=True)

    @classmethod
    def const(cls, value, den=DEN2, qprec=None):
        key = (0,) * len(den)
        return cls(den, {key: value}, qprec)

    # ---- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.terms

    def min_nq(self):
        """Smallest stored q-exponent (0 for the empty series)."""
        return min(self.terms)[0] if self.terms else 0

    def coeff(self, key):
        return self.terms.get(tuple(key), 0)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def q_slice(self, nq):
        """Terms at a fixed q-exponent, as a sorted list of (key, coeff)."""
        if self.qprec is not None and nq >= self.qprec:
            raise PrecisionError(f"q-exponent {nq} is beyond qprec {self.qprec}")
        return sorted((k, c) for k, c in self.terms.items() if k[0] == nq)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.den == other.den
            and self.qprec == other.qprec
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.den, self.qprec, tuple(self.sorted_terms())))

    def same_terms(self, other, qprec=None):
        """Equality of terms up to the common (or given) q-precision."""
        if self.den != other.den:
            return False
        prec = _min_prec(self.qprec, other.qprec, qprec)
        return self.truncate(prec).terms == other.truncate(prec).terms

    def __repr__(self):
        n = len(self.terms)
        return f"Series(den={self.den}, terms={n}, qprec={self.qprec})"

    # ---- precision management -----------------------------------------

    def truncate(self, qprec):
        if qprec is None or (self.qprec is not None and qprec >= self.qprec):
            return self
        terms = {k: c for k, c in self.terms.items() if k[0] < qprec}
        return Series(self.den, terms, qprec, _clean=True)

    # ---- arithmetic ----------------------------------------------------

    def __neg__(self):
        terms = {k: -c for k, c in self.terms.items()}
        return Series(self.den, terms, self.qprec, _clean=True)

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def _combine(self, other, negate):
        """self + other, or self - other when negate, in one pass: an
        operand that already stops at the common precision is not filtered
        again, and -other is not built."""
        if not isinstance(other, Series):
            return NotImplemented
        if self.den != other.den:
            raise ValidationError("cannot add series with different denominators")
        qprec = _min_prec(self.qprec, other.qprec)
        terms = dict(self.truncate(qprec).terms)
        get = terms.get
        items = other.truncate(qprec).terms.items()
        for k, c in ((k, -c) for k, c in items) if negate else items:
            new = get(k, 0) + c
            if new:
                terms[k] = new
            else:
                terms.pop(k, None)
        return Series(self.den, terms, qprec, _clean=True)

    def scale(self, scalar):
        if not isinstance(scalar, int):
            raise ValidationError(f"series scalars must be ints, got {scalar!r}")
        if scalar == 0:
            return Series.zero(self.den, self.qprec)
        terms = {k: scalar * c for k, c in self.terms.items()}
        return Series(self.den, terms, self.qprec, _clean=True)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        if self.den != other.den:
            raise ValidationError("cannot multiply series with different denominators")
        qa, qb = self.min_nq(), other.min_nq()
        qprec = _min_prec(
            None if self.qprec is None else self.qprec + qb,
            None if other.qprec is None else other.qprec + qa,
        )
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b, qa, qb = b, a, qb, qa
        if self.den == DEN2 and len(a) >= PACK_MIN_TERMS:
            return Series(DEN2, _mul_rows(a, b, qa, qb, qprec), qprec, _clean=True)
        return Series(self.den, _mul_dict(a, b, qprec, len(self.den)), qprec, _clean=True)

    __rmul__ = __mul__

    def __pow__(self, k):
        """self**k by ``_miller`` on q-rows packed in the ``_Rows`` layout
        (q0, g, y0, h, s), to qprec + (k - 1) q0; k < 0 needs a lowest q-row
        +-y**a, else InexactDivisionError.  (q0, y0) is the lowest key, g and
        h are the gcd steps and s >= 0 is the least slope that keeps slots
        >= 0, so b**j lies in the layout with origin (j q0, j y0); each step
        divides by n b_0(Y) exactly, as evaluation at Y is a ring map.  The
        slot width holds the majorant (sum |b_j|_1 t**j)**k, for k < 0
        (1 - sum_{j>=1} |b_j|_1 t**j)**k; y-free series are the one-slot
        case."""
        if not isinstance(k, int) or self.den != DEN2:
            raise ValidationError("powers take an integer exponent of a two-variable series")
        if k == 0 or not self.terms:
            if k < 0:
                raise ZeroDivisionError("division by the zero series")
            return self if k else Series.const(1).truncate(self.qprec)
        q0, y0 = min(self.terms)
        g, h = (gcd(*(v - low for v in col)) for low, col in zip((q0, y0), zip(*self.terms)))
        places = [((nq - q0) // (g or 1), (ly - y0) // (h or 1)) for nq, ly in self.terms]
        last = max(n for n, _ in places)
        s = max([0] + [-(u // n) for n, u in places if n])
        layout = (q0, g or 1, y0, h or 1, s)
        norms = _Rows.norms(self.terms, layout, last + 1).rows
        if k < 0 and (norms[0] != 1 or self.qprec is None and last):
            raise InexactDivisionError(f"power {k} needs a lowest q-row +-y**a, one if exact")
        count = last * k + 1 if self.qprec is None or not g else (self.qprec - q0 - 1) // g + 1
        norms = norms if k > 0 else [1] + [-v for v in norms[1:]]
        width = _Rows.width(max(_miller(norms, k, count, norms[0] ** abs(k))) if h else 0)
        rows = _Rows.pack(self.terms, layout, last + 1, width).rows
        out = _miller(rows, k, count, rows[0] ** abs(k))
        terms = (_unpack_rows(out, (k * q0, g or 1, k * y0, h, s), width)
                 if h else {(k * q0 + g * n, k * y0): c for n, c in enumerate(out) if c})
        qprec = None if self.qprec is None else self.qprec + (k - 1) * q0
        return Series(DEN2, terms, qprec, _clean=True)

    def exact_div(self, other):
        """The exact quotient by an int d (``_div_int``) or a (q, y) series.
        d divides each coefficient of a (q, y) or (q, y, s) series, qprec
        kept, else InexactDivisionError names the coefficient, its key and
        |d|.  Two (q, y) series divide by q-rows.  With alpha and beta
        the operands' lowest q-levels and g the gcd of their level offsets,
        quotient row c_n for n = alpha - beta, alpha - beta + g, ... below
        the quotient's qprec is the remainder row a_{beta+n} - sum_{j>0}
        b_{beta+j} c_{n-j} divided by the divisor's lowest row b_beta
        (``_divide_row``, which raises InexactDivisionError at once on a
        row that does not divide).  Between exact (qprec=None) series the
        quotient stops at q-level max(a) - max(b), and a nonzero remainder
        row past it raises.  A (q, y, s) operand raises ValidationError."""
        if isinstance(other, int):
            return self._div_int(other)
        if not isinstance(other, Series) or (self.den, other.den) != (DEN2, DEN2):
            raise ValidationError("exact division takes two two-variable series")
        if other.is_zero():
            raise ZeroDivisionError("division by the zero series")
        alpha, beta = self.min_nq(), other.min_nq()
        qprec = _min_prec(
            None if self.qprec is None else self.qprec - beta,
            None if other.qprec is None else other.qprec - 2 * beta + alpha,
        )
        if self.is_zero():
            return Series.zero(DEN2, qprec)
        rem, rows = {}, {}
        for terms, out in ((self.terms, rem), (other.terms, rows)):
            for (nq, ly), c in terms.items():
                out.setdefault(nq, {})[ly] = c
        stop = qprec if qprec is not None else max(rem) - max(rows) + 1
        lead = rows.pop(beta)
        rest = [(nq, list(row.items())) for nq, row in sorted(rows.items())]
        step = gcd(*(nq - alpha for nq in rem), *(nq - beta for nq in rows)) or 1
        quot = {}
        for n in range(alpha - beta, stop, step):
            row = {ly: c for ly, c in rem.pop(beta + n, {}).items() if c}
            if not row:
                continue
            c = _divide_row(row, lead, n)
            for nq, b in rest:
                if qprec is not None and n + nq >= qprec + beta:
                    break  # rows from qprec + beta on are never divided
                target = rem.setdefault(n + nq, {})
                for yc, cc in c.items():
                    for yb, cb in b:
                        target[yc + yb] = target.get(yc + yb, 0) - cc * cb
            quot.update(((n, ly), cq) for ly, cq in c.items())
        left = [nq - beta for nq, row in rem.items() if any(row.values())] if qprec is None else []
        if left:
            raise InexactDivisionError(
                f"division is not exact: quotient q-level {min(left)} lies past "
                f"{stop - 1}, the dividend's top q-level minus the divisor's"
            )
        return Series(DEN2, quot, qprec, _clean=True)

    def _div_int(self, d):
        """``exact_div`` by the int d.  The package divides by an int through
        this name: perfbench's tracer wraps ``exact_div`` for series divisors."""
        if not d:
            raise ZeroDivisionError("division of a series by 0")
        for key, c in self.terms.items():
            if c % d:
                raise InexactDivisionError(f"coefficient {c} at {key} is not divisible by {abs(d)}")
        return Series(self.den, {k: c // d for k, c in self.terms.items()}, self.qprec, _clean=True)

    # ---- exponent substitutions ---------------------------------------

    def substitute(self, matrix, qprec):
        """Apply an integer-linear map to the exponent lattice.

        matrix is a list of rows; new_key[i] = sum(matrix[i][j] * key[j]).
        The new qprec is the caller's responsibility: exponent maps can move unknown
        high-order terms downward, so no safe default exists in general.
        """
        nvars = len(self.den)
        if len(matrix) != nvars or any(len(row) != nvars for row in matrix):
            raise ValidationError("substitution matrix has wrong shape")
        out = {}
        for key, coeff in self.terms.items():
            new_key = tuple(sum(map(mul, row, key)) for row in matrix)
            if qprec is not None and new_key[0] >= qprec:
                continue
            new = out.get(new_key, 0) + coeff
            if new == 0:
                out.pop(new_key, None)
            else:
                out[new_key] = new
        return Series(self.den, out, qprec, _clean=True)

    def scale_y(self, factor):
        """y -> y**factor (factor a nonzero integer)."""
        if factor == 0:
            raise ValidationError("y-scaling factor must be nonzero")
        matrix = [[int(i == j) for j in range(len(self.den))] for i in range(len(self.den))]
        matrix[1][1] = factor
        return self.substitute(matrix, self.qprec)

    def shift(self, key):
        """Multiply by the monomial with the given exponent key."""
        key = tuple(key)
        if len(key) != len(self.den):
            raise ValidationError("shift key has wrong arity")
        qprec = None if self.qprec is None else self.qprec + key[0]
        terms = {tuple(map(add, k, key)): c for k, c in self.terms.items()}
        return Series(self.den, terms, qprec, _clean=True)

    # ---- three-variable helpers ---------------------------------------

    def s_slice(self, ms):
        """Extract the (q, y) coefficient series of s**(ms/24)."""
        if self.den != DEN3:
            raise ValidationError("s_slice needs a three-variable series")
        terms = {(k[0], k[1]): c for k, c in self.terms.items() if k[2] == ms}
        return Series(DEN2, terms, self.qprec, _clean=True)

    def truncate_s(self, sprec):
        """Drop terms with s-exponent >= sprec (in 1/24 units); exclusive."""
        if self.den != DEN3:
            raise ValidationError("truncate_s needs a three-variable series")
        terms = {k: c for k, c in self.terms.items() if k[2] < sprec}
        return Series(DEN3, terms, self.qprec, _clean=True)

    def clip_y(self, ybound):
        """Drop terms with |y-exponent| > ybound (in 1/4 units)."""
        terms = {k: c for k, c in self.terms.items() if abs(k[1]) <= ybound}
        return Series(self.den, terms, self.qprec, _clean=True)


def _miller(rows, k, count, first, divide=None, zero=0):
    """c_0 = first = rows[0]**k, ..., c_(count-1) of (sum_j rows[j] t**j)**k
    by J. C. P. Miller's recurrence (Knuth, TAOCP 2, 4.7): n rows[0] c_n =
    sum_{j>=1} ((k + 1) j - n) rows[j] c_(n-j) = S, c_n = divide(S, n), by
    default S // (n rows[0]), which must be exact; series rows with
    rows[0] = 1 take ``Series._div_int``, exact or InexactDivisionError."""
    out = [first]
    rest = [(j, row) for j, row in enumerate(rows[:count]) if j and row != 0]
    for n in range(1, count):
        acc = sum((((k + 1) * j - n) * row * out[n - j] for j, row in rest if j <= n), zero)
        if divide is None:
            acc, rem = divmod(acc, n * rows[0])
            if rem:
                raise InexactDivisionError(f"power {k}: row {n} is not divisible by {n} b_0")
        out.append(acc if divide is None else divide(acc, n))
    return out


def _divide_row(row, divisor, level):
    """The quotient of two q-rows, finite y-polynomials {ly: c} with
    nonzero coefficients, the quotient's at q-level ``level``, by long
    division from the lowest term up, one slot per gcd step of the
    exponents.  An exact quotient fills the y-box of the row's extent minus
    the divisor's, so a quotient term past its top, or a coefficient that
    does not divide, raises InexactDivisionError naming the q-level and the
    y-box."""
    (low, cd), *rest = sorted(divisor.items())
    base, top = min(row), max(row)
    lo, hi = base - low, top - max(divisor)
    step = gcd(*(y - base for y in row), *(y - low for y, _ in rest)) or 1
    rem = [0] * ((top - base) // step + 1)
    for y, c in row.items():
        rem[(y - base) // step] = c
    rest = [((y - low) // step, c) for y, c in rest]
    quot = {}
    for i, c in enumerate(rem):  # rem[i] is final once i is reached
        if not c:
            continue
        y = lo + step * i
        if y > hi:
            raise InexactDivisionError(
                f"division is not exact at q-level {level}: quotient term {(level, y)} leaves "
                f"the y-box [{lo}] to [{hi}] (the row's extent minus the divisor's)"
            )
        qc, r = divmod(c, cd)
        if r:
            raise InexactDivisionError(
                f"division is not exact at q-level {level}: {c} is not divisible by {cd} over Z"
            )
        quot[y] = qc
        for j, cr in rest:
            rem[i + j] -= qc * cr
    return quot


# A Z-product whose smaller operand has fewer terms stays on the dict loop;
# every other (q, y) product runs on packed q-rows (``_mul_rows``).  A sparse
# factor can lose there (theta times phi01 at 401 orders: 0.87 s, 0.74 s on
# the dict loop, shared 2-core host), but the package's own products with one
# are rare and gain (in e_form under a wide y-window: 0.57 against 0.87 ms).
PACK_MIN_TERMS = 16

# ``_Rows.__mul__`` shifts each row's trailing zero bits out before the row
# products when both operands' last rows have more bits than this:
# CPython's Karatsuba cutoff, 70 digits of 30 bits.  In a forms round that
# route won 5 of 191 row products at 1 024-1 535 bits, 16 of 58 at
# 1 536-2 047 (even in time) and all 6 past 4 600 bits, in half the time
# (Python 3.11, shared 2-core host); no row product of a lifts round
# reaches 2 048 bits.
STRIP_MIN_BITS = 2100


def _mul_dict(a, b, qprec, nvars):
    """Term dicts a (the smaller) times b, one dict update per pair."""
    out = {}
    bitems = sorted(b.items())
    for ka, ca in a.items():
        nqa = ka[0]
        for kb, cb in bitems:
            nq = nqa + kb[0]
            if qprec is not None and nq >= qprec:
                break
            key = (nq, ka[1] + kb[1]) if nvars == 2 else (nq, ka[1] + kb[1], ka[2] + kb[2])
            new = out.get(key, 0) + ca * cb
            if new == 0:
                out.pop(key, None)
            else:
                out[key] = new
    return out


def _read_slots(packed, slots, width):
    """The first slots width-byte slots of packed, whose coefficients c
    lie below 2**(8 width - 1) in absolute value, as the list of c + half,
    half = 2**(8 width - 1): adding half to every slot leaves each in
    [0, 2**(8 width)) with no borrow.  The slots are widened to whole
    64-bit words by width strided byte copies."""
    words = -(-width // 8)
    wide = 8 * words
    packed += int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    data = (packed & ((1 << (8 * width * slots)) - 1)).to_bytes(width * slots, "little")
    staged = bytearray(wide * slots)
    for j in range(width):
        staged[j::wide] = data[j::width]
    limbs = array("Q", staged)
    if sys.byteorder == "big":
        limbs.byteswap()
    limbs = limbs.tolist()
    values = limbs[::words]
    for j in range(1, words):
        values = [v | h << 64 * j for v, h in zip(values, limbs[j::words])]
    return values


# ---- packed q-rows ---------------------------------------------------------


def _weak_layout(m, unit=4):
    """The ``_Rows`` layout of an index-m weak form: row n from y**-(m + 2n),
    unit y-keys to a unit of l (2 for a half-integral index read in z -> 2z)."""
    return (0, 24, -unit * m, unit, 2)


class _Rows:
    """The first q-rows of a (q, y) series, one integer per row.  In the
    layout (q0, g, y0, h, s), row n is the y-polynomial at q-key q0 + g n
    read from the y-key y0 - h s n upward in steps of h, at Y = 2**(8 width)
    for a slot width of width bytes: slot u holds the term at
    (q0 + g n, y0 + h (u - s n)).  The origins of layouts with one g, h and
    s add under products and agree under sums, so the ring operations on
    rows below the precision are those of the series: a product row is a
    schoolbook sum over the row pairs, and no row past the last is formed.
    A square (the same row list twice) forms each cross product once.
    The weak layout of index m (``_weak_layout``) holds the weak-form
    support 0 <= n, |l| <= m + 2n, which every weak form of index m has
    (4mn - l**2 >= -m**2).

    Rows start on a straight line (y0 - h s n), the terms of a weak form
    on that parabola, so a long row has zero slots below its terms (at 40
    orders phi02's rows average 53 slots, 24 of them spanning its terms).
    Past STRIP_MIN_BITS each row's trailing zero bits are shifted out before
    the row products and the products shifted back, exactly; below it the
    shifts cost more than they save."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows

    @staticmethod
    def width(bound):
        """The slot width in bytes, with a sign bit, for |coefficients| <= bound."""
        return (bound.bit_length() + 8) // 8

    @classmethod
    def norms(cls, terms, layout, orders):
        """The l1 norms of the rows n < orders of terms {(nq, ly): c} in the
        layout, as rows: a sum or product of rows has at most the sum or
        product of their norms, which bounds its coefficients."""
        q0, g = layout[:2]
        rows = [0] * orders
        for (nq, _), c in terms.items():
            if (n := (nq - q0) // g) < orders:
                rows[n] += abs(c)
        return cls(rows)

    @classmethod
    def pack(cls, terms, layout, orders, width):
        """The rows n < orders of terms {(nq, ly): c}, each in the layout."""
        q0, g, y0, h, s = layout
        rows = [0] * orders
        bits = 8 * width
        for (nq, ly), c in terms.items():
            n = (nq - q0) // g
            if n < orders:
                rows[n] += c << (bits * ((ly - y0) // h + s * n))
        return cls(rows)

    @classmethod
    def slots(cls, rows, width):
        """Rows given slot by slot: entry u of a row list is its slot u."""
        bits = 8 * width
        return cls([sum(map(lshift, row, range(0, bits * len(row), bits))) for row in rows])

    def __add__(self, other):
        return _Rows(list(map(add, self.rows, other.rows)))

    def __mul__(self, other):
        a = self.rows
        if isinstance(other, int):
            return _Rows([other * r for r in a])
        b = other.rows
        if a and min(a[-1].bit_length(), b[-1].bit_length()) > STRIP_MIN_BITS:
            # rows r = r' << z, z the trailing zero bits of r: the r' multiply,
            # and each pair product shifts back by the sum of its two z's
            sa, za = _Rows._stripped(a)
            if b is a:
                return _Rows([2 * sum(map(lshift, map(mul, sa, sa[k:k // 2:-1]), map(add, za, za[k:k // 2:-1])))
                              + (0 if k % 2 else sa[k // 2] ** 2 << 2 * za[k // 2]) for k in range(len(a))])
            sb, zb = _Rows._stripped(b)
            return _Rows([sum(map(lshift, map(mul, sa[:k + 1], sb[k::-1]), map(add, za[:k + 1], zb[k::-1])))
                          for k in range(len(a))])
        if b is a:  # a square: each cross product once, doubled, and the middle square
            return _Rows([2 * sum(map(mul, a, a[k:k // 2:-1])) + (0 if k % 2 else a[k // 2] ** 2)
                          for k in range(len(a))])
        return _Rows([sum(map(mul, a[:k + 1], b[k::-1])) for k in range(len(a))])

    __rmul__ = __mul__

    @staticmethod
    def _stripped(rows):
        """The rows with their trailing zero bits shifted out, and the
        shifts (0 for a zero row)."""
        zeros = [((r & -r) or 1).bit_length() - 1 for r in rows]
        return list(map(rshift, rows, zeros)), zeros


def _unpack_rows(rows, layout, width):
    """The terms of packed rows in layout (q0, g, y0, h, s) whose
    coefficients lie below 2**(8 width - 1) in absolute value.  A row's top
    nonzero slot is its bit length // (8 width).  The rows are joined on a
    stack of runs, each run merged into the next one that is no shorter, so
    that a slot is copied O(log rows) times, not once per row; a key is
    built only for a nonzero slot."""
    q0, g, y0, h, s = layout
    bits = 8 * width
    stack, spans, total = [], [], 0
    for n, row in enumerate(rows):
        count = row.bit_length() // bits + 1 if row else 0
        spans.append((q0 + g * n, y0 - h * s * n, total, total + count))
        total += count
        run, size = row, bits * count
        while stack and stack[-1][1] <= size:
            low, low_size = stack.pop()
            run, size = low + (run << low_size), low_size + size
        stack.append((run, size))
    joined = 0
    for low, low_size in reversed(stack):
        joined = low + (joined << low_size)
    half = 1 << (bits - 1)
    values = _read_slots(joined, total, width)
    return {(nq, ly + h * u): v - half for nq, ly, start, stop in spans
            for u, v in enumerate(values[start:stop]) if v != half}


def _mul_rows(a, b, qa, qb, qprec):
    """The product below qprec of (q, y) term dicts a and b, whose lowest
    q-keys are qa and qb, on ``_Rows``.  Each operand takes the layout
    (its lowest q, g, its lowest y, h, 0), with g and h the gcd steps of
    both operands' exponents, read off their distinct q-levels and
    y-exponents, and the product the sum of the two layouts;
    only its rows below qprec are formed.  A coefficient of product row k
    is at most sum_{i+j=k} |a_i|_1 |b_j|_1, the product of the operands'
    row l1 norms, and the slot width holds that."""
    if qprec is not None and qa + qb >= qprec:
        return {}
    (qsa, ysa), (qsb, ysb) = (({nq for nq, _ in t}, {ly for _, ly in t}) for t in (a, b))
    y0a, y0b = min(ysa), min(ysb)
    g = gcd(*(v - qa for v in qsa), *(v - qb for v in qsb)) or 1
    h = gcd(*(v - y0a for v in ysa), *(v - y0b for v in ysb)) or 1
    orders = (max(qsa) - qa + max(qsb) - qb) // g + 1
    if qprec is not None:
        orders = min(orders, (qprec - qa - qb - 1) // g + 1)
    la, lb = (qa, g, y0a, h, 0), (qb, g, y0b, h, 0)
    width = _Rows.width(max((_Rows.norms(a, la, orders) * _Rows.norms(b, lb, orders)).rows))
    rows = _Rows.pack(a, la, orders, width)
    rows *= rows if b is a else _Rows.pack(b, lb, orders, width)
    return _unpack_rows(rows.rows, (qa + qb, g, y0a + y0b, h, 0), width)


# ---- serialization -----------------------------------------------------


def series_to_dict(series):
    """A JSON-ready dict: each term is its key followed by the coefficient
    as a decimal string."""
    return {
        "den": list(series.den),
        "qprec": series.qprec,
        "terms": [list(key) + [str(coeff)] for key, coeff in series.sorted_terms()],
    }


def series_from_dict(data):
    """The inverse of series_to_dict.  A "ring" entry other than "Z" is
    refused: the package has no other coefficient ring."""
    ring = data.get("ring", "Z")
    if ring != "Z":
        raise ValidationError(f"unsupported coefficient ring {ring!r}; series are over Z")
    den = tuple(data["den"])
    terms = {}
    nvars = len(den)
    for entry in data["terms"]:
        if len(entry) != nvars + 1:
            raise ValidationError(f"bad term entry {entry}")
        key = tuple(int(v) for v in entry[:nvars])
        terms[key] = int(entry[nvars])
    return Series(den, terms, data["qprec"])
