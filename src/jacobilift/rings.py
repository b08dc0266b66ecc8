"""Coefficient rings for exact series arithmetic.

Three rings are supported: the integers ("Z", plain int), the rationals
("Q", fractions.Fraction) and the Gaussian integers ("Zi", GaussianInt).
Cyclotomic reduction helpers for torsion specializations live here too.
"""

from fractions import Fraction

from .errors import InexactDivisionError, RingMismatchError, RingPromotionError

RING_Z = "Z"
RING_Q = "Q"
RING_ZI = "Zi"


class GaussianInt:
    """A Gaussian integer a + b*i with exact arithmetic."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = a
        self.b = b

    def __add__(self, other):
        a, b = _gauss_parts(other)
        return GaussianInt(self.a + a, self.b + b)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = _gauss_parts(other)
        return GaussianInt(self.a - a, self.b - b)

    def __rsub__(self, other):
        a, b = _gauss_parts(other)
        return GaussianInt(a - self.a, b - self.b)

    def __mul__(self, other):
        a, b = _gauss_parts(other)
        return GaussianInt(self.a * a - self.b * b, self.a * b + self.b * a)

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianInt(-self.a, -self.b)

    def __eq__(self, other):
        a, b = _gauss_parts(other)
        return self.a == a and self.b == b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def norm(self):
        return self.a * self.a + self.b * self.b

    def conj(self):
        return GaussianInt(self.a, -self.b)

    def __repr__(self):
        return f"GaussianInt({self.a}, {self.b})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}i"
        sign = "+" if self.b >= 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}i"


def _gauss_parts(x):
    if isinstance(x, GaussianInt):
        return x.a, x.b
    if isinstance(x, int):
        return x, 0
    raise TypeError(f"cannot mix GaussianInt with {type(x).__name__}")


GAUSS_I = GaussianInt(0, 1)


def check_ring(ra, rb):
    if ra != rb:
        raise RingMismatchError(f"ring mismatch: {ra} vs {rb}")


def ring_coerce(c, ring):
    """Coerce a scalar into the given ring, raising on lossy coercions."""
    if ring == RING_Z:
        if isinstance(c, int):
            return c
        if isinstance(c, Fraction):
            if c.denominator == 1:
                return int(c)
            raise RingPromotionError(f"{c} is not an integer")
        if isinstance(c, GaussianInt):
            if c.b == 0:
                return c.a
            raise RingPromotionError(f"{c} is not a rational integer")
    elif ring == RING_Q:
        if isinstance(c, int):
            return Fraction(c)
        if isinstance(c, Fraction):
            return c
    elif ring == RING_ZI:
        if isinstance(c, int):
            return GaussianInt(c)
        if isinstance(c, GaussianInt):
            return c
    raise RingPromotionError(f"cannot place {c!r} in ring {ring}")


def ring_divide(c, d, ring):
    """Exact division c / d in the ring; raises InexactDivisionError."""
    if ring == RING_Z:
        q, r = divmod(c, d)
        if r:
            raise InexactDivisionError(f"{c} not divisible by {d} over Z")
        return q
    if ring == RING_Q:
        if d == 0:
            raise ZeroDivisionError("division by zero")
        return Fraction(c) / d
    if ring == RING_ZI:
        d = ring_coerce(d, RING_ZI)
        c = ring_coerce(c, RING_ZI)
        n = d.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero")
        num = c * d.conj()
        qa, ra = divmod(num.a, n)
        qb, rb = divmod(num.b, n)
        if ra or rb:
            raise InexactDivisionError(f"{c} not divisible by {d} over Z[i]")
        return GaussianInt(qa, qb)
    raise RingMismatchError(f"unknown ring {ring}")


# Cyclotomic polynomials Phi_N for small N, as monic coefficient lists
# (constant term first).  Used to reduce sums of roots of unity exactly.
CYCLOTOMIC = {
    1: [-1, 1],
    2: [1, 1],
    3: [1, 1, 1],
    4: [1, 0, 1],
    5: [1, 1, 1, 1, 1],
    6: [1, -1, 1],
}


def reduce_root_of_unity_sum(weights, order):
    """Reduce sum(weights[r] * zeta**r for r) modulo Phi_order(zeta).

    weights maps residues mod order to integer weights.  Returns the
    coefficient vector of the reduced polynomial (length deg Phi_order).
    """
    if order not in CYCLOTOMIC:
        raise RingPromotionError(f"unsupported root-of-unity order {order}")
    phi = CYCLOTOMIC[order]
    deg = len(phi) - 1
    vec = [0] * order
    for r, w in weights.items():
        vec[r % order] += w
    # Fold powers zeta**k for k >= deg using zeta**deg = -sum(phi[i] zeta**i).
    for k in range(order - 1, deg - 1, -1):
        c = vec[k]
        if c == 0:
            continue
        vec[k] = 0
        for i in range(deg):
            vec[k - deg + i] -= c * phi[i]
    return vec[:deg]


def root_of_unity_sum_as_int(weights, order):
    """Like reduce_root_of_unity_sum but demands an integer result."""
    vec = reduce_root_of_unity_sum(weights, order)
    if any(vec[1:]):
        raise RingPromotionError(
            f"root-of-unity sum is not rational: coefficients {vec} at order {order}"
        )
    return vec[0]
