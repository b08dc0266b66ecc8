"""One-variable building blocks: Kronecker symbols, eta powers, theta
constants and the quasimodular Eisenstein series of weight two."""

from math import isqrt

from .errors import ValidationError
from .series import DEN2, Series


def kronecker(a, n):
    """The Kronecker symbol (a/n), defined for all integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if a % 8 in (3, 5):
                result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def euler_product(qprec, scale=1):
    """prod_{n>=1} (1 - q**(scale*n)) as a y-free series, to qprec (1/24
    units), by Euler's pentagonal number theorem: the sum over all integers
    k of (-1)**k q**(scale*k*(3k-1)/2)."""
    if qprec is None:
        raise ValidationError("eta powers and Euler products are infinite series; give a qprec")
    terms = {}
    k = 0
    while 12 * scale * k * (3 * k - 1) < qprec:
        for e in {k * (3 * k - 1) // 2, k * (3 * k + 1) // 2}:
            if 24 * scale * e < qprec:
                terms[(24 * scale * e, 0)] = -1 if k % 2 else 1
        k += 1
    return Series(DEN2, terms, qprec, _clean=True)


def eta_power(power, qprec, scale=1):
    """eta(scale * tau) ** power as an exact q-series to qprec (1/24 units).

    eta(tau) = q**(1/24) * prod (1 - q**n), raised by ``Series.__pow__``.
    """
    if scale <= 0:
        raise ValidationError("eta scale must be a positive integer")
    shift = power * scale
    if qprec is not None and qprec <= shift:
        # the window ends at or below the leading exponent q**(power*scale/24)
        return Series.zero(DEN2, qprec)
    base = euler_product(qprec - shift if qprec is not None else None, scale=scale)
    return (base ** power).shift((shift, 0)).truncate(qprec)


def eta_quotient(spec, qprec):
    """prod eta(scale*tau)**power for spec = iterable of (scale, power)."""
    acc = Series.const(1, DEN2, qprec)
    for scale, power in spec:
        acc = acc * eta_power(power, qprec, scale=scale)
    return acc


def discriminant_form(qprec):
    """Delta(tau) = eta(tau)**24."""
    return eta_power(24, qprec)


def theta_constant(a, b, qprec, scale=1):
    """theta_{a,b}(scale*tau) = sum_n (-1)**(b*n) q**(scale*(2n+a)**2/8).

    Characteristics a, b in {0, 1}; (1, 1) gives the identically zero
    constant and is rejected.
    """
    if (a, b) == (1, 1):
        raise ValidationError("theta constant with characteristic (1,1) vanishes")
    if a not in (0, 1) or b not in (0, 1):
        raise ValidationError("theta characteristics must be 0 or 1")
    if qprec is None:
        raise ValidationError("theta constants are infinite series; give a qprec")
    terms = {}
    bound = isqrt(max(qprec, 0) // (3 * scale)) + 2
    for n in range(-bound, bound + 1):
        nq = 3 * scale * (2 * n + a) ** 2
        if nq >= qprec:
            continue
        sign = -1 if (b * n) % 2 else 1
        terms[(nq, 0)] = terms.get((nq, 0), 0) + sign
    return Series(DEN2, terms, qprec)


def sigma1(n):
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d
            other = n // d
            if other != d:
                total += other
    return total


def e2_series(qprec):
    """E2(tau) = 1 - 24 sum sigma_1(n) q**n = -24 G2(tau), to qprec (1/24
    units): the weight-two Eisenstein series, normalised to be integral."""
    if qprec is None:
        raise ValidationError("E2 is an infinite series; give a qprec")
    terms = {(24 * n, 0): -24 * sigma1(n) for n in range(1, (qprec + 23) // 24)}
    return Series(DEN2, {(0, 0): 1, **terms}, qprec)
