"""One-variable building blocks: eta powers, theta constants, characters."""

import pytest
from hypothesis import given, settings, strategies as st

from jacobilift.errors import ValidationError
from jacobilift.jacobi import theta_jacobi
from jacobilift.modular import (
    discriminant_form,
    e2_series,
    eta_power,
    eta_quotient,
    euler_product,
    kronecker,
    sigma1,
    theta_constant,
)
from jacobilift.series import DEN2, Series
from jacobilift.verify import GAMMA

# Ramanujan tau values for q, q^2, ..., q^6 in Delta = eta^24
TAU = [1, -24, 252, -1472, 4830, -6048]


def test_discriminant_coefficients():
    delta = discriminant_form(24 * 7)
    got = [delta.coeff((24 * n, 0)) for n in range(1, 7)]
    assert got == TAU


def test_eta_power_additivity():
    a = eta_power(7, 240)
    b = eta_power(17, 240)
    assert (a * b).same_terms(eta_power(24, 240), 200)


def test_eta_negative_power_inverse():
    prod = eta_power(5, 240) * eta_power(-5, 240)
    assert prod.coeff((0, 0)) == 1
    assert all(c == 0 for k, c in prod.terms.items() if k != (0, 0))


@pytest.mark.parametrize("build", [
    lambda: eta_power(-12, None), lambda: eta_power(3, None, scale=2),
    lambda: euler_product(None), lambda: eta_quotient(((2, 24), (1, -24)), None),
])
def test_eta_series_need_a_qprec(build):
    """eta powers are infinite series: qprec=None is an input error naming
    the missing qprec, not a TypeError from comparing with None."""
    with pytest.raises(ValidationError, match="infinite series; give a qprec"):
        build()


@pytest.mark.parametrize("build", [
    lambda: theta_constant(0, 0, None), lambda: theta_constant(1, 0, None, scale=2),
    lambda: e2_series(None), lambda: theta_jacobi(None), lambda: theta_jacobi(None, y_scale=2),
])
def test_theta_and_e2_series_need_a_qprec(build):
    """Theta constants, E2 and theta(tau, z) are infinite series too:
    qprec=None names the missing qprec instead of raising a TypeError."""
    with pytest.raises(ValidationError, match="infinite series; give a qprec"):
        build()


def test_theta_constant_squares():
    # Jacobi: theta_00^4 = theta_01^4 + theta_10^4
    qp = 24 * 8
    t00 = theta_constant(0, 0, qp) ** 4
    t01 = theta_constant(0, 1, qp) ** 4
    t10 = theta_constant(1, 0, qp) ** 4
    assert t00.same_terms(t01 + t10, 24 * 6)


def test_kronecker_values():
    assert [kronecker(-4, n) for n in (1, 2, 3, 5, 7)] == [1, 0, -1, 1, -1]
    assert [kronecker(12, n) for n in (1, 5, 7, 11, 13)] == [1, -1, -1, 1, 1]
    assert kronecker(-4, -1) == -1 and kronecker(12, -1) == 1


def test_sigma1():
    assert [sigma1(n) for n in range(1, 7)] == [1, 3, 4, 7, 6, 12]


def binomial_product(qprec, scale):
    """prod (1 - q**(scale*n)) one binomial factor at a time."""
    acc = Series.const(1, DEN2, qprec)
    n = 1
    while 24 * scale * n < qprec:
        acc = acc * Series(DEN2, {(0, 0): 1, (24 * scale * n, 0): -1}, qprec)
        n += 1
    return acc


@given(st.integers(-24, 24 * 30), st.sampled_from([1, 2, 3, 4, 6]))
@settings(max_examples=60, deadline=None)
def test_pentagonal_euler_product_equals_binomial_product(qprec, scale):
    assert euler_product(qprec, scale) == binomial_product(qprec, scale)


@given(st.integers(-30, 30), st.sampled_from([1, 2, 3]), st.integers(-80, 24 * 6))
@settings(max_examples=200, deadline=None)
def test_eta_power_is_a_truncation_at_every_window(power, scale, qprec):
    """A window that ends at or below the leading exponent is the empty
    series, not an inverted empty Euler product."""
    got = eta_power(power, qprec, scale)
    assert got.qprec == qprec
    assert got.terms == eta_power(power, 24 * 8, scale).truncate(qprec).terms


# the eta quotients of the special-value identities, against exact division
QUOTIENTS = [
    (((2, 24), (1, -24)), ((2, 24),), ((1, 24),)),
    (((3, 12), (1, -12)), ((3, 12),), ((1, 12),)),
    (((4, 12), (2, -12)), ((4, 12),), ((2, 12),)),
    (((1, 12), (6, 12), (2, -12), (3, -12)), ((1, 12), (6, 12)), ((2, 12), (3, 12))),
]


@pytest.mark.parametrize("spec, num, den", QUOTIENTS)
def test_eta_quotient_equals_exact_division(spec, num, den):
    qprec = 24 * 12

    def product(factors):
        acc = Series.const(1, DEN2, qprec)
        for scale, power in factors:
            acc = acc * eta_power(power, qprec, scale=scale)
        return acc

    want = product(num).exact_div(product(den))
    got = eta_quotient(spec, qprec)
    assert got.qprec == want.qprec and got.terms == want.terms


@pytest.mark.parametrize("qprec", [72, 240, 288, 720])
def test_gamma_eta_quotient_equals_the_theta_division(qprec):
    """gamma = theta_00(2 tau)/theta_01(2 tau) = eta(2t)**6/(eta(t)**4 eta(4t)**2):
    asked for half an order more, the quotient ends where the division does."""
    want = theta_constant(0, 0, qprec, scale=2).exact_div(theta_constant(0, 1, qprec, scale=2))
    assert eta_quotient(GAMMA, qprec + 12).truncate(qprec) == want
