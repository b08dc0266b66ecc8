"""Elliptic genera of Calabi-Yau manifolds of complex dimension up to 12,
with the forced linear relations among the chi_p invariants and
divisibility batteries for torsion specializations."""

from fractions import Fraction

from .errors import ValidationError
from .jacobi import _solve_row, basis_sum, phi_threehalf, specialize_torsion
from .series import DEN2, Series


class CYInvariants:
    """The vector (chi_0, ..., chi_d) of a dimension-d Calabi-Yau manifold.

    chi_p is the Euler characteristic of Omega^p; Serre duality forces
    chi_p = (-1)**d * chi_{d-p}.  The Euler number is sum (-1)**p chi_p.
    """

    __slots__ = ("d", "chi")

    def __init__(self, d, chi):
        chi = tuple(int(c) for c in chi)
        if d < 1:
            raise ValidationError("dimension must be positive")
        if len(chi) != d + 1:
            raise ValidationError(f"need {d + 1} values chi_0..chi_{d}")
        sign = 1 if d % 2 == 0 else -1
        for p in range(d + 1):
            if chi[p] != sign * chi[d - p]:
                raise ValidationError(
                    f"Serre duality fails: chi_{p} != {sign:+d} * chi_{d - p}"
                )
        self.d = d
        self.chi = chi

    @classmethod
    def from_euler(cls, d, e):
        """Derive the full vector from the Euler number (d = 3 or 5 only)."""
        if d == 3:
            if e % 2:
                raise ValidationError("e(M3) must be even")
            h = e // 2
            return cls(3, (0, -h, h, 0))
        if d == 5:
            if e % 24:
                raise ValidationError(f"e(M5) = {e} is not divisible by 24")
            u = e // 24
            return cls(5, (0, -u, 11 * u, -11 * u, u, 0))
        raise ValidationError("the Euler number determines the genus only for d=3,5")

    @property
    def euler(self):
        return sum((-1) ** p * c for p, c in enumerate(self.chi))

    def __eq__(self, other):
        return (
            isinstance(other, CYInvariants)
            and self.d == other.d
            and self.chi == other.chi
        )

    def __repr__(self):
        return f"CYInvariants(d={self.d}, chi={self.chi})"

    def q0_row(self):
        """The forced q**0 row sum (-1)**p chi_p y**(d/2 - p), keyed by 4*l."""
        row = {}
        for p, c in enumerate(self.chi):
            val = (-1) ** p * c
            if val:
                row[2 * self.d - 4 * p] = val
        return row


K3 = CYInvariants(2, (2, -20, 2))
ENRIQUES = CYInvariants(2, (1, -10, 1))


SECOND_MOMENT = "second_moment: e*d/12 == sum (-1)^p chi_p (d/2-p)^2"

# The forced relations among the chi_p of a Calabi-Yau d-fold besides the
# second-moment identity, in report order: name -> residual(chi, e), which
# vanishes exactly when the relation holds.
CY_RELATIONS = {
    3: {"chi1 = -e/2": lambda c, e: c[1] + Fraction(e, 2)},
    4: {
        "chi2 = 22*chi0 - 4*chi1": lambda c, e: c[2] - (22 * c[0] - 4 * c[1]),
        "e(M4) mod 6 == 0": lambda c, e: e % 6,
    },
    5: {
        "chi1 = -e/24": lambda c, e: c[1] + Fraction(e, 24),
        "chi2 = 11*e/24": lambda c, e: c[2] - Fraction(11 * e, 24),
        "e(M5) mod 24 == 0": lambda c, e: e % 24,
    },
    6: {
        "chi3 = -34*chi0 + 14*chi1 - 2*chi2":
            lambda c, e: c[3] - (-34 * c[0] + 14 * c[1] - 2 * c[2]),
        "e(M6) mod 4 == 0": lambda c, e: e % 4,
    },
    7: {"e(M7) = 12*(chi2 - 3*chi1)": lambda c, e: e - 12 * (c[2] - 3 * c[1])},
    8: {
        "chi4 = 46*chi0 - 25*chi1 + 10*chi2 - chi3":
            lambda c, e: c[4] - (46 * c[0] - 25 * c[1] + 10 * c[2] - c[3]),
        "e(M8) mod 3 == 0": lambda c, e: e % 3,
    },
    10: {
        "chi5 = -58*chi0 + 36*chi1 - 20*chi2 + 8*chi3 - (2/5)*(chi4 + chi3 - chi2 - chi1)":
            lambda c, e: c[5] - (-58 * c[0] + 36 * c[1] - 20 * c[2] + 8 * c[3])
            + Fraction(2, 5) * (c[4] + c[3] - c[2] - c[1]),
    },
}


def elliptic_genus(inv, qprec=96):
    """The elliptic genus as a weight-0 weak Jacobi form of index d/2.

    The q**0 row (1.2-style) determines the form uniquely for d <= 10; when
    the invariants are not realizable the ValidationError names every
    relation of relation_check that fails.
    """
    d = inv.d
    if d > 11:
        raise ValidationError(
            "indices above 11/2 are not determined by the chi vector alone"
        )
    m = d // 2 if d % 2 == 0 else (d - 3) // 2
    try:
        row = inv.q0_row()
        if d % 2:
            # odd d: peel off the half-integral generator's q**0 row
            # y**(1/2) + y**(-1/2).  By Serre duality the row is symmetric in
            # odd powers of y**(1/2), so it vanishes at y**(1/2) = +-i and
            # divides exactly.
            row = Series(DEN2, {(0, e): c for e, c in row.items()}, None).exact_div(
                Series(DEN2, {(0, -2): 1, (0, 2): 1}, None))
            row = {e: c for (_, e), c in row.terms.items()}
        if d == 3 and set(row) - {0}:
            raise ValidationError("chi vector invalid for dimension 3")
        coords = _solve_row(row, m, qprec) if d != 3 else None
    except ValidationError as exc:
        failed = [
            f"{name} violated (residual {res})"
            for name, (ok, res) in relation_check(inv).items()
            if not ok
        ]
        raise ValidationError(
            f"invariants for d={d} are not realizable: " + "; ".join([str(exc), *failed])
        ) from exc
    if d == 3:
        return phi_threehalf(qprec) * row.get(0, 0)
    form = basis_sum(m, coords, qprec)
    return form if d % 2 == 0 else phi_threehalf(qprec) * form


def chi_y_polynomial(form, d):
    """Recover the chi vector from the q**0 row of an elliptic genus."""
    if form.index2 != d:
        raise ValidationError(
            f"form has index {form.index2}/2, expected {d}/2 for dimension {d}"
        )
    row = form.q_row(0)
    chi = []
    for p in range(d + 1):
        chi.append((-1) ** p * row.get(2 * d - 4 * p, 0))
    used = {2 * d - 4 * p for p in range(d + 1)}
    if any(k not in used and v for k, v in row.items()):
        raise ValidationError("q**0 row is wider than a dimension-d genus allows")
    return CYInvariants(d, chi)


def relation_check(inv):
    """Evaluate the forced relations for the given invariants.

    Returns a dict mapping relation names to (ok, residual) pairs: the
    (1.14)-style second-moment identity, which holds for every realizable
    genus, then the dimension-specific relations of CY_RELATIONS.
    """
    d, chi, e = inv.d, inv.chi, inv.euler
    moment = sum(
        (-1) ** p * chi[p] * (Fraction(d, 2) - p) ** 2 for p in range(d + 1)
    )
    residual = moment - Fraction(e * d, 12)
    report = {SECOND_MOMENT: (residual == 0, residual)}
    for name, relation in CY_RELATIONS.get(d, {}).items():
        residual = relation(chi, e)
        report[name] = (residual == 0, residual)
    return report


# Frozen congruence exponents for torsion specializations of weight-0
# integral-index weak Jacobi forms over Z.  Keys: (torsion order, index
# residue); values: (p-adic valuation of the constant term, valuation of
# every positive q coefficient).
TORSION_CONGRUENCES = {
    (2, 0): (2, 0, 13),
    (2, 1): (2, 3, 8),
    (2, 2): (2, 1, 12),
    (2, 3): (2, 4, 9),
    (3, 0): (3, 0, 6),
    (3, 1): (3, 2, 4),
    (3, 2): (3, 1, 3),
    (4, 0): (2, 0, 8),
    (4, 1): (2, 1, 3),
    (4, 2): (2, 2, 5),
    (4, 3): (2, 1, 3),
}


def divisibility_report(form, d=None):
    """Check the torsion-specialization congruences on a weight-0 form.

    Returns a dict of named checks mapping to (ok, detail).  When d is
    given the form is treated as the elliptic genus of a dimension-d
    manifold and the d*e = 0 mod 24 divisibility is included.
    """
    if form.weight2 != 0 or form.index2 % 2:
        raise ValidationError("divisibility_report needs weight 0, integral index")
    m = form.index2 // 2
    report = {}
    for order in (2, 3, 4):
        residue = m % (3 if order == 3 else 4)
        p, cv, tv = TORSION_CONGRUENCES[(order, residue)]
        spec = specialize_torsion(form, order)
        const = spec.coeff((0, 0))
        ok_c = const % (p ** cv) == 0
        ok_t = all(
            c % (p ** tv) == 0 for k, c in spec.terms.items() if k[0] > 0
        )
        report[f"z=1/{order}: constant divisible by {p}**{cv}"] = (ok_c, const)
        report[f"z=1/{order}: q-tail divisible by {p}**{tv}"] = (
            ok_t,
            sorted(spec.terms.items())[:4],
        )
    if d is not None:
        e = sum(form.q_row(0).values())
        report["d*e mod 24 == 0"] = ((d * e) % 24 == 0, d * e)
    return report
