"""Integer polynomials in the four weak Jacobi form generators.

GeneratorPolynomial records how a form was assembled from the index 1..4
weight-zero generators, written Phi1..Phi4.  Terms map exponent tuples
(e1, e2, e3, e4) to integer coefficients; the index of each monomial is
e1 + 2*e2 + 3*e3 + 4*e4.
"""

import re
from math import comb

from .errors import ValidationError

_TOKEN = re.compile(r"\s*(\d+|Phi[1-4]|[-+*^()])")


class GeneratorPolynomial:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for key, coeff in (terms or {}).items():
            key = tuple(key)
            if len(key) != 4 or any(e < 0 for e in key):
                raise ValidationError(f"bad generator exponent tuple {key}")
            if coeff:
                clean[key] = clean.get(key, 0) + coeff
        self.terms = {k: c for k, c in clean.items() if c}

    @classmethod
    def _trusted(cls, terms):
        """A polynomial from ring operations on valid polynomials (sums,
        differences, products, integer scaling): its keys need no re-check,
        only its zero coefficients are dropped."""
        poly = object.__new__(cls)
        poly.terms = {k: c for k, c in terms.items() if c}
        return poly

    @classmethod
    def generator(cls, i):
        if i not in (1, 2, 3, 4):
            raise ValidationError("generator number must be 1..4")
        key = tuple(1 if j == i - 1 else 0 for j in range(4))
        return cls({key: 1})

    @classmethod
    def const(cls, value):
        return cls({(0, 0, 0, 0): value})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, GeneratorPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return GeneratorPolynomial._trusted(terms)

    def __neg__(self):
        return GeneratorPolynomial._trusted({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return GeneratorPolynomial._trusted({k: c * other for k, c in self.terms.items()})
        out = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2], ka[3] + kb[3])
                out[key] = out.get(key, 0) + ca * cb
        return GeneratorPolynomial._trusted(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValidationError("generator polynomials only take powers >= 0")
        result = GeneratorPolynomial.const(1)
        for _ in range(e):
            result = result * self
        return result

    def divide(self, d):
        """self / d with integer coefficients, or None.  The generators
        satisfy 4*Phi4 = Phi1*Phi3 - Phi2^2, so when a coefficient of self
        is not divisible by d, self is reduced modulo that relation (each
        Phi1*Phi3 becomes Phi2^2 + 4*Phi4) and divided again."""
        poly = self
        if any(c % d for c in poly.terms.values()):
            poly = self._reduced()
            if any(c % d for c in poly.terms.values()):
                return None
        return GeneratorPolynomial._trusted({k: c // d for k, c in poly.terms.items()})

    def _reduced(self):
        """The same form with no monomial divisible by Phi1*Phi3:
        Phi1^k Phi3^k = sum_j C(k, j) 4^j Phi2^(2k - 2j) Phi4^j."""
        out = {}
        for (e1, e2, e3, e4), c in self.terms.items():
            k = min(e1, e3)
            for j in range(k + 1):
                key = (e1 - k, e2 + 2 * (k - j), e3 - k, e4 + j)
                out[key] = out.get(key, 0) + c * comb(k, j) * 4 ** j
        return GeneratorPolynomial._trusted(out)

    def indices(self):
        """Set of Jacobi indices of the monomials present."""
        return {k[0] + 2 * k[1] + 3 * k[2] + 4 * k[3] for k in self.terms}

    def index(self):
        """The common index, when the polynomial is index-homogeneous."""
        if not self.terms:
            raise ValidationError("the zero polynomial has no index")
        idx = self.indices()
        if len(idx) != 1:
            raise ValidationError(f"polynomial is not index-homogeneous: {idx}")
        return idx.pop()

    def evaluate(self, values):
        """Evaluate against a 4-tuple of ring elements supporting + and *,
        None for a generator the polynomial does not use, by nested Horner:
        the terms are grouped by their exponent of Phi1, each group is
        evaluated in Phi2..Phi4 the same way, and the groups are folded
        from the top exponent down, one product by Phi1 per step.  At index
        12 with every monomial present that is 61 products.  The empty
        polynomial gives None and a constant its int.

        JacobiForms go to jacobi.evaluate_packed, which runs the same
        Horner on packed q-rows when it applies (weak forms of integral
        index at few enough q-orders) and gives the same form.
        jacobi.polynomial_form takes this route at the generators."""
        if not self.terms:
            return None
        from .jacobi import JacobiForm, evaluate_packed  # jacobi imports this module

        if all(v is None or isinstance(v, JacobiForm) for v in values):
            form = evaluate_packed(self, values)
            if form is not None:
                return form
        return _horner(self.terms, values)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key, coeff in sorted(self.terms.items(), reverse=True):
            factors = []
            for i, e in enumerate(key):
                if e == 1:
                    factors.append(f"Phi{i + 1}")
                elif e > 1:
                    factors.append(f"Phi{i + 1}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(f"{coeff:+d}")
            elif coeff == 1:
                parts.append(f"+{body}")
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff:+d}*{body}")
        text = "".join(parts)
        return text[1:] if text.startswith("+") else text

    __repr__ = __str__


def _horner(terms, values):
    """Nested Horner evaluation of a nonempty {exponent tuple: coefficient}
    dict, one exponent per value, in values[0] outermost."""
    if not values:
        return terms[()]
    groups = {}
    for key, coeff in terms.items():
        groups.setdefault(key[0], {})[key[1:]] = coeff
    top = max(groups)
    result = _horner(groups[top], values[1:])
    for e in range(top - 1, -1, -1):
        result = result * values[0]
        if e in groups:
            result = result + _horner(groups[e], values[1:])
    return result


def parse_generator_polynomial(text):
    """Parse expressions like 'Phi1*Phi3-Phi2^2' or '2*Phi1^2-24*Phi2'."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValidationError(f"cannot tokenize {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)
    state = {"i": 0}

    def peek():
        return tokens[state["i"]]

    def advance():
        tok = tokens[state["i"]]
        state["i"] += 1
        return tok

    def parse_expr():
        sign = 1
        while peek() in ("+", "-"):
            if advance() == "-":
                sign = -sign
        result = parse_term() * sign
        while peek() in ("+", "-"):
            op = advance()
            term = parse_term()
            result = result + (term if op == "+" else -term)
        return result

    def parse_term():
        result = parse_power()
        while peek() == "*":
            advance()
            result = result * parse_power()
        return result

    def parse_power():
        base = parse_atom()
        if peek() == "^":
            advance()
            tok = advance()
            if tok is None or not tok.isdigit():
                raise ValidationError("exponent must be a nonnegative integer")
            base = base ** int(tok)
        return base

    def parse_atom():
        tok = advance()
        if tok is None:
            raise ValidationError("unexpected end of expression")
        if tok == "(":
            inner = parse_expr()
            if advance() != ")":
                raise ValidationError("unbalanced parentheses")
            return inner
        if tok == "-":
            return -parse_atom()
        if tok.isdigit():
            return GeneratorPolynomial.const(int(tok))
        if tok.startswith("Phi"):
            return GeneratorPolynomial.generator(int(tok[3]))
        raise ValidationError(f"unexpected token {tok!r}")

    try:
        result = parse_expr()
    except RecursionError:
        raise ValidationError("expression nests too deeply") from None
    if peek() is not None:
        raise ValidationError(f"trailing input at token {peek()!r}")
    return result
