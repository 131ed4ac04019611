"""Primitive integer polynomials and reduced rational functions.

Everything here is exact.  A polynomial is a tuple of `int` coefficients in
ascending degree, primitive (the gcd of its coefficients is 1) and with a
positive leading coefficient.  By Gauss's lemma every nonzero rational
function is, up to sign, a positive rational content times a ratio of two
such polynomials, unique once they are coprime:

    r = c * num(x) / den(x)

The sign is a unit and is quotiented away by this form.  The gcd of num and
den is the primitive remainder sequence (Knuth, TAOCP vol. 2, 4.6.1): a
pseudo-remainder, then its content divided out.  So every coefficient
operation is an `int` operation, and only c is a `Fraction`.  Rows of
rational coefficients are converted on the way in (`RationalFunction.make`)
and rendered on the way out (`RationalFunction.label`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

# coefficients in ascending degree
Poly = tuple[int, ...]


def primitive(row) -> tuple[Fraction, Poly]:
    """A nonzero row of rational coefficients, ascending, as its positive
    content and its primitive part: row = +-content * part."""
    row = [Fraction(a) for a in row]
    while row and row[-1] == 0:
        row.pop()
    if not row:
        raise ZeroDivisionError("the zero polynomial is not a class representative")
    den = lcm(*(a.denominator for a in row))
    ints = [int(a * den) for a in row]
    part = _primitive_part(ints)
    return Fraction(abs(ints[-1]), den * part[-1]), part


def _primitive_part(r: list[int]) -> Poly:
    """r divided by its content, with a positive leading coefficient; () for zero."""
    if not r:
        return ()
    g = gcd(*r)
    return tuple(a // g for a in r) if r[-1] > 0 else tuple(-a // g for a in r)


def _mul(a: Poly, b: Poly) -> Poly:
    if len(a) == 1:  # the primitive constant 1
        return b
    if len(b) == 1:
        return a
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _pseudo_remainder(a: Poly, b: Poly) -> list[int]:
    """A nonzero integer multiple of the remainder of a by b (b of positive
    leading coefficient): each step scales by lc(b) / gcd, not lc(b)."""
    r, n, lead = list(a), len(b), b[-1]
    while len(r) >= n:
        g = gcd(r[-1], lead)
        s, t, k = lead // g, r[-1] // g, len(r) - n
        r = [s * x for x in r]
        for j, y in enumerate(b):
            r[k + j] -= t * y
        while r and r[-1] == 0:
            r.pop()
    return r


def _gcd(a: Poly, b: Poly) -> Poly:
    """The gcd of two polynomials, by the primitive remainder sequence."""
    while b:
        a, b = b, _primitive_part(_pseudo_remainder(a, b))
    return a


def exact_div(p: Poly, d: Poly) -> Poly | None:
    """p / d when d divides p in Z[x], else None.  For primitive d this is
    division in Q[x] (Gauss's lemma)."""
    r, n, lead = list(p), len(d) - 1, d[-1]
    q = [0] * (len(p) - n)
    for i in range(len(q) - 1, -1, -1):
        c, m = divmod(r[i + n], lead)
        if m:
            return None
        q[i] = c
        if c:
            for j, y in enumerate(d):
                r[i + j] -= c * y
    return tuple(q) if not any(r[:n]) else None


def _low(p: Poly) -> int:
    """Index of the lowest nonzero coefficient, the order at x = 0."""
    return next(i for i, a in enumerate(p) if a)


def poly_str(row) -> str:
    """Deterministic compact rendering of rational coefficients, terms in
    ascending degree."""
    parts = []
    for i, c in enumerate(row):
        if c == 0:
            continue
        if i == 0:
            term = str(c)
        else:
            x = "x" if i == 1 else f"x^{i}"
            if c == 1:
                term = x
            elif c == -1:
                term = f"-{x}"
            elif c.denominator == 1:
                term = f"{c}{x}"
            else:
                term = f"({c}){x}"
        parts.append(term)
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        out += term if term.startswith("-") else "+" + term
    return out


def _root_factors(p: Poly) -> tuple[list[tuple[int, int]], Poly]:
    """The linear factors b*x - a, as (-a, b), of the rational roots a/b of
    p, ascending with multiplicity, and the cofactor of their product.  A
    root a/b in lowest terms has a dividing the lowest nonzero coefficient
    and b the leading one (the rational root test)."""
    low = _low(p)
    factors, p = [(0, 1)] * low, p[low:]
    if len(p) == 1:
        return factors, p

    def divisors(n):
        small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        return small + [n // d for d in small if d * d != n]

    tops, bottoms = divisors(abs(p[0])), divisors(abs(p[-1]))
    candidates = {Fraction(s * a, b) for a in tops for b in bottoms for s in (1, -1)}
    for r in sorted(candidates):
        lin = (-r.numerator, r.denominator)
        while len(p) > 1 and (q := exact_div(p, lin)) is not None:
            factors.append(lin)
            p = q
    return factors, p


def rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots of a nonzero integer polynomial, with multiplicity."""
    return [Fraction(-a, b) for a, b in _root_factors(p)[0]]


def factor_monic(p: Poly) -> list[Poly] | None:
    """The irreducible factors of a primitive p over Q, each primitive with a
    positive leading coefficient (monic up to a positive integer), whose
    product is p; None when a factor of degree >= 4 without a rational root
    is left, which the root-based test cannot decide."""
    factors, rest = _root_factors(p)
    if len(rest) == 1:
        return factors
    if len(rest) in (3, 4):
        # no rational roots left, hence irreducible at degrees 2 and 3
        return [*factors, rest]
    return None


@dataclass(frozen=True)
class RationalFunction:
    """Canonical class representative c * num/den with num, den primitive,
    coprime and of positive leading coefficient, and c > 0.  The sign is a
    unit of the ambient domain and is dropped."""

    c: Fraction
    num: Poly
    den: Poly

    @staticmethod
    def make(num, den=(1,)) -> "RationalFunction":
        """The class of num/den, both rows of rational coefficients in
        ascending degree."""
        (cn, pn), (cd, pd) = primitive(num), primitive(den)
        return RationalFunction._reduced(cn / cd, pn, pd)

    @staticmethod
    def _reduced(c: Fraction, num: Poly, den: Poly) -> "RationalFunction":
        g = _gcd(num, den)
        if len(g) > 1:
            num, den = exact_div(num, g), exact_div(den, g)
        return RationalFunction(c, num, den)

    def mul(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction._reduced(
            self.c * other.c, _mul(self.num, other.num), _mul(self.den, other.den)
        )

    def div(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction._reduced(
            self.c / other.c, _mul(self.num, other.den), _mul(self.den, other.num)
        )

    @property
    def is_polynomial(self) -> bool:
        return len(self.den) == 1

    @property
    def order(self) -> int:
        """Order at x = 0 (can be negative for genuine fractions)."""
        return _low(self.num) - _low(self.den)

    @property
    def is_unit_class(self) -> bool:
        return self.c == 1 and len(self.num) == len(self.den) == 1

    def in_domain(self) -> bool:
        """Membership in the ring of polynomials with integer constant term."""
        # c * num(0) is an integer iff the denominator of c divides num(0)
        return self.is_polynomial and self.num[0] % self.c.denominator == 0

    def label(self) -> str:
        """c * num / den printed with the denominator monic, and as a
        polynomial when den = 1."""
        lead = self.den[-1]
        top = poly_str([self.c * a / lead for a in self.num])
        if self.is_polynomial:
            return top
        return f"({top})/({poly_str([Fraction(b, lead) for b in self.den])})"
