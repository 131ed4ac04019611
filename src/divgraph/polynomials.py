"""Dense polynomials over Q and reduced rational functions.

Everything here is exact: coefficients are `fractions.Fraction`, division is
only performed when it is exact or as polynomial long division with explicit
remainder.  Rational functions are kept in a canonical form

    r = c * n(x) / d(x)

with n, d monic and coprime and c a positive rational; the sign is a unit
and is quotiented away by the canonicalisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm


def _norm(coeffs) -> tuple[Fraction, ...]:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class QPoly:
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(*coeffs) -> "QPoly":
        return QPoly(_norm(coeffs))

    @staticmethod
    def const(c) -> "QPoly":
        return QPoly(_norm([c]))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is taken as -1
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1]

    @property
    def constant(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    @property
    def order(self) -> int:
        """Index of the lowest nonzero coefficient; -1 for the zero polynomial."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return -1

    def __add__(self, other: "QPoly") -> "QPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return QPoly(_norm(x + y for x, y in zip(a, b)))

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + other.scale(Fraction(-1))

    def __mul__(self, other: "QPoly") -> "QPoly":
        if self.is_zero or other.is_zero:
            return QPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(_norm(out))

    def scale(self, c) -> "QPoly":
        c = Fraction(c)
        return QPoly(_norm(a * c for a in self.coeffs))

    def monic(self) -> "QPoly":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading)

    def divmod(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.leading
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            q = rem[i] / lead
            quo[i - d] = q
            for j, b in enumerate(other.coeffs):
                rem[i - d + j] -= q * b
        return QPoly(_norm(quo)), QPoly(_norm(rem))

    def exact_div(self, other: "QPoly") -> "QPoly | None":
        q, r = self.divmod(other)
        return q if r.is_zero else None

    def gcd(self, other: "QPoly") -> "QPoly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a.divmod(b)[1]
        return a.monic() if not a.is_zero else a

    def eval(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        return poly_str(self)


ONE = QPoly.of(1)


def poly_str(p: QPoly) -> str:
    """Deterministic compact rendering, terms in ascending degree."""
    if p.is_zero:
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
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
    out = parts[0]
    for term in parts[1:]:
        out += term if term.startswith("-") else "+" + term
    return out


def rational_roots(p: QPoly) -> list[Fraction]:
    """All rational roots of p, with multiplicity, via the rational root test."""
    if p.is_zero or p.degree == 0:
        return []
    # clear denominators and content so we can enumerate integer divisors
    den = reduce(lcm, (c.denominator for c in p.coeffs), 1)
    ints = [int(c * den) for c in p.coeffs]
    content = reduce(gcd, (abs(a) for a in ints if a), 0)
    ints = [a // content for a in ints]
    ord_ = next(i for i, a in enumerate(ints) if a)
    roots = [Fraction(0)] * ord_
    ints = ints[ord_:]
    if len(ints) == 1:
        return roots
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(n):
        small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        return small + [n // d for d in small if d * d != n]

    candidates = set()
    for num in divisors(a0):
        for den_ in divisors(an):
            candidates.add(Fraction(num, den_))
            candidates.add(Fraction(-num, den_))
    q = QPoly(_norm(ints))
    for cand in sorted(candidates):
        while q.degree >= 1 and q.eval(cand) == 0:
            roots.append(cand)
            q = q.exact_div(QPoly.of(-cand, 1))
    return roots


def factor_monic(p: QPoly) -> list[QPoly] | None:
    """Monic irreducible factors of a monic p over Q, or None when a factor of
    degree >= 4 without a rational root is left, which the root-based test
    cannot decide."""
    assert not p.is_zero
    p = p.monic()
    factors: list[QPoly] = []
    for r in rational_roots(p):
        lin = QPoly.of(-r, 1)
        factors.append(lin)
        p = p.exact_div(lin)
    if p.degree == 0:
        return factors
    if p.degree in (2, 3):
        # no rational roots left, hence irreducible at these degrees
        factors.append(p)
        return factors
    return None


@dataclass(frozen=True)
class RationalFunction:
    """Canonical class representative c * num/den with num, den monic coprime,
    c > 0.  The sign is a unit of the ambient domain and is dropped."""

    c: Fraction
    num: QPoly
    den: QPoly

    @staticmethod
    def make(num: QPoly, den: QPoly = ONE) -> "RationalFunction":
        if num.is_zero:
            raise ZeroDivisionError("zero is not a class representative")
        if den.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        g = num.gcd(den)
        if g.degree >= 1:
            num = num.exact_div(g)
            den = den.exact_div(g)
        c = num.leading / den.leading
        return RationalFunction(abs(c), num.monic(), den.monic())

    @staticmethod
    def from_poly(p: QPoly) -> "RationalFunction":
        return RationalFunction.make(p)

    def mul(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction.make(
            self.num * other.num * QPoly.const(self.c * other.c), self.den * other.den
        )

    def div(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction.make(
            self.num * other.den * QPoly.const(self.c / other.c), self.den * other.num
        )

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def to_poly(self) -> QPoly:
        assert self.is_polynomial
        return self.num.scale(self.c)

    @property
    def order(self) -> int:
        """Order at x = 0 (can be negative for genuine fractions)."""
        return self.num.order - self.den.order

    @property
    def is_unit_class(self) -> bool:
        return self.c == 1 and self.num.degree == 0 and self.den.degree == 0

    def in_domain(self) -> bool:
        """Membership in the ring of polynomials with integer constant term."""
        # the constant term of c * num, without scaling every coefficient
        return self.is_polynomial and (self.c * self.num.constant).denominator == 1

    def label(self) -> str:
        if self.is_polynomial:
            return poly_str(self.to_poly())
        return f"({poly_str(self.num.scale(self.c))})/({poly_str(self.den)})"
