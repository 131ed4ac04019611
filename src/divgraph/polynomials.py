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
operation is an `int` operation, and c is kept as a reduced pair of positive
`int`s.  The gcd is skipped when num or den is the constant 1, which is
coprime to everything, and when den divides num exactly, as den is then the
gcd.  Rows of rational coefficients (`int`s or `Fraction`s) are converted
on the way in (`RationalFunction.make`) and rendered from the int pairs on
the way out (`RationalFunction.label`).

Integers are split into primes in one place, `_prime_factors`, and the
rational root test tries the divisors built from that split that lie
within the Cauchy bounds on the roots.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction
from itertools import count
from math import gcd, lcm

# coefficients in ascending degree
Poly = tuple[int, ...]


def primitive(row) -> tuple[tuple[int, int], Poly]:
    """A nonzero row of rational coefficients (`int`s or `Fraction`s),
    ascending, as its positive content, a reduced pair (numerator,
    denominator), and its primitive part: row = +-content * part."""
    row = list(row)
    while row and row[-1] == 0:
        row.pop()
    if not row:
        raise ZeroDivisionError("the zero polynomial is not a class representative")
    den = lcm(*(a.denominator for a in row))
    ints = [a.numerator * (den // a.denominator) for a in row]
    part = _primitive_part(ints)
    return _ratio(abs(ints[-1]) // part[-1], den), part


def _ratio(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms, for d > 0."""
    g = gcd(n, d)
    return n // g, d // g


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


def render_terms(terms) -> str:
    """Deterministic compact rendering of rational coefficients, given as
    (numerator, denominator) pairs in lowest terms with a positive
    denominator, terms in ascending degree."""
    out = ""
    for i, (n, d) in enumerate(terms):
        if not n:
            continue
        c = str(n) if d == 1 else f"{n}/{d}"
        if i:
            x = "x" if i == 1 else f"x^{i}"
            # x and -x, then 2x and (1/2)x
            c = c[:-1] + x if d == 1 and abs(n) == 1 else f"{c}{x}" if d == 1 else f"({c}){x}"
        out += c if not out or c[0] == "-" else "+" + c
    return out or "0"


# trial division stops here; a number below its square with no factor below
# it is prime
_TRIAL_LIMIT = 1000
# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, 2015); the first 12 are exact only below 3.2e23
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981
# Brent's rho gives up rather than pass this many steps of x -> x^2 + c.  It
# needs about sqrt(p) steps to find a prime factor p.  Semiprimes p*q with q
# a 14-digit prime split for 40 of 40 p in [5e9, 1e10], 37 of 40 in
# [5e10, 1e11] and 12 of 40 in [5e11, 1e12]; giving up on a 41-digit
# semiprime took 0.75-0.85 s on a shared x86-64 VM
_RHO_STEPS = 1 << 20


def _is_strong_probable_prime(n: int) -> bool:
    """Miller-Rabin on an odd n > 41 with the bases in _MR_BASES."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int | None:
    """A nontrivial factor of an odd composite n: Brent's variant of
    Pollard rho on x -> x^2 + c, trying c = 1, 2, ... until one splits n.
    None when no factor turns up within _RHO_STEPS steps over all c."""
    steps = 0
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            # r steps to move x, then at most r to catch up
            if steps + 2 * r > _RHO_STEPS:
                return None
            steps += 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batched product hit 0 mod n: redo its steps one gcd at a time
            g = 1
            while g == 1:
                if steps == _RHO_STEPS:
                    return None
                steps += 1
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _prime_factors(n: int) -> list[int] | None:
    """The prime factors of |n| with multiplicity, in ascending order; None
    when a cofactor at or above _MR_EXACT_BELOW tests prime, since it cannot
    be certified prime there, or when rho finds no factor of a composite
    cofactor within its step budget."""
    n = abs(n)
    out = []
    d = 2
    while d < _TRIAL_LIMIT and d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if m < _TRIAL_LIMIT**2 or _is_strong_probable_prime(m):
            if m >= _MR_EXACT_BELOW:
                return None
            out.append(m)
        else:
            d = _rho_factor(m)
            if d is None:
                return None
            pending += [d, m // d]
    return sorted(out)


def _divisors(n: int) -> set[int] | None:
    """The positive divisors of n != 0; None when `_prime_factors` cannot split n."""
    primes = _prime_factors(n)
    if primes is None:
        return None
    out = {1}
    for q in primes:
        out |= {d * q for d in out}
    return out


def _root_factors(p: Poly) -> tuple[list[tuple[int, int]], Poly] | None:
    """The linear factors b*x - a, as (-a, b), of the rational roots a/b of
    p, ascending with multiplicity, and the cofactor of their product.  A
    root a/b in lowest terms has a dividing the lowest nonzero coefficient
    and b the leading one (the rational root test), and lo <= |a/b| <= hi
    by Cauchy's bound hi = 1 + max_{i<n} |p_i| / |p_n| and its reciprocal
    form lo = |p_0| / (|p_0| + max_{i>0} |p_i|).  None when either end
    coefficient cannot be split into primes."""
    low = _low(p)
    factors, p = [(0, 1)] * low, p[low:]
    if len(p) == 1:
        return factors, p
    tops, bottoms = _divisors(p[0]), _divisors(p[-1])
    if tops is None or bottoms is None:
        return None
    first, last = abs(p[0]), abs(p[-1])
    lo_n, lo_d = first, first + max(map(abs, p[1:]))
    hi_n, hi_d = last + max(map(abs, p[:-1])), last
    tops = sorted(tops)
    # (a/b scaled by |p_n| to an int, -a, b) for each candidate root a/b
    keyed = []
    for b in bottoms:
        scale = last // b
        start = bisect_left(tops, -(-lo_n * b // lo_d))
        for a in tops[start : bisect_right(tops, hi_n * b // hi_d)]:
            if gcd(a, b) == 1:
                keyed += ((a * scale, -a, b), (-a * scale, a, b))
    for _, a, b in sorted(keyed):
        while len(p) > 1 and (q := exact_div(p, (a, b))) is not None:
            factors.append((a, b))
            p = q
    return factors, p


def rational_roots(p: Poly) -> list[Fraction] | None:
    """All rational roots of a nonzero integer polynomial, with multiplicity;
    None when they are unknown (see `_root_factors`)."""
    split = _root_factors(p)
    return None if split is None else [Fraction(-a, b) for a, b in split[0]]


def factor_monic(p: Poly) -> list[Poly] | None:
    """The irreducible factors of a primitive p over Q, each primitive with a
    positive leading coefficient (monic up to a positive integer), whose
    product is p; None when a factor of degree >= 4 without a rational root
    is left, which the root-based test cannot decide, or when the rational
    roots are unknown."""
    split = _root_factors(p)
    if split is None or len(split[1]) not in (1, 3, 4):
        return None
    factors, rest = split
    # no rational roots left, hence irreducible at degrees 2 and 3
    return factors if len(rest) == 1 else [*factors, rest]


class RationalFunction(namedtuple("RationalFunction", "cn cd num den order")):
    """Canonical class representative c * num/den with num, den primitive,
    coprime and of positive leading coefficient, c = cn/cd > 0 in lowest
    terms, and `order` the order at x = 0.  The sign, a unit, is dropped.
    As a tuple, `==` and `hash` run in C: define no rich comparison and no
    instance attribute.  Build it through `of`, which reduces c."""

    __slots__ = ()

    @staticmethod
    def of(cn: int, cd: int, num: Poly, den: Poly, order: int) -> "RationalFunction":
        """The class cn/cd * num/den, num and den coprime, content reduced."""
        g = gcd(cn, cd)
        return tuple.__new__(RationalFunction, (cn // g, cd // g, num, den, order))

    @staticmethod
    def make(num, den=(1,)) -> "RationalFunction":
        """The class of num/den, both rows of rational coefficients in
        ascending degree."""
        (a, b), pn = primitive(num)
        if den == (1,):  # a polynomial: its content is reduced, and the constant 1 is coprime
            return tuple.__new__(RationalFunction, (a, b, pn, (1,), _low(pn)))
        (c, d), pd = primitive(den)
        return RationalFunction._reduced(a * d, b * c, pn, pd)

    @staticmethod
    def _reduced(cn: int, cd: int, num: Poly, den: Poly) -> "RationalFunction":
        if len(num) > 1 and len(den) > 1:
            # a den that divides num is their gcd
            if (q := exact_div(num, den)) is not None:
                num, den = q, (1,)
            elif len(g := _gcd(num, den)) > 1:
                num, den = exact_div(num, g), exact_div(den, g)
        return RationalFunction.of(cn, cd, num, den, _low(num) - _low(den))

    def mul(self, other: "RationalFunction") -> "RationalFunction":
        (a, b, p, q, _), (c, d, r, s, _) = self, other
        return RationalFunction._reduced(a * c, b * d, _mul(p, r), _mul(q, s))

    def div(self, other: "RationalFunction") -> "RationalFunction":
        (a, b, p, q, _), (c, d, r, s, _) = self, other
        return RationalFunction._reduced(a * d, b * c, _mul(p, s), _mul(q, r))

    @property
    def is_unit_class(self) -> bool:
        return self.cn == self.cd == 1 and len(self.num) == len(self.den) == 1

    def in_domain(self) -> bool:
        """Membership in the ring of polynomials with integer constant term."""
        # c * num(0) is an integer iff cd divides num(0)
        return len(self.den) == 1 and self.num[0] % self.cd == 0

    def label(self) -> str:
        """c * num / den printed with the denominator monic, and as a
        polynomial when den = 1."""
        cn, cd, num, den, _ = self
        lead = den[-1]
        top = render_terms([_ratio(cn * a, cd * lead) for a in num])
        if len(den) == 1:
            return top
        return f"({top})/({render_terms([_ratio(b, lead) for b in den])})"

