"""Properties of the zxq class arithmetic on primitive integer polynomials."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from divgraph.polynomials import RationalFunction, primitive, rational_roots

coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
# rational polynomials of degree <= 4, coefficients ascending, nonzero
rows = st.lists(coeff, min_size=1, max_size=5).filter(any)


def row_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def is_primitive(p) -> bool:
    return (
        type(p) is tuple
        and all(type(a) is int for a in p)
        and p[-1] > 0
        and gcd(*p) == 1
    )


@settings(max_examples=100, deadline=None)
@given(rows, rows, rows)
def test_common_factor_cancels(p, q, r):
    assert RationalFunction.make(row_mul(p, r), row_mul(q, r)) == RationalFunction.make(p, q)


@settings(max_examples=100, deadline=None)
@given(rows, rows, rows, rows)
def test_div_then_mul_round_trips(p, q, r, s):
    a, b = RationalFunction.make(p, q), RationalFunction.make(r, s)
    assert a.div(b).mul(b) == a


@settings(max_examples=100, deadline=None)
@given(rows, rows)
def test_sign_is_quotiented_away(p, q):
    neg = [-a for a in p]
    assert RationalFunction.make(neg) == RationalFunction.make(p)
    assert RationalFunction.make(neg, q) == RationalFunction.make(p, q)


@settings(max_examples=100, deadline=None)
@given(rows, rows, rows, rows)
def test_num_and_den_are_primitive_int_tuples(p, q, r, s):
    a, b = RationalFunction.make(p, q), RationalFunction.make(r, s)
    for rf in (a, b, a.mul(b), a.div(b)):
        assert is_primitive(rf.num) and is_primitive(rf.den)
        assert type(rf.c) is Fraction and rf.c > 0


def int_eval(p, a, b) -> int:
    """b^deg(p) * p(a/b), exactly."""
    n = len(p) - 1
    return sum(c * a**i * b ** (n - i) for i, c in enumerate(p))


def brute_roots(p) -> list[Fraction]:
    """Every a/b with b dividing the leading coefficient and |a/b| within
    the Cauchy bound, tested by evaluation; multiplicity from derivatives."""
    lead = abs(p[-1])
    bound = 2 + max(map(abs, p[:-1]), default=0) // lead
    roots = []
    for b in (d for d in range(1, lead + 1) if lead % d == 0):
        for a in range(-bound * b, bound * b + 1):
            if gcd(a, b) != 1:
                continue
            q = p
            while len(q) > 1 and int_eval(q, a, b) == 0:
                roots.append(Fraction(a, b))
                q = tuple(i * c for i, c in enumerate(q))[1:]
    return sorted(roots)


linear = st.tuples(st.integers(-3, 3), st.integers(1, 3))


@settings(max_examples=100, deadline=None)
@given(st.lists(linear, max_size=2), st.lists(st.integers(-4, 4), min_size=1, max_size=3))
def test_rational_roots_match_a_brute_force_scan(lins, rest):
    assume(any(rest))
    p = tuple(rest)
    for a, b in lins:
        p = tuple(int(c) for c in row_mul(p, (-a, b)))
    while p[-1] == 0:
        p = p[:-1]
    assert sorted(rational_roots(p)) == brute_roots(p)


def test_div_matches_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def expr(row):
        return sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(row))

    @settings(max_examples=40, deadline=None)
    @given(rows, rows, rows, rows)
    def agrees(p, q, r, s):
        got = RationalFunction.make(p, q).div(RationalFunction.make(r, s))
        want = sympy.cancel(expr(p) * expr(s) / (expr(q) * expr(r)))
        want_num, want_den = sympy.fraction(want)
        assert len(got.num) - 1 == sympy.degree(want_num, x)
        assert len(got.den) - 1 == sympy.degree(want_den, x)
        mine = expr([got.c]) * expr(got.num) / expr(got.den)
        assert sympy.cancel(mine - want) == 0 or sympy.cancel(mine + want) == 0

    agrees()


def test_primitive_splits_off_a_positive_content():
    assert primitive((Fraction(-1, 2), 0, Fraction(-3, 4))) == (Fraction(1, 4), (2, 0, 3))
    assert primitive((6, -9, 3, 0)) == (Fraction(3), (2, -3, 1))
    with pytest.raises(ZeroDivisionError):
        primitive((0, 0))
