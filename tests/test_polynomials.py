"""Properties of the zxq class arithmetic on primitive integer polynomials."""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from divgraph import polynomials
from divgraph.polynomials import (
    RationalFunction,
    exact_div,
    factor_monic,
    primitive,
    rational_roots,
)

coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
# rational polynomials of degree <= 4, coefficients ascending, nonzero
rows = st.lists(coeff, min_size=1, max_size=5).filter(any)


def row_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def is_content(n, d) -> bool:
    """A positive rational in lowest terms as a pair of ints."""
    return type(n) is int and type(d) is int and n > 0 and d > 0 and gcd(n, d) == 1


def low(p) -> int:
    return next(i for i, a in enumerate(p) if a)


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
        assert is_content(rf.cn, rf.cd)
        assert rf.order == low(rf.num) - low(rf.den)


def remainder_sequence_reduced(cn, cd, num, den) -> RationalFunction:
    """`RationalFunction._reduced` with no shortcut: the gcd of num and den
    by the primitive remainder sequence, always."""
    g = polynomials._gcd(num, den)
    if len(g) > 1:
        num, den = exact_div(num, g), exact_div(den, g)
    return RationalFunction.of(cn, cd, num, den, low(num) - low(den))


def int_mul(p, q) -> tuple:
    return tuple(int(c) for c in row_mul(p, q))


constant = st.builds(lambda c: [c], coeff.filter(bool))
# (num, den) rows: a constant side, one side dividing the other, or general
row_pairs = st.one_of(
    st.tuples(rows, constant),
    st.tuples(constant, rows),
    st.builds(lambda p, r: (row_mul(p, r), r), rows, rows),
    st.builds(lambda p, r: (r, row_mul(p, r)), rows, rows),
    st.tuples(rows, rows),
)


@settings(max_examples=300, deadline=None)
@given(row_pairs, row_pairs)
def test_gcd_shortcuts_match_the_remainder_sequence(x, y):
    ref = []
    for num, den in (x, y):
        ((a, b), pn), ((c, d), pd) = primitive(num), primitive(den)
        ref.append(remainder_sequence_reduced(a * d, b * c, pn, pd))
        assert RationalFunction.make(num, den) == ref[-1]
    (a, b, p, q, _), (c, d, r, s, _) = ref
    assert ref[0].mul(ref[1]) == remainder_sequence_reduced(a * c, b * d, int_mul(p, r), int_mul(q, s))
    assert ref[0].div(ref[1]) == remainder_sequence_reduced(a * d, b * c, int_mul(p, s), int_mul(q, r))


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
        mine = sympy.Rational(got.cn, got.cd) * expr(got.num) / expr(got.den)
        assert sympy.cancel(mine - want) == 0 or sympy.cancel(mine + want) == 0

    agrees()


def test_primitive_splits_off_a_positive_content():
    for row, content, part in (
        ((Fraction(-1, 2), 0, Fraction(-3, 4)), (1, 4), (2, 0, 3)),
        ((6, -9, 3, 0), (3, 1), (2, -3, 1)),
        ((Fraction(6), Fraction(-9), 3), (3, 1), (2, -3, 1)),
        ((Fraction(4, 6), Fraction(-2, 9)), (2, 9), (-3, 1)),
    ):
        assert primitive(row) == (content, part)
        assert is_content(*primitive(row)[0]) and is_primitive(primitive(row)[1])
    with pytest.raises(ZeroDivisionError):
        primitive((0, 0))


def fraction_str(row) -> str:
    """The renderer on `Fraction` coefficients that the int-pair renderer
    replaced, kept here as an oracle."""
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


def fraction_label(rf) -> str:
    """c * num / den on `Fraction`s, with the denominator made monic."""
    c, lead = Fraction(rf.cn, rf.cd), rf.den[-1]
    top = fraction_str([c * a / lead for a in rf.num])
    if len(rf.den) == 1:
        return top
    return f"({top})/({fraction_str([Fraction(b, lead) for b in rf.den])})"


# negative, fractional, with zero gaps and trailing zeros
gappy = st.lists(st.one_of(st.just(Fraction(0)), coeff), min_size=1, max_size=6).filter(any)


@settings(max_examples=200, deadline=None)
@given(gappy, st.one_of(st.just([Fraction(1)]), gappy))
def test_label_matches_a_fraction_renderer(p, q):
    rf = RationalFunction.make(p, q)
    assert rf.label() == fraction_label(rf)


@pytest.mark.parametrize("n", [73513440, 963761198400])
def test_root_scan_tries_only_candidates_within_the_root_bounds(monkeypatch, n):
    # p = n + x + x^2 + n x^3 = (1 + x)(n + (1 - n) x + n x^2); every root r
    # has 1/2 <= |r| <= 2 (Cauchy's bound on p and on p reversed)
    divs = sorted(d for k in range(1, isqrt(n) + 1) if n % k == 0 for d in {k, n // k})
    in_bound = sum(
        2
        for b in divs
        for a in divs[bisect_left(divs, (b + 1) // 2) : bisect_right(divs, 2 * b)]
        if gcd(a, b) == 1
    )
    calls = []

    def counted(p, d):
        # fail at the first call past the contract, not after the whole scan
        calls.append(d)
        assert len(calls) <= in_bound + 3, "exact_div tried outside the root bounds"
        return exact_div(p, d)

    monkeypatch.setattr(polynomials, "exact_div", counted)
    assert factor_monic((n, 1, 1, n)) == [(1, 1), (n, 1 - n, n)]
