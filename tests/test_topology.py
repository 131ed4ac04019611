"""Alexandrov-space view: axioms, round trips, chain connectivity."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divgraph.models import AntimatterModel, DVRModel, NumericalMonoidModel, ZxQModel
from divgraph.models.base import WindowSpec
from divgraph.topology import (
    AlexandrovSpace,
    FinitePoset,
    chain_connected,
    connected_components_topology,
    is_T0,
    poset_to_space,
    window_poset,
)
from helpers import poset_from_pairs, space_to_poset


def win(model, **bounds):
    return model.enumerate_window(WindowSpec(bounds))


def diamond_poset():
    rel = {(x, x) for x in "abcd"} | {("a", "b"), ("a", "c"), ("a", "d"), ("b", "d"), ("c", "d")}
    return poset_from_pairs(("a", "b", "c", "d"), rel)


class TestRoundTrip:
    def test_diamond(self):
        p = diamond_poset()
        p.check_axioms()
        s = poset_to_space(p)
        s.check_basis()
        assert is_T0(s)
        q = space_to_poset(s)
        assert q.relation == p.relation and set(q.elements) == set(p.elements)

    def test_min_opens_are_down_sets(self):
        s = poset_to_space(diamond_poset())
        # points a, b, c, d are bits 0..3
        assert s.opens == (0b0001, 0b0011, 0b0101, 0b1111)
        assert s.min_open["d"] == ("a", "b", "c", "d")
        assert s.min_open["b"] == ("a", "b")
        assert s.min_open["a"] == ("a",)

    def test_not_t0_rejected(self):
        s = AlexandrovSpace(("a", "b"), (0b11, 0b11))
        assert not is_T0(s)
        with pytest.raises(ValueError):
            space_to_poset(s)


class TestAxiomsRejected:
    def poset(self, *pairs):
        rel = {(x, x) for x in "abc"} | set(pairs)
        return poset_from_pairs(("a", "b", "c"), rel)

    def test_missing_reflexive_pair(self):
        p = poset_from_pairs(("a", "b"), {("a", "a"), ("a", "b")})
        with pytest.raises(AssertionError, match="'b' missing from its own closure"):
            p.check_axioms()

    def test_two_cycle(self):
        with pytest.raises(AssertionError, match="antisymmetry violated"):
            self.poset(("a", "b"), ("b", "a")).check_axioms()

    def test_closed_three_cycle_names_its_first_and_last_element(self):
        # a <= b <= c <= a, transitively closed: all three rows are equal
        p = self.poset(*((x, y) for x in "abc" for y in "abc"))
        with pytest.raises(AssertionError, match="antisymmetry violated on 'a', 'c'"):
            p.check_axioms()

    def test_transitivity_is_checked_before_antisymmetry(self):
        # a <= b <= a, and a <= c but not b <= c: both axioms fail
        with pytest.raises(AssertionError, match="basis coherence violated on 'b'..'c'"):
            self.poset(("a", "b"), ("b", "a"), ("a", "c")).check_axioms()

    def test_non_transitive_chain(self):
        with pytest.raises(AssertionError, match="basis coherence violated on 'a'..'c'"):
            self.poset(("a", "b"), ("b", "c")).check_axioms()

    def test_pair_outside_the_elements(self):
        with pytest.raises(AssertionError, match="names a non-element"):
            self.poset(("a", "z")).check_axioms()

    def test_closed_chain_passes(self):
        self.poset(("a", "b"), ("b", "c"), ("a", "c")).check_axioms()

    def test_transitive_pair_dropped_in_the_last_partial_block(self):
        # 19 elements: the rows are read in blocks of 8, 8 and 3 bits; drop
        # the pair 20 <= 9 (bit 18), which 20 <= 11 <= 9 implies
        m = NumericalMonoidModel((2, 3))
        p = window_poset(m, win(m, max_value=20))
        rows = list(p.rows)
        i, j = p.elements.index("20"), p.elements.index("9")
        assert len(rows) % 8 and j >= len(rows) // 8 * 8 and rows[i] >> j & 1
        rows[i] &= ~(1 << j)
        with pytest.raises(AssertionError, match="basis coherence violated on '20'..'9'"):
            FinitePoset(p.elements, tuple(rows)).check_axioms()


class TestBasisRejected:
    def test_point_outside_its_minimal_open(self):
        # the closure of a is {a, b} and that of b is empty: U_b = {a}
        s = AlexandrovSpace(("a", "b"), (0b11, 0b00))
        with pytest.raises(AssertionError, match="'b' missing from its own closure"):
            s.check_basis()

    def test_minimal_open_not_closed_downward(self):
        # b lies in U_a, so U_b must lie in U_a, but c is in U_b only:
        # the closure of c holds b, but not a, which the closure of b holds
        # U_a = {a, b}, U_b = {b, c}, U_c = {c}
        s = AlexandrovSpace(("a", "b", "c"), (0b001, 0b011, 0b110))
        with pytest.raises(AssertionError, match="basis coherence violated on 'c'..'a'"):
            s.check_basis()

    def test_open_point_dropped_in_the_last_partial_block(self):
        # 19 points: the closures are read in blocks of 8, 8 and 3 bits; drop
        # 9 (bit 18) from the closure of 13, which holds 11, and the closure
        # of 11 holds 9
        m = NumericalMonoidModel((2, 3))
        s = poset_to_space(window_poset(m, win(m, max_value=20)))
        closures = list(s.closures)
        i, j = s.points.index("13"), s.points.index("9")
        assert len(closures) % 8 and j >= len(closures) // 8 * 8 and closures[i] >> j & 1
        closures[i] &= ~(1 << j)
        with pytest.raises(AssertionError, match="basis coherence violated on '13'..'9'"):
            AlexandrovSpace(s.points, tuple(closures)).check_basis()

    def test_minimal_open_outside_the_points(self):
        # the closure of a = {a, and a third point the space does not have}
        s = AlexandrovSpace(("a", "b"), (0b101, 0b010))
        with pytest.raises(AssertionError, match="closure of 'a' names a non-element"):
            s.check_basis()


class TestWindowPoset:
    def test_dvr_total_order(self):
        m = DVRModel()
        p = window_poset(m, win(m, max_exponent=5))
        p.check_axioms()
        # pi <= pi^k for every k: quotient is a power of the atom
        for k in range(2, 6):
            assert (f"pi^{k}", "pi") in p.relation
        assert ("pi", "pi^2") not in p.relation

    def test_antimatter_discrete(self):
        m = AntimatterModel(max_den=3)
        w = win(m, max_value=2)
        p = window_poset(m, w)
        s = poset_to_space(p)
        # no atomic elements at all: every minimal open is a singleton
        assert s.opens == tuple(1 << i for i in range(len(w)))
        assert s.min_open == {x: (x,) for x in s.points}
        assert len(connected_components_topology(s)) == len(w)


class TestChainConnected:
    def setup_method(self):
        self.m = ZxQModel()
        rows = [
            (2,), (3,), (4,), (6,), (1, 1), (2, 2),
            (0, 1), (0, 2), (0, Fraction(1, 2)),
            (0, 0, 1), (0, 0, 2), (0, 0, Fraction(1, 2)),
        ]
        w = self.m.enumerate_window(WindowSpec({"elements": rows}))
        self.space = poset_to_space(window_poset(self.m, w))

    def test_same_order_class_connected(self):
        assert chain_connected(self.space, "x", "2x")
        assert chain_connected(self.space, "4", "6")

    def test_different_order_classes_disconnected(self):
        assert not chain_connected(self.space, "x", "x^2")
        assert not chain_connected(self.space, "2", "x")

    def test_components_partition_by_order(self):
        comps = connected_components_topology(self.space)
        by_member = {frozenset(c) for c in comps}
        assert frozenset({"x", "2x", "(1/2)x"}) in by_member
        assert frozenset({"x^2", "2x^2", "(1/2)x^2"}) in by_member
        assert len(comps) == 3

    def test_unknown_point_raises(self):
        with pytest.raises(KeyError):
            chain_connected(self.space, "x", "nope")


class TestNumericalTopology:
    def test_single_component(self):
        m = NumericalMonoidModel((2, 3))
        s = poset_to_space(window_poset(m, win(m, max_value=12)))
        assert len(connected_components_topology(s)) == 1
        assert is_T0(s)


@st.composite
def relations(draw):
    """Labels and bit rows of a relation on 0..n-1: random pairs, or pairs
    i -> j with perm[i] < perm[j] only, perhaps made reflexive, perhaps
    closed transitively, perhaps with one pair then dropped."""
    n = draw(st.integers(0, 24))
    rng = draw(st.randoms())
    p = draw(st.floats(0, 0.4))
    perm = rng.sample(range(n), n)
    forward = draw(st.booleans())
    rows = [
        sum(1 << j for j in range(n) if (perm[i] < perm[j] or not forward) and rng.random() < p)
        for i in range(n)
    ]
    if draw(st.booleans()):
        rows = [row | 1 << i for i, row in enumerate(rows)]
    if draw(st.booleans()):
        for k in range(n):
            rows = [row | rows[k] if row >> k & 1 else row for row in rows]
    if n and draw(st.booleans()):
        rows[rng.randrange(n)] &= ~(1 << rng.randrange(n))
    return tuple(f"x{i}" for i in range(n)), rows


def pairs(rows) -> list[set]:
    """Each i's related j, read bit by bit."""
    return [{j for j in range(len(rows)) if row >> j & 1} for row in rows]


def naive_preorder(rows) -> bool:
    above = pairs(rows)
    return all(i in above[i] for i in range(len(rows))) and all(
        k in above[i] for i in range(len(rows)) for j in above[i] for k in above[j]
    )


def naive_partial_order(rows) -> bool:
    above = pairs(rows)
    return naive_preorder(rows) and not any(
        i != j and i in above[j] for i in range(len(rows)) for j in above[i]
    )


def raises(check) -> str | None:
    try:
        check()
    except AssertionError as err:
        return str(err)
    return None


@given(relations())
@settings(max_examples=150, deadline=None)
def test_closure_test_and_opens_match_pairwise_definitions(relation):
    elements, rows = relation
    n, above = range(len(rows)), pairs(rows)
    s = AlexandrovSpace(elements, tuple(rows))
    basis = raises(s.check_basis)
    assert (basis is None) == naive_preorder(rows)
    if basis and (named := re.fullmatch(r"basis coherence violated on '(x\d+)'..'(x\d+)'", basis)):
        # the named pair is one that transitivity implies and the rows lack
        i, k = (elements.index(x) for x in named.groups())
        assert k not in above[i] and any(k in above[j] for j in above[i])
    p = FinitePoset(elements, tuple(rows))
    assert (raises(p.check_axioms) is None) == naive_partial_order(rows)
    down = [{i for i in n if j in above[i]} for j in n]
    for space in (s, poset_to_space(p)):
        assert space.closures == tuple(rows)
        assert space.opens == tuple(sum(1 << i for i in d) for d in down)
        assert space.min_open == {
            elements[j]: tuple(elements[i] for i in sorted(d)) for j, d in enumerate(down)
        }
