"""The brute-force factorization oracle against hand-computable counts."""

from itertools import combinations_with_replacement

from hypothesis import given, settings
from hypothesis import strategies as st

from divgraph.models import D2Model, DVRModel, NumericalMonoidModel, ZxQModel
from helpers import vec


def exhaustive_multisets(generators, target, max_len):
    """All multisets of generators summing to target; test-local reference."""
    out = set()
    for size in range(1, max_len + 1):
        for combo in combinations_with_replacement(sorted(generators), size):
            if sum(combo) == target:
                out.add(combo)
    return out


class TestNumericalOracle:
    def test_counts_match_reference_2_3(self):
        m = NumericalMonoidModel((2, 3))
        for n in range(2, 25):
            if not m._member(n):
                continue
            search = m.factorizations(m.element(vec(n)), 15)
            assert not search.bound_too_small
            got = {tuple(int(a.label) for a in f.atoms) for f in search.found}
            assert got == exhaustive_multisets((2, 3), n, 15), n

    def test_counts_match_reference_3_5_7(self):
        m = NumericalMonoidModel((3, 5, 7))
        for n in range(3, 30):
            if not m._member(n):
                continue
            search = m.factorizations(m.element(vec(n)), 12)
            assert not search.bound_too_small
            got = {tuple(int(a.label) for a in f.atoms) for f in search.found}
            assert got == exhaustive_multisets((3, 5, 7), n, 12), n

    def test_truncation_is_flagged(self):
        m = NumericalMonoidModel((2, 3))
        search = m.factorizations(m.element(vec(26)), 12)
        assert search.bound_too_small  # the all-2s factorization has length 13


def numeric_search(model, target, max_length):
    search = model.factorizations(model.element(vec(target)), max_length)
    found = {tuple(sorted(int(a.label) for a in f.atoms)) for f in search.found}
    return found, search.bound_too_small


@given(
    st.lists(st.integers(2, 12), min_size=1, max_size=4, unique=True),
    st.lists(st.tuples(st.integers(1, 45), st.integers(1, 16)), min_size=1, max_size=8),
)
@settings(max_examples=80, deadline=None)
def test_memoised_oracle_matches_exhaustive_search(generators, queries):
    # one model answers every query, bounds in the order drawn, so a result
    # stored under one bound is read under another; a fresh model answers
    # each query from an empty memo
    shared = NumericalMonoidModel(generators)
    atoms = [int(a.label) for a in shared.atoms()]
    for target, max_length in queries:
        if not shared._member(target):
            continue
        every = exhaustive_multisets(atoms, target, target // min(atoms))
        expected = (
            {f for f in every if len(f) <= max_length},
            any(len(f) > max_length for f in every),
        )
        assert numeric_search(shared, target, max_length) == expected
        fresh = NumericalMonoidModel(generators)
        assert numeric_search(fresh, target, max_length) == expected


class TestDeepSearch:
    # each search divides off more atoms along one branch than Python's
    # recursion limit allows frames
    def test_numerical_search_of_1200_atoms(self):
        m = NumericalMonoidModel((2, 3))
        search = m.factorizations(m.element(vec(2400)), 1300)
        assert not search.bound_too_small
        # 2400 = 2x + 3y for y = 0, 2, ..., 800, with x + y = 1200 - y/2 atoms
        assert sorted(len(f.atoms) for f in search.found) == list(range(800, 1201))

    def test_d2_chain_cut_at_2000(self):
        # y^2 / x^n is integral for every n, so the chain below y^2 is cut
        m = D2Model()
        search = m.factorizations(m.element(vec(2, 0)), 2000)
        assert search.bound_too_small
        assert [[a.label for a in f.atoms] for f in search.found] == [["y", "y"]]


class TestDVROracle:
    def test_unique_chain(self):
        m = DVRModel()
        search = m.factorizations(m.element(vec(7)), 10)
        assert len(search.found) == 1
        assert len(search.found[0].atoms) == 7


class TestD2Oracle:
    def test_infinite_chain_stays_truncated(self):
        # y^2 / x^n is integral for every n, so the search below y^2 never
        # ends, whatever bound it was asked with before
        m = D2Model()
        y2 = m.element(vec(2, 0))
        for bound in (5, 12, 1, 5):
            search = m.factorizations(y2, bound)
            assert search.bound_too_small, bound
            assert [[a.label for a in f.atoms] for f in search.found] == (
                [["y", "y"]] if bound >= 2 else []
            )


class TestZxQOracle:
    def test_mixed_constant_and_polynomial(self):
        m = ZxQModel()
        e = m.from_coeffs((12, 12))  # 12(1 + x)
        search = m.factorizations(e, 10)
        assert len(search.found) == 1
        assert sorted(a.label for a in search.found[0].atoms) == [
            "1+x",
            "2",
            "2",
            "3",
        ]

    def test_quadratic_split(self):
        m = ZxQModel()
        e = m.from_coeffs((1, 2, 1))  # (1 + x)^2
        search = m.factorizations(e, 10)
        assert len(search.found) == 1
        assert sorted(a.label for a in search.found[0].atoms) == ["1+x", "1+x"]
