"""The brute-force factorization oracle against hand-computable counts."""

from itertools import combinations_with_replacement

from divgraph.models import DVRModel, NumericalMonoidModel, ZxQModel
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


class TestDVROracle:
    def test_unique_chain(self):
        m = DVRModel()
        search = m.factorizations(m.element(vec(7)), 10)
        assert len(search.found) == 1
        assert len(search.found[0].atoms) == 7


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
