"""Exact value vectors and subgroup membership machinery."""

import copy
import pickle
from fractions import Fraction

import pytest

from divgraph.lattices import SubgroupDescriptor, column_echelon
from divgraph.values import Ambient, Vec, fmt_exponent
from helpers import run_optimised, vec, zero


# rational parts on the grids 1/6 and 1/105
GRID_6 = Ambient(2, with_rat=True, grid=6)
GRID_105 = Ambient(1, with_rat=True, grid=105)


class TestVec:
    def test_arithmetic(self):
        a = vec(1, 2, rat=Fraction(1, 3), on=GRID_6)
        b = vec(4, -1, rat=Fraction(1, 6), on=GRID_6)
        assert a + b == vec(5, 1, rat=Fraction(1, 2), on=GRID_6)
        assert a - b == vec(-3, 3, rat=Fraction(1, 6), on=GRID_6)
        assert a.scaled(3) == vec(3, 6, rat=1, on=GRID_6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            vec(1) + vec(1, 2)
        with pytest.raises(ValueError):
            vec(1) - vec(1, 2)

    @pytest.mark.parametrize("rat", [0, 3, Fraction(2, 3)])
    def test_hash_is_the_pair_hash(self, rat):
        # the hash the dataclass computed, so no set or label order moves
        assert hash(Vec((1, -2), rat)) == hash(((1, -2), rat))

    def test_no_tuple_repetition(self):
        with pytest.raises(TypeError):
            Vec((1,)) * 2
        with pytest.raises(TypeError):
            2 * Vec((1,))

    def test_immutable(self):
        v = Vec((1,))
        with pytest.raises(AttributeError):
            v.ints = (2,)
        with pytest.raises(AttributeError):
            v.extra = 1

    def test_keywords_and_copies(self):
        v = Vec(ints=(1, 2), rat=Fraction(1, 3))
        assert (v.ints, v.rat) == ((1, 2), Fraction(1, 3))
        assert copy.copy(v) == copy.deepcopy(v) == pickle.loads(pickle.dumps(v)) == v
        assert type(copy.deepcopy(v)) is Vec

    def test_str(self):
        # a value renders only on a grid: its rat counts steps of 1/grid
        assert vec(3, rat=Fraction(-1, 3), on=GRID_105).render(105) == "(3, -1/3)"
        assert vec(2, 0).render() == "(2, 0)"
        assert Vec((), 3).render(6) == "(1/2)"
        assert vec(3, 0, rat=Fraction(1, 2), on=GRID_6).render(6) == "(3, 0, 1/2)"

    def test_fmt_exponent(self):
        assert fmt_exponent(2) == "2"
        assert fmt_exponent(1, 3) == "(1/3)"
        # read on the grid in lowest terms
        assert fmt_exponent(12, 6) == "2"
        assert fmt_exponent(-4, 12) == "(-1/3)"

    def test_is_zero(self):
        assert zero(Ambient(2)).is_zero
        assert not vec(0, rat=Fraction(1, 5), on=GRID_105).is_zero

    def test_int_rational_part_equals_fraction(self):
        # integer coordinates stay ints; sets and dicts must not tell them apart
        assert Vec((1,)) == Vec((1,), Fraction(0))
        assert hash(Vec((1,))) == hash(Vec((1,), Fraction(0)))
        assert type(Vec((1,)).rat) is int


class TestColumnEchelon:
    def test_transform_identity(self):
        A = [[2, 4, 1], [0, 6, 3]]
        H, U, pivots = column_echelon(A)
        # H = A * U must hold exactly
        n = len(A[0])
        for i in range(len(A)):
            for j in range(n):
                assert H[i][j] == sum(A[i][k] * U[k][j] for k in range(n))
        assert pivots == [(0, 0), (1, 1)]

    def test_unimodular(self):
        A = [[6, 10, 15]]
        _, U, _ = column_echelon(A)
        # determinant of the 3x3 transform must be +-1
        det = (
            U[0][0] * (U[1][1] * U[2][2] - U[1][2] * U[2][1])
            - U[0][1] * (U[1][0] * U[2][2] - U[1][2] * U[2][0])
            + U[0][2] * (U[1][0] * U[2][1] - U[1][1] * U[2][0])
        )
        assert det in (1, -1)

    def test_gcd_pivot(self):
        H, _, pivots = column_echelon([[6, 10, 15]])
        assert pivots == [(0, 0)]
        assert H[0][0] == 1  # gcd(6, 10, 15)


class TestSubgroup:
    def test_membership_with_certificate(self):
        desc = SubgroupDescriptor(Ambient(2), (vec(2, 0), vec(0, 3)))
        assert desc.membership(vec(4, -6)) == [2, -2]
        assert desc.membership(vec(1, 0)) is None
        assert desc.membership(vec(0, 1)) is None

    def test_wrong_certificate_raises_under_python_O(self):
        # a tampered transform yields coefficients 6 for the target 4 over
        # the generator 2; the exactness check must survive assert stripping
        proc = run_optimised(
            "from divgraph.lattices import SubgroupDescriptor\n"
            "from divgraph.values import Ambient, Vec\n"
            "desc = SubgroupDescriptor(Ambient(1), (Vec((2,)),))\n"
            "desc._U = [[3]]\n"
            "desc.membership(Vec((4,)))\n"
        )
        assert proc.returncode != 0
        assert "membership certificate failed to reproduce the target" in proc.stderr

    def test_rational_coordinate(self):
        desc = SubgroupDescriptor(GRID_105, (vec(2),))
        # an integer lattice meets the rational axis only in 0
        assert desc.membership(vec(4, rat=Fraction(1, 3), on=GRID_105)) is None
        assert desc.membership(vec(0, rat=Fraction(1, 5), on=GRID_105)) is None
        assert desc.membership(vec(4)) == [2]
        # the rational part passes through the coset representative
        third, minus_two_sevenths = (Fraction(1, 3), Fraction(-2, 7))
        rep = desc.coset_rep(vec(5, rat=third, on=GRID_105))
        assert rep == vec(1, rat=third, on=GRID_105)
        assert desc.coset_label(vec(5, rat=third, on=GRID_105)) == "(1, 1/3)"
        rep = desc.coset_rep(vec(-3, rat=minus_two_sevenths, on=GRID_105))
        assert rep == vec(1, rat=minus_two_sevenths, on=GRID_105)

    def test_each_query_refuses_a_vector_of_another_dimension(self):
        # a remainder taken over the first coordinates only would name a
        # wrong coset: (3, 5) reduced by 2 in the first is (1, 5)
        desc = SubgroupDescriptor(Ambient(1), (vec(2),))
        for query in (desc.membership, desc.coset_rep, desc.coset_label):
            with pytest.raises(ValueError, match="ambient dimension mismatch"):
                query(vec(3, 5))

    def test_rejects_a_generator_with_a_rational_part(self):
        with pytest.raises(ValueError, match="rational part"):
            SubgroupDescriptor(GRID_105, (vec(1), vec(0, rat=Fraction(1, 3), on=GRID_105)))

    def test_trivial_subgroup(self):
        grid_2 = Ambient(1, with_rat=True, grid=2)
        desc = SubgroupDescriptor(grid_2, ())
        assert desc.no_atoms
        assert desc.membership(vec(0)) == []
        assert desc.membership(vec(1)) is None
        assert desc.membership(vec(0, rat=Fraction(1, 2), on=grid_2)) is None

    def test_coset_reps_characterise_cosets(self):
        desc = SubgroupDescriptor(Ambient(2), (vec(2, 0), vec(0, 3)))
        pts = [vec(a, b) for a in range(-4, 5) for b in range(-4, 5)]
        for g in pts:
            for h in pts:
                same = desc.membership(g - h) is not None
                assert same == (desc.coset_rep(g) == desc.coset_rep(h))

    def test_membership_vs_exhaustive_search(self):
        gens = (vec(2, 1), vec(1, 2))
        desc = SubgroupDescriptor(Ambient(2), gens)
        # every integer combination with |c_i| <= 6 must be a member, and
        # membership of small vectors must agree with the exhaustive search
        span = set()
        for c1 in range(-6, 7):
            for c2 in range(-6, 7):
                v = gens[0].scaled(c1) + gens[1].scaled(c2)
                span.add(v)
                assert desc.membership(v) is not None
        for a in range(-3, 4):
            for b in range(-3, 4):
                v = vec(a, b)
                if v in span:
                    assert desc.membership(v) is not None
