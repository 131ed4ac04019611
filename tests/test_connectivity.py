"""Weak components, cosets of the atom subgroup, and generalized atomicity."""

from fractions import Fraction
from functools import reduce

import pytest

from divgraph.connectivity import (
    atom_subgroup,
    is_almost_atomic,
    is_quasi_atomic,
    quotient_of_atomics,
    weak_components,
)
from divgraph.graph import build_graph
from divgraph.models import (
    AntimatterModel,
    D1Model,
    D2Model,
    DVRModel,
    NumericalMonoidModel,
    ZxQModel,
)
from divgraph.models.base import WindowSpec
from divgraph.models.valuebased import ValueModel
from divgraph.verdicts import Status
from helpers import prime_witness_check_zxq, vec, zero


def win(model, **bounds):
    return model.enumerate_window(WindowSpec(bounds))


ZXQ_ROWS = [
    (2,), (3,), (4,), (6,), (1, 1), (2, 2),
    (0, 1), (0, 2), (0, Fraction(1, 2)),
    (0, 0, 1), (0, 0, 2), (0, 0, Fraction(1, 2)),
]


class TestWeakComponents:
    def test_antimatter_all_singletons(self):
        m = AntimatterModel(max_den=5)
        g = build_graph(m, win(m, max_value=2))
        assert len(weak_components(g)) == 20

    def test_zxq_partitions_by_order(self):
        m = ZxQModel()
        g = build_graph(m, m.enumerate_window(WindowSpec({"elements": ZXQ_ROWS})))
        comps = weak_components(g)
        assert len(comps) == 3
        cmap = {label: comp[0] for comp in weak_components(g) for label in comp}
        assert cmap["x"] == cmap["2x"] != cmap["x^2"]
        assert cmap["2"] == cmap["1+x"]

    def test_d2_single_component(self):
        m = D2Model()
        g = build_graph(m, win(m, k_max=3, j_max=2))
        assert len(weak_components(g)) == 1


class TestAtomSubgroup:
    def test_d1_rank_one(self):
        m = D1Model(den_max=3)
        desc = atom_subgroup(m)
        assert desc.membership(vec(5)) is not None
        assert desc.membership(vec(0, rat=Fraction(1, 2), on=m)) is None
        assert desc.membership(vec(2, rat=Fraction(-1, 3), on=m)) is None

    def test_d2_full_lattice(self):
        desc = atom_subgroup(D2Model())
        for a in range(-3, 4):
            for b in range(-3, 4):
                assert desc.membership(vec(a, b)) is not None

    def test_antimatter_trivial(self):
        m = AntimatterModel(max_den=2)
        desc = atom_subgroup(m)
        assert desc.no_atoms
        assert desc.membership(vec(rat=Fraction(1, 2), on=m)) is None

    def test_component_labels(self):
        m = D1Model(den_max=3)
        a = m.element(vec(0, rat=Fraction(1, 2), on=m))
        b = m.element(vec(3, rat=Fraction(-1, 3), on=m))
        c = m.element(vec(2, rat=Fraction(1, 2), on=m))
        desc = atom_subgroup(m)
        la, lb, lc = (desc.coset_label(m.conn_value(e)) for e in (a, b, c))
        assert la != lb
        assert la == lc


def assert_quotient_of_atoms(m, a, b):
    """quotient_of_atomics(a, b) Holds analytically with coefficients c over
    certificate_atoms() whose conn values sum to conn(a) - conn(b); on a
    value model, num (c > 0) and den (c < 0) also give a * prod(den) ==
    b * prod(num).  Returns c."""
    verdict = quotient_of_atomics(m, a, b)
    assert verdict.status is Status.HOLDS and verdict.provenance == "analytic"
    coeffs = verdict.evidence["coefficients"]
    atoms = m.certificate_atoms()
    assert len(coeffs) == len(atoms)
    total = zero(m.ambient)
    for c, p in zip(coeffs, atoms):
        total = total + m.conn_value(p).scaled(c)
    assert total == m.conn_value(a) - m.conn_value(b)
    if isinstance(m, ValueModel):
        num = [p for c, p in zip(coeffs, atoms) for _ in range(c)]
        den = [p for c, p in zip(coeffs, atoms) for _ in range(-c)]
        assert reduce(m.multiply, den, a) == reduce(m.multiply, num, b)
    return coeffs


class TestQuotientOfAtomics:
    def test_d1_refuted_by_values(self):
        m = D1Model(den_max=3)
        g = m.element(vec(3, rat=Fraction(-1, 3), on=m))
        f = m.element(vec(0, rat=Fraction(1, 2), on=m))
        verdict = quotient_of_atomics(m, g, f)
        assert verdict.status is Status.FAILS
        assert verdict.provenance == "analytic"
        assert verdict.evidence["value_difference"] == "(3, -5/6)"

    def test_d2_certificate(self):
        m = D2Model()
        a = m.element(vec(2, -1))
        b = m.element(vec(0, 1))
        coeffs = assert_quotient_of_atoms(m, a, b)
        # over the atoms (x, y): a/b = y^2 / x^2
        assert [p.label for p in m.certificate_atoms()] == ["x", "y"]
        assert coeffs == [-2, 2]

    def test_zxq_certificate(self):
        m = ZxQModel()
        a = m.from_coeffs((4, 4))  # 4(1 + x)
        b = m.from_coeffs((3,))
        assert assert_quotient_of_atoms(m, a, b) == [0]

    @pytest.mark.parametrize(
        "coeffs",
        [
            (1, 4, 6, 4, 1),  # (1 + x)^4: above the default degree cap
            (6 * 3317044064679887385962123,),  # a prime no test certifies
        ],
    )
    def test_zxq_needs_no_split(self, coeffs):
        # a/b has order 0, and an order-0 class f/g is (2f)/(2g)
        m = ZxQModel()
        assert assert_quotient_of_atoms(m, m.from_coeffs(coeffs), m.from_coeffs((2,))) == [0]

    def test_zxq_different_orders_fail(self):
        m = ZxQModel()
        verdict = quotient_of_atomics(m, m.from_coeffs((0, 1)), m.from_coeffs((2,)))
        assert verdict.status is Status.FAILS

    def test_reflexive_pair_holds_trivially(self):
        m = DVRModel()
        pi2 = m.element(vec(2))
        assert assert_quotient_of_atoms(m, pi2, pi2) == [0]


class TestAlmostAtomic:
    def test_dvr_holds(self):
        m = DVRModel()
        verdict = is_almost_atomic(m, win(m, max_exponent=6))
        assert verdict.status is Status.HOLDS

    def test_d1_fails_analytically(self):
        m = D1Model(den_max=3)
        verdict = is_almost_atomic(m, win(m, k_max=3, alpha_max=1))
        assert verdict.status is Status.FAILS
        assert verdict.provenance == "analytic"
        assert "x^(1/2)" in verdict.evidence["value_outside_atom_subgroup"]

    def test_d2_holds_with_certificates(self):
        m = D2Model()
        verdict = is_almost_atomic(m, win(m, k_max=3, j_max=2))
        assert verdict.status is Status.HOLDS
        certs = verdict.evidence["certificates"]
        # y^2/x needs one extra atom x to become y^2, which is atomic
        assert certs["y^2/x"] == ["x"]

    def test_antimatter_fails(self):
        m = AntimatterModel(max_den=3)
        verdict = is_almost_atomic(m, win(m, max_value=1))
        assert verdict.status is Status.FAILS

    def test_certificates_verified(self):
        m = D2Model()
        verdict = is_almost_atomic(m, win(m, k_max=3, j_max=2))
        for label, mult in verdict.evidence["certificates"].items():
            e = next(v for v in win(m, k_max=3, j_max=2) if v.label == label)
            for atom_label in mult:
                atom = next(a for a in m.atoms() if a.label == atom_label)
                e = m.multiply(e, atom)
            assert m.is_atomic_element(e)


class TestQuasiAtomic:
    def test_d1_holds(self):
        m = D1Model(den_max=3)
        w = win(m, k_max=3, alpha_max=1)
        verdict = is_quasi_atomic(m, w)
        assert verdict.status is Status.HOLDS
        # the named multiplier for x^alpha has value (2, -alpha)
        assert verdict.evidence["certificates"]["x^(1/2)"] == "y^2/x^(1/2)"

    def test_d1_certificates_verified(self):
        m = D1Model(den_max=3)
        w = win(m, k_max=3, alpha_max=1)
        by_label = {e.label: e for e in w}
        verdict = is_quasi_atomic(m, w)
        for label, mult in verdict.evidence["certificates"].items():
            if mult is None:
                assert m.is_atomic_element(by_label[label])
                continue
            b = m.element(m.quasi_complement(by_label[label]).value)
            assert b.label == mult
            assert m.is_atomic_element(m.multiply(by_label[label], b))

    def test_d1_complement_on_a_fractional_window(self):
        # (k, alpha) with k <= -2 needs the y-exponent 1 - k to reach (1, 0)
        m = D1Model(den_max=2)
        bounds = {"k_max": 2, "alpha_max": 1}
        w = m.enumerate_window(WindowSpec(bounds, include_fractional=True))
        verdict = is_quasi_atomic(m, w)
        assert verdict.status is Status.HOLDS
        assert verdict.evidence["certificates"]["x^(1/2)/y^2"] == "y^3/x^(1/2)"

    def test_antimatter_fails_with_obstruction(self):
        m = AntimatterModel(max_den=3)
        verdict = is_quasi_atomic(m, win(m, max_value=1))
        assert verdict.status is Status.FAILS
        assert "witness" in verdict.evidence

    def test_zxq_fails_on_positive_order(self):
        m = ZxQModel()
        w = m.enumerate_window(WindowSpec({"elements": ZXQ_ROWS}))
        verdict = is_quasi_atomic(m, w)
        assert verdict.status is Status.FAILS
        assert verdict.evidence["witness"] == "(1/2)x"


class TestPrimeWitness:
    def test_zxq_window(self):
        m = ZxQModel()
        w = m.enumerate_window(WindowSpec({"elements": ZXQ_ROWS}))
        report = prime_witness_check_zxq(m, w)
        assert report["holds"]
        assert set(report["atoms"]) == {"2", "3", "1+x"}
        assert "x" in report["ideal_members"]
        assert report["ideal_atoms"] == []
