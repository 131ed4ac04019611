"""Model-level behavior, frozen against independently computed values."""

import gc
import random
import weakref
from fractions import Fraction
from operator import add, sub

import pytest

from divgraph.config import load_config
from divgraph.errors import (
    DegreeCapExceeded,
    ElementForeignToModel,
    InvalidBounds,
    OffGrid,
)
from divgraph.graph import build_graph
from divgraph.models import (
    AntimatterModel,
    D1Model,
    D2Model,
    DVRModel,
    NumericalMonoidModel,
    ZxQModel,
    build_model,
)
from divgraph.models.base import FactorSearch, WindowSpec
from divgraph.polynomials import _prime_factors, factor_monic, rational_roots
from divgraph.reports import (
    atomicity_report,
    classify_report,
    crosscheck_graph,
    graph_report,
    topology_report,
)
from helpers import (
    CONFIG_DIR,
    FRACTIONAL,
    LADDER,
    fractional_window,
    ladder_window,
    vec,
)


def window(model, **bounds):
    fr = bounds.pop("include_fractional", False)
    return model.enumerate_window(WindowSpec(bounds, include_fractional=fr))


class TestDVR:
    m = DVRModel()

    def test_window_and_labels(self):
        w = window(self.m, max_exponent=4)
        assert sorted(e.label for e in w) == ["pi", "pi^2", "pi^3", "pi^4"]

    def test_atoms_and_divisibility(self):
        pi = self.m.element(vec(1))
        pi3 = self.m.element(vec(3))
        assert self.m.is_atom(pi) and not self.m.is_atom(pi3)
        assert self.m.in_domain(self.m.quotient(pi3, pi))  # pi divides pi^3
        assert not self.m.in_domain(self.m.quotient(pi, pi3))
        assert self.m.quotient(pi3, pi) == self.m.element(vec(2))
        # on a fractional window the only atom quotient is pi
        w = window(self.m, max_exponent=3, include_fractional=True)
        quotients = {self.m.quotient(a, b) for a in w for b in w}
        assert {q.label for q in quotients if self.m.is_atom(q)} == {"pi"}

    def test_fractional_labels(self):
        assert self.m.element(vec(-2)).label == "1/pi^2"

    def test_foreign_element(self):
        with pytest.raises(ElementForeignToModel):
            self.m.is_atom(D2Model().element(vec(1, 0)))


class TestAntimatter:
    m = AntimatterModel(max_den=5)

    def test_no_atoms(self):
        assert self.m.atoms() == ()
        x = self.m.element(vec(rat=Fraction(1, 2), on=self.m))
        assert not self.m.is_atom(x)
        assert not self.m.is_atomic_element(x)

    def test_window_count(self):
        # distinct positive rationals p/q <= 2 with q <= 5
        w = window(self.m, max_value=2)
        assert len(w) == 20

    def test_halving_chain(self):
        # every element is divisible by its half: no minimal divisors
        x = self.m.element(vec(rat=Fraction(1, 2), on=self.m))
        half = self.m.element(vec(rat=Fraction(1, 4), on=self.m))
        assert self.m.in_domain(self.m.quotient(x, half))

    def test_empty_window(self):
        with pytest.raises(InvalidBounds):
            window(AntimatterModel(max_den=1), max_value=0)


class TestNumericalMonoid:
    def test_membership_2_3(self):
        m = NumericalMonoidModel((2, 3))
        members = [n for n in range(1, 10) if m._member(n)]
        assert members == [2, 3, 4, 5, 6, 7, 8, 9]  # gap only at 1

    def test_membership_3_5_7(self):
        m = NumericalMonoidModel((3, 5, 7))
        gaps = [n for n in range(1, 13) if not m._member(n)]
        assert gaps == [1, 2, 4]

    def test_atoms_exclude_decomposable_generators(self):
        m = NumericalMonoidModel((2, 3, 5))
        assert [a.label for a in m.atoms()] == ["2", "3"]

    def test_six_has_two_lengths(self):
        m = NumericalMonoidModel((2, 3))
        six = m.element(vec(6))
        search = m.factorizations(six, 10)
        lengths = sorted(len(f.atoms) for f in search.found)
        assert lengths == [2, 3]  # 3+3 and 2+2+2

    def test_invalid_generators(self):
        with pytest.raises(InvalidBounds):
            NumericalMonoidModel(())

    def test_unit_label_differs_from_value_one(self):
        # labels are values, so the unit (value 0) must not be labelled "1"
        m = NumericalMonoidModel((1, 3))
        unit, one = m.element(vec(0)), m.element(vec(1))
        assert unit != one
        assert (unit.label, one.label) == ("0", "1")
        assert m.is_unit(unit) and not m.is_atom(unit)
        assert m.is_atom(one)
        w = window(NumericalMonoidModel((2, 3)), max_value=3, include_fractional=True)
        assert len(w) == 7  # values -3..3, the unit included

    def test_fractional_window_is_the_value_group(self):
        # <4,6> generates 2Z: an odd value names no class of the fraction field
        w = window(NumericalMonoidModel((4, 6)), max_value=5, include_fractional=True)
        assert [e.label for e in w] == ["-2", "-4", "0", "2", "4"]


class TestD1:
    m = D1Model(den_max=3)

    def test_monoid_membership(self):
        assert self.m.contains_value(vec(0, rat=Fraction(1, 2), on=self.m))
        assert not self.m.contains_value(vec(0, rat=Fraction(-1, 2), on=self.m))
        assert self.m.contains_value(vec(1, rat=0, on=self.m))
        assert not self.m.contains_value(vec(1, rat=Fraction(-1, 3), on=self.m))
        assert self.m.contains_value(vec(2, rat=Fraction(-7, 3), on=self.m))

    def test_single_atom(self):
        assert [a.value for a in self.m.atoms()] == [vec(1)]
        assert self.m.is_atom(self.m.element(vec(1)))
        assert not self.m.is_atom(self.m.element(vec(0, rat=Fraction(1, 2), on=self.m)))

    def test_labels(self):
        assert self.m.element(vec(3, rat=Fraction(-1, 3), on=self.m)).label == "y^3/x^(1/3)"
        assert self.m.element(vec(0, rat=Fraction(1, 2), on=self.m)).label == "x^(1/2)"

    def test_quotient_value(self):
        g = self.m.element(vec(3, rat=Fraction(-1, 3), on=self.m))
        f = self.m.element(vec(0, rat=Fraction(1, 2), on=self.m))
        assert self.m.quotient(g, f).value == vec(3, rat=Fraction(-5, 6), on=self.m)

    def test_atomic_elements_are_y_powers(self):
        assert self.m.is_atomic_element(self.m.element(vec(2)))
        assert not self.m.is_atomic_element(
            self.m.element(vec(2, rat=Fraction(-1, 2), on=self.m))
        )

    def test_off_grid_rationals_are_refused_not_rounded(self):
        # den_max 3 fixes the grid 1/6: it holds 1/2 and -7/3, not 1/4
        assert self.m.ambient.value((0,), Fraction(-7, 3)) == ((0,), -14)
        with pytest.raises(OffGrid, match="1/4"):
            self.m.ambient.value((0,), Fraction(1, 4))
        with pytest.raises(OffGrid):
            AntimatterModel(max_den=2).ambient.value((), Fraction(1, 3))
        with pytest.raises(OffGrid):  # no grid but 1 without a rational coordinate
            D2Model().ambient.value((0, 0), Fraction(1, 2))

    def test_elements_are_not_read_on_another_grid(self):
        # rat 3 is 1/2 on this grid of 1/6, and would be 1/4 on the 1/12 of den_max 4
        half = self.m.element(vec(0, rat=Fraction(1, 2), on=self.m))
        other = D1Model(den_max=4)
        for ask in (other.is_atom, other.in_domain, lambda a: other.quotient(a, a)):
            with pytest.raises(ElementForeignToModel, match="grid 6.*grid 12"):
                ask(half)
        # another model on the same grid reads it alike
        assert D1Model(den_max=3).multiply(half, half).label == "x"


class TestD2:
    m = D2Model()

    def test_monoid_membership(self):
        assert self.m.contains_value(vec(0, 1))
        assert not self.m.contains_value(vec(0, -1))
        assert not self.m.contains_value(vec(1, -1))
        assert self.m.contains_value(vec(2, -5))

    def test_two_atoms(self):
        assert sorted(a.label for a in self.m.atoms()) == ["x", "y"]

    def test_non_atomic_witness(self):
        w = self.m.element(vec(2, -1))
        assert w.label == "y^2/x"
        assert self.m.in_domain(w)
        assert not self.m.is_atomic_element(w)

    def test_window_size(self):
        assert len(window(self.m, k_max=3, j_max=2)) == 15

    def test_boundary_probe_divides_once_per_atom(self, monkeypatch):
        # both atoms divide y*x; each quotient is read as a box position, and
        # no quotient element is built
        m = D2Model()
        w = window(m, k_max=3, j_max=2)
        yx = m.element(vec(1, 1))
        assert yx in w
        index = m.window_index(w)
        calls = []
        quotient = m.quotient
        monkeypatch.setattr(m, "quotient", lambda a, b: calls.append(b) or quotient(a, b))
        assert not m.boundary_probe(yx, index)
        assert len(m.atoms()) == 2 and not calls


@pytest.mark.parametrize(
    "model",
    [
        DVRModel(),
        AntimatterModel(max_den=2),
        NumericalMonoidModel((3, 5, 7)),
        D1Model(den_max=2),
        D2Model(),
    ],
    ids=lambda m: m.id,
)
def test_atoms_are_built_once(model):
    # the graph, the boundary probe and the oracle ask for them once per vertex
    assert model.atoms() is model.atoms()


OWNED = {
    "dvr": DVRModel(),
    "antimatter": AntimatterModel(max_den=2),
    "numerical": NumericalMonoidModel((3, 5, 7)),
    "d1": D1Model(den_max=2),
    "d2": D2Model(),
    "zxq": ZxQModel(),
}
# for each model, a model of another kind, and where a rational part is
# read on a grid, the same kind on another grid
STRANGERS = {
    "dvr": [NumericalMonoidModel((1,))],
    "antimatter": [D1Model(den_max=2), AntimatterModel(max_den=3)],
    "numerical": [DVRModel(), ZxQModel()],
    "d1": [D2Model(), D1Model(den_max=4)],
    "d2": [D1Model(den_max=2), ZxQModel()],
    "zxq": [D2Model(), D1Model(den_max=2)],
}
PREDICATES = {
    "is_unit": lambda m, a, b, index: m.is_unit(a),
    "is_atom": lambda m, a, b, index: m.is_atom(a),
    "is_atomic_element": lambda m, a, b, index: m.is_atomic_element(a),
    "in_domain": lambda m, a, b, index: m.in_domain(a),
    "boundary_probe": lambda m, a, b, index: m.boundary_probe(a, index),
    "factorizations": lambda m, a, b, index: m.factorizations(a, 3),
    "quotient": lambda m, a, b, index: m.quotient(a, b),
    "quotient, foreign divisor": lambda m, a, b, index: m.quotient(b, a),
    "multiply": lambda m, a, b, index: m.multiply(a, b),
    "multiply, foreign factor": lambda m, a, b, index: m.multiply(b, a),
    "window_index": lambda m, a, b, index: m.window_index((a,)),
    "successor_candidates": lambda m, a, b, index: m.successor_candidates(a, index),
    "order_rows": lambda m, a, b, index: m.order_rows((a,)),
}


def some_element(m):
    """An element of m: an atom where m has one, else a class with a rational part."""
    if isinstance(m, ZxQModel):
        return m.from_coeffs((1, 1))
    return m.atoms()[0] if m.atoms() else m.element(vec(rat=Fraction(1, 2), on=m))


def foreign_elements(kind):
    for stranger in STRANGERS[kind]:
        if isinstance(stranger, ZxQModel):
            foreign = stranger.from_coeffs((0, 1))
        else:
            foreign = stranger.element(vec(*(1,) * stranger.ambient.dim, on=stranger))
        assert foreign.model_id != OWNED[kind].owner
        yield foreign


@pytest.mark.parametrize("name", PREDICATES)
@pytest.mark.parametrize("kind", OWNED)
def test_every_predicate_refuses_a_foreign_element(kind, name):
    # one owner comparison per call; a foreign element reaches check_owned,
    # the one place that raises, with its message
    m, ask = OWNED[kind], PREDICATES[name]
    own = some_element(m)
    index = m.window_index((own,))
    ask(m, own, own, index)  # an owned element passes
    for foreign in foreign_elements(kind):
        message = (
            f"element {foreign.label!r} belongs to model {foreign.model_id!r}, not {m.owner!r}"
        )
        with pytest.raises(ElementForeignToModel) as raised:
            ask(m, foreign, own, index)
        assert str(raised.value) == message


@pytest.mark.parametrize("kind", OWNED)
def test_factorizations_checks_the_owner_before_the_bound(kind):
    # is_unit would also refuse a foreign element, but only after the bound
    for foreign in foreign_elements(kind):
        with pytest.raises(ElementForeignToModel):
            OWNED[kind].factorizations(foreign, 0)


@pytest.mark.parametrize("op", [add, sub])
@pytest.mark.parametrize("left, right", [((1,), (1, 2)), ((1, 2), (1,)), ((), (1,)), ((1,), ())])
def test_values_of_different_shape_do_not_combine(op, left, right):
    # the one-int shape takes its own path, and still checks the other's
    with pytest.raises(ValueError, match="different shape"):
        op(vec(*left), vec(*right))


def promise_window(name):
    """A window per bundled config, `LADDER` and `FRACTIONAL` kind, a
    fractional <3,5> window and a fractional dvr window with holes."""
    kind, _, rest = name.partition(":")
    if kind == "config":
        m, spec = load_config(CONFIG_DIR / f"{rest}.cfg").build()
        return m, m.enumerate_window(spec)
    if kind == "ladder":
        return ladder_window(rest)
    if kind == "fractional":
        return fractional_window(rest)
    if kind == "fractional-3-5":
        m = NumericalMonoidModel((3, 5))
        return m, window(m, max_value=12, include_fractional=True)
    m = DVRModel()
    kept = {"1/pi", "1/pi^2", "1/pi^4", "pi^2", "pi^3", "pi^4"}
    full = window(m, max_exponent=4, include_fractional=True)
    return m, tuple(e for e in full if e.label in kept)


PROMISE_WINDOWS = [
    *(f"config:{p.stem}" for p in sorted(CONFIG_DIR.glob("*.cfg"))),
    *(f"ladder:{kind}" for kind in LADDER),
    *(f"fractional:{kind}" for kind in FRACTIONAL),
    "fractional-3-5",
    "dvr-holes",
]


@pytest.mark.parametrize("name", PROMISE_WINDOWS)
def test_successor_candidates_are_distinct_positions_other_than_the_vertex(name):
    # build_graph keeps no set of targets and no guard against a self-loop:
    # it sorts the candidates and tests each one
    m, w = promise_window(name)
    index = m.window_index(w)
    for i, a in enumerate(w):
        positions = [j for j, _ in m.successor_candidates(a, index)]
        assert len(set(positions)) == len(positions) and i not in positions


def model_and_window(kind):
    # a fresh model each call, unlike the shared ones of `fractional_window`
    if kind == "dvr":
        m = DVRModel()
        return m, window(m, max_exponent=4, include_fractional=True)
    if kind == "antimatter":
        m = AntimatterModel(max_den=2)
        return m, window(m, max_value=2, include_fractional=True)
    return ladder_window(kind)


@pytest.mark.parametrize("kind", [*LADDER, "dvr", "antimatter"])
def test_models_are_freed_without_the_cyclic_gc(kind):
    # no element refers back to its model (zxq's never did), so once a
    # report is written and its last name dropped, the model goes at once
    # rather than at the next full collection
    gc.disable()
    try:
        m, w = model_and_window(kind)
        graph = build_graph(m, w)
        for report in (
            graph_report(graph),
            classify_report(graph),
            crosscheck_graph(graph),
            topology_report(m, w),
            atomicity_report(m, w),
        ):
            assert report["model"] == m.id
        ref = weakref.ref(m)
        del m, w, graph, report
        assert ref() is None
    finally:
        gc.enable()


class TestZxQ:
    m = ZxQModel()

    def test_integer_primes_are_atoms(self):
        for n, expect in [(2, True), (3, True), (4, False), (6, False), (1, False)]:
            assert self.m.is_atom(self.m.from_coeffs((n,))) is expect

    def test_polynomial_atoms(self):
        assert self.m.is_atom(self.m.from_coeffs((1, 1)))  # 1 + x
        assert self.m.is_atom(self.m.from_coeffs((1, 0, 1)))  # 1 + x^2
        assert not self.m.is_atom(self.m.from_coeffs((2, 2)))  # 2(1 + x)
        assert not self.m.is_atom(self.m.from_coeffs((0, 1)))  # x

    def test_order_zero_is_atomic(self):
        assert self.m.is_atomic_element(self.m.from_coeffs((6,)))
        assert not self.m.is_atomic_element(self.m.from_coeffs((0, 1)))

    def test_x_divisible_by_every_prime(self):
        x = self.m.from_coeffs((0, 1))
        for p in (2, 3, 5, 7, 11):
            assert self.m.in_domain(self.m.quotient(x, self.m.from_coeffs((p,))))

    def test_unique_factorization_of_order_zero(self):
        e = self.m.from_coeffs((2, 2))  # 2(1 + x)
        search = self.m.factorizations(e, 10)
        assert len(search.found) == 1
        assert sorted(a.label for a in search.found[0].atoms) == ["1+x", "2"]

    def test_positive_order_has_no_factorization(self):
        x = self.m.from_coeffs((0, 1))
        search = self.m.factorizations(x, 10)
        assert search.found == () and not search.bound_too_small

    def test_canonical_class_representatives(self):
        # x/2 and 2x are distinct classes; x and -x are the same class
        assert self.m.from_coeffs((0, Fraction(1, 2))).label != self.m.from_coeffs((0, 2)).label
        assert self.m.from_coeffs((0, 1)) == self.m.from_coeffs((0, -1))

    def test_degree_cap(self):
        quartic = self.m.from_coeffs((1, 0, 0, 0, 1))
        with pytest.raises(DegreeCapExceeded):
            self.m.is_atom(quartic)
        declared = ZxQModel(declared_atoms=[(1, 0, 0, 0, 1)])
        assert declared.is_atom(declared.from_coeffs((1, 0, 0, 0, 1)))

    def test_undecided_factor_below_cap_raises(self):
        # 1 + x + x^4 is irreducible, but the rational-root test cannot
        # tell it from a product of two quadratics: never answer False
        m = ZxQModel(degree_cap=5)
        with pytest.raises(DegreeCapExceeded, match="rational-root test"):
            m.is_atom(m.from_coeffs((1, 1, 0, 0, 1)))
        declared = ZxQModel(degree_cap=5, declared_atoms=[(1, 1, 0, 0, 1)])
        assert declared.is_atom(declared.from_coeffs((1, 1, 0, 0, 1)))

    @pytest.mark.parametrize(
        "coeffs,fragment",
        [
            ((1,), "constant"),
            ((2, 0, 0, 0, 1), "constant term 2"),
            ((1, 0, 0, 0, -1), "rational root"),
            ((1, 1), "rational root"),
            # the least prime above the range where Miller-Rabin is exact
            ((1, 0, 3317044064679887385962123), "cannot be split"),
        ],
    )
    def test_declared_atoms_are_validated(self, coeffs, fragment):
        with pytest.raises(InvalidBounds, match=fragment):
            ZxQModel(degree_cap=5, declared_atoms=[coeffs])

    def test_declared_atom_on_every_path(self):
        # factorizations and the boundary probe read the declaration that
        # is_atom reads (also when given as a one-pass iterator)
        m = ZxQModel(degree_cap=5, declared_atoms=iter([(1, 1, 0, 0, 1)]))
        atom, two = m.from_coeffs((1, 1, 0, 0, 1)), m.from_coeffs((2,))
        e = m.from_coeffs((2, 2, 0, 0, 2))
        assert m.is_atom(atom) and not m.is_atom(e)
        search = m.factorizations(e, 10)
        assert [[a.label for a in f.atoms] for f in search.found] == [["1+x+x^4", "2"]]
        assert not m.boundary_probe(e, frozenset({atom.value, two.value, e.value}))

    def test_cap_applies_to_every_path(self):
        # (1 + x)^4: a polynomial part above the cap is undecided everywhere
        e = self.m.from_coeffs((1, 4, 6, 4, 1))
        with pytest.raises(DegreeCapExceeded, match="rational-root test"):
            self.m.is_atom(e)
        assert self.m.factorizations(e, 10) == FactorSearch((), True)
        assert self.m.boundary_probe(e, frozenset({e.value}))
        assert len(ZxQModel(degree_cap=4).factorizations(e, 10).found[0].atoms) == 4

    def test_rational_roots_of_a_large_constant_term(self):
        # the divisors are built from the prime split, not found by trial up to sqrt(n)
        assert rational_roots((1000000007, 1)) == [Fraction(-1000000007)]

    def test_roots_are_unknown_when_an_end_coefficient_cannot_be_split(self):
        big = 3317044064679887385962123  # prime, but past the exact Miller-Rabin range
        for p in ((big, 1), (1, 0, big)):
            assert rational_roots(p) is None and factor_monic(p) is None
        assert self.m.factorizations(self.m.from_coeffs((big, 1)), 10) == FactorSearch((), True)

    def test_large_prime_constant_is_an_atom(self):
        # 10^18 + 3 is prime; trial division up to its square root hung here
        p = self.m.from_coeffs((1000000000000000003,))
        assert self.m.is_atom(p)
        assert not self.m.boundary_probe(p, frozenset({p.value}))
        assert _prime_factors(1000003 * 10000000000000000051) == [1000003, 10000000000000000051]
        assert _prime_factors(-(2**90) * 9) == [2] * 90 + [3, 3]
        assert _prime_factors(1) == []

    def test_uncertified_prime_cofactor_is_undecided(self):
        # the least prime above the range where Miller-Rabin is exact
        big = 3317044064679887385962123
        assert _prime_factors(big) is None and _prime_factors(6 * big) is None
        e = self.m.from_coeffs((6 * big,))
        with pytest.raises(DegreeCapExceeded, match="certified prime"):
            self.m.is_atom(e)
        assert self.m.factorizations(e, 10) == FactorSearch((), True)
        assert self.m.boundary_probe(e, frozenset({e.value}))

    def test_unsplit_composite_cofactor_is_undecided(self):
        # two primes below the Miller-Rabin range: rho would need about 10^10 steps
        n = 100000000000000000039 * 200000000000000000089
        assert _prime_factors(n) is None
        with pytest.raises(DegreeCapExceeded, match="Pollard rho"):
            self.m.is_atom(self.m.from_coeffs((n,)))

    def test_composite_with_a_factor_below_the_rho_limit_splits(self):
        # 9999999967 is the largest prime below 10^10, the size up to which
        # the step budget is documented to find factors
        for q in (1000000000039, 1000000000000000003):
            assert _prime_factors(9999999967 * q) == [9999999967, q]

    def test_prime_factors_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20261018)
        cases = [rng.randrange(2, 10 ** rng.randint(1, 22)) for _ in range(300)]
        cases += [1000000007 * 10000000019, 1000000007**2, 999983**3 * 1000003]
        for n in cases:
            expect = [p for p, k in sorted(sympy.factorint(n).items()) for _ in range(k)]
            assert _prime_factors(n) == expect, n

    def test_window_rejects_fractional_constant(self):
        spec = WindowSpec({"elements": [(Fraction(1, 2),)]})
        with pytest.raises(InvalidBounds):
            self.m.enumerate_window(spec)


# (coefficient row, expected label): classes of polynomials
ZXQ_POLY_LABELS = [
    ((5,), "5"),
    ((-7,), "7"),
    ((Fraction(3, 4),), "3/4"),
    ((0, 1), "x"),
    ((0, -3), "3x"),
    ((0, Fraction(-1, 2)), "(1/2)x"),
    ((1, 1), "1+x"),
    ((-1, -1), "1+x"),
    ((2, 2), "2+2x"),
    ((1, 0, Fraction(1, 2)), "1+(1/2)x^2"),
    ((3, Fraction(-2, 3), Fraction(1, 2)), "3+(-2/3)x+(1/2)x^2"),
    ((0, 0, Fraction(5, 6), Fraction(-1, 3)), "(-5/6)x^2+(1/3)x^3"),
    ((-4, 0, 0, -2), "4+2x^3"),
    ((1, Fraction(1, 3), 0, 0, Fraction(7, 9)), "1+(1/3)x+(7/9)x^4"),
    ((6, -9, 3), "6-9x+3x^2"),
    ((Fraction(-5, 2), 0, 1), "-5/2+x^2"),
]

# (numerator row, denominator row, expected label of their quotient)
ZXQ_QUOTIENT_LABELS = [
    ((1, 1), (0, 2), "(1/2+(1/2)x)/(x)"),
    ((2,), (1, 1), "(2)/(1+x)"),
    ((1, 0, Fraction(1, 2)), (0, 0, 3), "(1/3+(1/6)x^2)/(x^2)"),
    ((6, -9, 3), (2, -2), "-3+(3/2)x"),
    ((1, 1), (1, -1), "(1+x)/(-1+x)"),
    ((3,), (0, Fraction(1, 2), Fraction(-1, 4)), "(12)/(-2x+x^2)"),
    ((0, 1), (Fraction(2, 3), Fraction(4, 3), Fraction(2, 3)), "((3/2)x)/(1+2x+x^2)"),
    ((Fraction(1, 2), 1), (Fraction(-1, 3), 0, 2), "(1/4+(1/2)x)/(-1/6+x^2)"),
    ((1, 2, 1), (1, 1), "1+x"),
    ((-1, 1), (1, -1), "1"),
    ((2,), (4,), "1/2"),
    ((0, 0, 1), (0, 1, 1), "(x)/(1+x)"),
]


@pytest.mark.parametrize("row,label", ZXQ_POLY_LABELS)
def test_zxq_polynomial_label(row, label):
    assert ZxQModel().from_coeffs(row).label == label


@pytest.mark.parametrize("num,den,label", ZXQ_QUOTIENT_LABELS)
def test_zxq_quotient_label(num, den, label):
    # a genuine fraction renders as (c*num)/(den) with den monic
    m = ZxQModel()
    assert m.quotient(m.from_coeffs(num), m.from_coeffs(den)).label == label


class TestFactory:
    def test_known_kinds(self):
        assert build_model("dvr", {}).id == "dvr"
        assert build_model("numerical-monoid", {"generators": (2, 3)}).id == "numerical-monoid<2,3>"

    def test_unknown_kind(self):
        from divgraph.errors import UnknownModelKind

        with pytest.raises(UnknownModelKind):
            build_model("nope", {})
