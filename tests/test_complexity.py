"""Call-count contracts: how much model work a report may do per window.

Each test counts calls through a monkeypatched wrapper, so a change that
makes a layer do more work per vertex fails here even where the timing
noise of a benchmark would hide it.
"""

import json
from collections import Counter
from fractions import Fraction
from math import prod

import pytest

from divgraph import bitrows
from divgraph import graph as graph_module
from divgraph import polynomials
from divgraph import reports as reports_module
from divgraph import topology as topology_module
from divgraph.config import load_config
from divgraph.connectivity import atom_subgroup
from divgraph.graph import build_graph, classify, window_analysis
from divgraph.lattices import SubgroupDescriptor
from divgraph.models import (
    AntimatterModel,
    D1Model,
    D2Model,
    DVRModel,
    NumericalMonoidModel,
    ZxQModel,
)
from divgraph.models import valuebased
from divgraph.models import zxq as zxq_module
from divgraph.models.base import DivisibilityModel, WindowSpec
from divgraph.polynomials import RationalFunction
from divgraph.reports import (
    atomicity_report,
    classify_report,
    components_report,
    crosscheck_graph,
    dot_export,
    graph_report,
    to_json,
    topology_report,
)
from divgraph.topology import window_poset
from divgraph.values import Vec
from helpers import (
    CONFIG_DIR,
    FRACTIONAL,
    LADDER,
    all_pairs_edges,
    all_pairs_order,
    fractional_window,
    generated_zxq_window,
    ladder_window,
)


def counting(fn, calls: list):
    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    return wrapper


def test_vec_compares_and_hashes_in_c():
    # the window graph looks every quotient up by value; one rich comparison
    # defined on Vec would send == through a Python slot
    for name in ("__eq__", "__hash__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(Vec, name) is getattr(tuple, name), name


def test_rational_function_compares_and_hashes_in_c():
    # zxq windows look every quotient class up by value, as value models do
    for name in ("__eq__", "__hash__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(RationalFunction, name) is getattr(tuple, name), name


@pytest.mark.parametrize("name", ["zxq_orders", "zxq_prime_witness"])
def test_zxq_reports_build_no_fraction(monkeypatch, name):
    # zxq classes are int tuples: from the model's construction to the JSON
    # and .dot of every report, no Fraction is built
    cfg = load_config(CONFIG_DIR / f"{name}.cfg")
    calls = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    m, spec = cfg.build()
    w = m.enumerate_window(spec)
    graph = build_graph(m, w)
    reports = (
        graph_report(graph),
        classify_report(graph),
        components_report(graph),
        topology_report(m, w),
        atomicity_report(m, w),
        crosscheck_graph(graph),
    )
    assert all(to_json(r).endswith("}\n") for r in reports) and dot_export(graph)
    assert calls == []


@pytest.mark.parametrize("name", ["d1", "antimatter"])
def test_rational_reports_hash_no_fraction(monkeypatch, name):
    # d1 and antimatter values hold their rational part as an int on the
    # model's grid: from the model's construction to the JSON and .dot of
    # every report no Fraction is hashed, and no more are built than
    # rational exponents and value strings are rendered
    hashed, built, exponents, strings = [], [], [], []
    fraction_new, fraction_hash = Fraction.__new__, Fraction.__hash__

    def new(cls, *args, **kwargs):
        built.append(args)
        return fraction_new(cls, *args, **kwargs)

    def hashing(q):
        hashed.append(q)
        return fraction_hash(q)

    monkeypatch.setattr(Fraction, "__new__", new)
    monkeypatch.setattr(Fraction, "__hash__", hashing)
    monkeypatch.setattr(valuebased, "fmt_exponent", counting(valuebased.fmt_exponent, exponents))
    monkeypatch.setattr(Vec, "render", counting(Vec.render, strings))
    m, spec = load_config(CONFIG_DIR / f"{name}.cfg").build()
    w = m.enumerate_window(spec)
    graph = build_graph(m, w)
    reports = (
        graph_report(graph),
        classify_report(graph),
        components_report(graph),
        topology_report(m, w),
        atomicity_report(m, w),
        crosscheck_graph(graph),
    )
    assert all(to_json(r).endswith("}\n") for r in reports) and dot_export(graph)
    assert hashed == []
    rational = [(n, grid) for n, grid in exponents if grid != 1]
    assert rational and strings  # a rational exponent and a coset string were rendered
    assert len(built) <= len(rational) + len(strings)


def test_topology_renders_each_label_at_most_once(monkeypatch):
    # patched on the class before the window is built, so the window's own
    # labels count too and one more label, a quotient's, breaks the bound
    calls = []
    monkeypatch.setattr(D2Model, "label_for", staticmethod(counting(D2Model.label_for, calls)))
    m, w = ladder_window("d2")
    topology_report(m, w)
    # the quotients of the order are never printed, so never rendered
    assert len(w) == 66 and len(calls) <= len(w)


def test_zxq_graph_renders_each_label_at_most_once(monkeypatch):
    m, w = ladder_window("zxq")
    calls = []
    monkeypatch.setattr(RationalFunction, "label", counting(RationalFunction.label, calls))
    graph_report(build_graph(m, w))
    assert len(w) == 12 and len(calls) <= len(w)


@pytest.mark.parametrize(
    "window, kind",
    [pytest.param(ladder_window, k, id=k) for k in LADDER]
    + [pytest.param(fractional_window, k, id=f"fractional-{k}") for k in FRACTIONAL],
)
def test_graph_report_and_dot_ask_is_atom_at_most_once_per_sink(monkeypatch, window, kind):
    # a vertex with an edge to an integral non-unit is no atom, nor is the
    # unit or a non-integral class, and the graph decides once which of the
    # others are
    m, w = window(kind)
    graph = build_graph(m, w)
    calls = []
    monkeypatch.setattr(m, "is_atom", counting(m.is_atom, calls))
    report = graph_report(graph)
    dot_export(graph)
    sinks = len(report["sinks"]) + len(report["sink_artifacts"])
    assert sinks and len(calls) <= sinks


@pytest.mark.parametrize("kind", LADDER)
def test_topology_pair_partitions_once(monkeypatch, kind):
    # the pair's answer is read off the partition the report already has
    m, w = ladder_window(kind)
    calls = []
    wrapper = counting(topology_module.connected_components_topology, calls)
    monkeypatch.setattr(topology_module, "connected_components_topology", wrapper)
    monkeypatch.setattr(reports_module, "connected_components_topology", wrapper)
    report = topology_report(m, w, pair=(w[0].label, w[-1].label))
    assert "chain_connected_pair" in report and len(calls) == 1


@pytest.mark.parametrize("kind", LADDER)
def test_topology_transposes_the_order_once(monkeypatch, kind):
    # the space holds the order's rows as its closures, so checking the
    # order and building the space need no transpose; the minimal opens,
    # which the components and min_open read, take one, and the oracle check
    # reads the rows alone
    m, w = ladder_window(kind)
    calls = []
    monkeypatch.setattr(topology_module, "transpose", counting(topology_module.transpose, calls))
    window_poset(m, w).check_axioms()
    assert not calls
    topology_report(m, w)
    assert len(calls) <= 1
    calls.clear()
    assert crosscheck_graph(build_graph(m, w))["ok"]
    assert not calls


@pytest.mark.parametrize("kind", LADDER)
def test_topology_runs_the_closure_test_once(monkeypatch, kind):
    # the order's axioms and the basis are one closure test on the same
    # masks; the oracle check reads the order's rows only
    m, w = ladder_window(kind)
    calls = []
    monkeypatch.setattr(topology_module, "first_escape", counting(topology_module.first_escape, calls))
    window_poset(m, w).check_axioms()
    assert len(calls) == 1
    calls.clear()
    topology_report(m, w)
    assert len(calls) == 1
    calls.clear()
    assert crosscheck_graph(build_graph(m, w))["ok"]
    assert not calls


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.cfg")))
def test_check_builds_no_space_and_no_topology_partition(monkeypatch, name):
    # the check compares each order row with the graph's reach row, so it
    # neither transposes the order nor partitions the space, wherever a
    # module holds either function
    calls = []
    for module in (bitrows, topology_module, reports_module):
        for fn in ("transpose", "connected_components_topology"):
            if hasattr(module, fn):
                monkeypatch.setattr(module, fn, counting(getattr(module, fn), calls))
    m, spec = load_config(CONFIG_DIR / f"{name}.cfg").build()
    assert crosscheck_graph(build_graph(m, m.enumerate_window(spec)))["ok"]
    assert not calls


@pytest.mark.parametrize("kind", LADDER)
def test_to_json_never_runs_the_pure_python_encoder(monkeypatch, kind):
    # json's indent option builds its encoder with _make_iterencode, a
    # Python generator per container; the reports are written without it
    def refuse(*args):
        raise AssertionError("json's pure-Python encoder was run")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    m, w = ladder_window(kind)
    graph = build_graph(m, w)
    for report in (topology_report(m, w), classify_report(graph), graph_report(graph)):
        assert to_json(report).endswith("}\n")


def divides(d, p) -> bool:
    """Whether the polynomial d divides p over Q, both coefficient tuples in
    ascending degree: long division leaves no remainder."""
    r = [Fraction(a) for a in p]
    while len(r) >= len(d):
        c = r[-1] / d[-1]
        for i, a in enumerate(d):
            r[len(r) - len(d) + i] -= c * a
        r.pop()
    return not any(r)


def divisor_pairs(model, window) -> set:
    """The ordered pairs (a, b), a != b, whose quotient can be atomic: none
    on a value model, which reads the order off values, and on zxq those of
    equal order at x = 0 where b's primitive polynomial part divides a's."""
    if not isinstance(model, ZxQModel):
        return set()
    return {
        (a, b)
        for a in window
        for b in window
        if a != b and a.value.order == b.value.order and divides(b.value.num, a.value.num)
    }


@pytest.mark.parametrize("kind", LADDER)
def test_window_poset_quotients_only_same_order_pairs(monkeypatch, kind):
    m, w = ladder_window(kind)
    quotients, atomic, elements = [], [], []
    monkeypatch.setattr(m, "quotient", counting(m.quotient, quotients))
    monkeypatch.setattr(m, "is_atomic_element", counting(m.is_atomic_element, atomic))
    maker = "element_of" if kind == "zxq" else "element"
    monkeypatch.setattr(m, maker, counting(getattr(m, maker), elements))
    window_poset(m, w)
    # zxq divides the divisor pairs exactly, with no quotient, and tests the
    # class of each quotient without wrapping it in an element
    assert not quotients and not atomic and not elements


def difference_box(window) -> int:
    """The number of integer differences between two values of a window's
    box: the product of 2w - 1 over its integer coordinates of width w."""
    return prod(2 * (max(c) - min(c) + 1) - 1 for c in zip(*(e.value.ints for e in window)))


@pytest.mark.parametrize(
    "model, bounds, fractional, box",
    [
        pytest.param(m, bounds, fractional, box, id=f"{m.id}-{box}")
        for m, bounds, fractional, box in [
            # k runs from 0 to 9 and j from -8 to 8: 19 * 33
            (D2Model(), {"k_max": 9, "j_max": 8}, False, 627),
            (D2Model(), {"k_max": 9, "j_max": 8}, True, 37 * 33),
            # (0, a) for a > 0 is in the window, so k runs from 0 to 4
            (D1Model(den_max=4), {"k_max": 4, "alpha_max": 2}, False, 9),
            (D1Model(den_max=4), {"k_max": 4, "alpha_max": 2}, True, 17),
            (NumericalMonoidModel((2, 3)), {"max_value": 30}, False, 57),
            (NumericalMonoidModel((4, 6)), {"max_value": 12}, True, 49),
            (DVRModel(), {"max_exponent": 4}, True, 17),
            (AntimatterModel(max_den=3), {"max_value": 2}, True, 1),
        ]
    ],
)
def test_window_poset_asks_each_difference_in_the_box_once(
    monkeypatch, model, bounds, fractional, box
):
    # the rational part of an atomic difference is 0, so it is never asked
    w = model.enumerate_window(WindowSpec(bounds, include_fractional=fractional))
    assert difference_box(w) == box
    calls = []
    monkeypatch.setattr(model, "is_atomic_value", counting(model.is_atomic_value, calls))
    window_poset(model, w)
    assert calls and len(calls) <= box
    assert all(v.rat == 0 for (v,) in calls)


@pytest.mark.parametrize("kind", [k for k in LADDER if k != "zxq"])
def test_build_graph_takes_one_quotient_per_edge(monkeypatch, kind):
    # candidates and boundary probes divide the atoms off values; only
    # cover_edge forms a quotient, and every candidate it tests is an edge
    m, w = ladder_window(kind)
    calls = []
    monkeypatch.setattr(m, "quotient", counting(m.quotient, calls))
    graph = build_graph(m, w)
    assert graph.edges and len(calls) <= len(graph.edges)


@pytest.mark.parametrize("kind", LADDER)
def test_build_graph_takes_a_quotient_only_in_cover_edge(monkeypatch, kind):
    # every candidate comes with its quotient, which is the atom of an edge
    m, w = ladder_window(kind)
    quotients, tested = [], []
    monkeypatch.setattr(m, "quotient", counting(m.quotient, quotients))
    monkeypatch.setattr(graph_module, "cover_edge", counting(graph_module.cover_edge, tested))
    build_graph(m, w)
    assert tested and len(quotients) == len(tested)


@pytest.mark.parametrize("kind", [*(k for k in LADDER if k != "zxq"), "numerical-2-5-182"])
def test_build_graph_subtracts_once_per_vertex_and_atom(monkeypatch, kind):
    # a candidate or a probe reads a/p as a shift of box positions; a value
    # is subtracted only where cover_edge forms the quotient of a candidate
    # in the window or the probe meets one outside it, and only those
    # outside are asked whether they are integral
    if kind == "numerical-2-5-182":
        m = NumericalMonoidModel((2, 5))
        w = m.enumerate_window(WindowSpec({"max_value": 182}))
    else:
        m, w = ladder_window(kind)
    subs, asked = [], []
    monkeypatch.setattr(Vec, "__sub__", counting(Vec.__sub__, subs))
    monkeypatch.setattr(m, "contains_value", counting(m.contains_value, asked))
    build_graph(m, w)
    values = {e.value for e in w}
    assert subs and len(subs) <= len(w) * len(m.atoms())
    assert asked and not any(v in values for (v,) in asked)


@pytest.mark.parametrize("kind", [*(k for k in LADDER if k != "zxq"), "dvr", "antimatter"])
def test_value_model_reports_reach_check_owned_only_to_raise(monkeypatch, kind):
    # each value-model predicate, d1's quasi_complement, the order rows and
    # quotient_of_atomics compare the owner once per element; only a foreign
    # element goes on to check_owned, to raise
    if kind == "dvr":
        m = DVRModel()
        w = m.enumerate_window(WindowSpec({"max_exponent": 6}))
    elif kind == "antimatter":
        m = AntimatterModel(max_den=2)
        w = m.enumerate_window(WindowSpec({"max_value": 2}))
    else:
        m, w = ladder_window(kind)
    calls = []
    check_owned = counting(DivisibilityModel.check_owned, calls)
    monkeypatch.setattr(DivisibilityModel, "check_owned", check_owned)
    graph = build_graph(m, w)
    classify_report(graph)
    components_report(graph)
    assert crosscheck_graph(graph)["ok"]
    atomicity_report(m, w)
    assert graph.edges or not m.atoms()
    assert not calls


def test_integral_window_enumerates_only_its_half_of_the_box(monkeypatch):
    # <2,5> max_value 182 holds 180 values; the box from -182 to 182 holds 365
    m = NumericalMonoidModel((2, 5))
    calls = []
    monkeypatch.setattr(m, "contains_value", counting(m.contains_value, calls))
    assert len(m.enumerate_window(WindowSpec({"max_value": 182}))) == 180
    assert len(calls) <= 183


def test_zxq_cover_edge_runs_only_on_divisor_pairs(monkeypatch):
    # and only on those whose quotient is atomic, as every atom is
    m, w = ladder_window("zxq")
    atomic = {(a, b) for a, b in divisor_pairs(m, w) if m.is_atomic_element(m.quotient(a, b))}
    calls = []
    monkeypatch.setattr(graph_module, "cover_edge", counting(graph_module.cover_edge, calls))
    build_graph(m, w)
    tested = [(a, b) for _, a, b in calls]
    assert tested and set(tested) <= atomic and len(set(tested)) == len(tested)


def same_order_group_pairs(window) -> int:
    """The ordered pairs of groups of a zxq window's values by (order at
    x = 0, primitive part) whose orders are equal."""
    orders = Counter(order for order, _ in {(e.value.order, e.value.num) for e in window})
    return sum(n * n for n in orders.values())


@pytest.mark.parametrize("window", ["ladder", "generated"])
def test_zxq_window_poset_divides_once_per_pair_of_same_order_groups(monkeypatch, window):
    m, w = ladder_window("zxq") if window == "ladder" else generated_zxq_window(8)
    calls = []
    monkeypatch.setattr(zxq_module, "exact_div", counting(zxq_module.exact_div, calls))
    window_poset(m, w)
    assert calls and len(calls) <= same_order_group_pairs(w)
    assert max(Counter(calls).values()) == 1
    if window == "generated":
        assert len(w) == 119 and same_order_group_pairs(w) == 7 * 7 + 5 * 5 + 3 * 3


def test_zxq_rows_and_edges_on_a_window_of_many_contents_match_all_pairs():
    # 15 shapes, contents 1 to 8: groups of 8 members, where the members of
    # a dividing pair of groups still differ in which quotients are atomic
    m, w = generated_zxq_window(8)
    assert window_poset(m, w).rows == all_pairs_order(m, w)
    assert build_graph(m, w).edges == all_pairs_edges(m, w)


def test_zxq_factors_each_polynomial_once(monkeypatch):
    # one split per class and one factor_monic per polynomial, whether the
    # graph, the boundary probe, is_atom or the oracle asks
    m, w = ladder_window("zxq")
    calls = []
    monkeypatch.setattr(zxq_module, "factor_monic", counting(zxq_module.factor_monic, calls))
    assert crosscheck_graph(build_graph(m, w))["ok"]
    assert calls and max(Counter(calls).values()) == 1


@pytest.mark.parametrize("name", ["zxq_orders", "zxq_prime_witness"])
def test_zxq_window_and_graph_take_no_polynomial_gcd(monkeypatch, name):
    # a row over the constant 1 is reduced, and a candidate b divides a, so
    # the quotient's denominator divides its numerator exactly: no reduction
    # needs the remainder sequence
    calls = []
    monkeypatch.setattr(polynomials, "_gcd", counting(polynomials._gcd, calls))
    m, spec = load_config(CONFIG_DIR / f"{name}.cfg").build()
    graph = build_graph(m, m.enumerate_window(spec))
    assert graph.edges and not calls


@pytest.mark.parametrize("name", ["zxq_orders", "zxq_prime_witness"])
def test_zxq_build_graph_forms_atoms_once_per_order_zero_class(monkeypatch, name):
    # the candidates and the boundary probe of a vertex share its atom
    # quotients, formed once per class
    m, spec = load_config(CONFIG_DIR / f"{name}.cfg").build()
    w = m.enumerate_window(spec)
    calls = []
    monkeypatch.setattr(ZxQModel, "_atoms", counting(ZxQModel._atoms, calls))
    build_graph(m, w)
    order_zero = sum(1 for e in w if e.value.order == 0)
    assert calls and len(calls) <= order_zero


@pytest.mark.parametrize("name", ["zxq_orders", "zxq_prime_witness"])
def test_zxq_crosscheck_forms_no_atoms_and_renders_no_label(monkeypatch, name):
    # the oracle reads the atoms that the graph's quotients already hold; the
    # renderer is patched before any element is built, so every element
    # counts, and each label is read once before the check
    labels, atoms = [], []
    monkeypatch.setattr(RationalFunction, "label", counting(RationalFunction.label, labels))
    m, spec = load_config(CONFIG_DIR / f"{name}.cfg").build()
    w = m.enumerate_window(spec)
    graph = build_graph(m, w)
    built = [*w, *graph.atoms, *(p for qs in m._quotients.values() if qs for _, p in qs)]
    assert all(e.label for e in built) and labels
    labels.clear()
    monkeypatch.setattr(ZxQModel, "_atoms", counting(ZxQModel._atoms, atoms))
    assert crosscheck_graph(graph)["ok"]
    assert not atoms and not labels


@pytest.mark.parametrize("kind", LADDER)
def test_membership_forms_no_vec(monkeypatch, kind):
    # the coefficients and their certificate are checked on int lists
    m, w = ladder_window(kind)
    desc = atom_subgroup(m)
    calls = []
    monkeypatch.setattr(Vec, "scaled", counting(Vec.scaled, calls))
    monkeypatch.setattr(Vec, "__add__", counting(Vec.__add__, calls))
    found = [desc.membership(m.conn_value(e)) for e in w]
    assert any(c is not None for c in found) and not calls


@pytest.mark.parametrize("kind", LADDER)
def test_classify_materialises_at_most_the_factorizations(monkeypatch, kind):
    # classify counts canonical paths; it builds index tuples only where a
    # sorted path can be missing, which no whole value-model window has
    m, w = ladder_window(kind)
    graph = build_graph(m, w)
    built = []
    paths = graph_module._Paths
    spell, canonical = paths._spell, paths.canonical

    def spelling(self, v):
        found = spell(self, v)
        built.extend(found)
        return found

    def listing(self, v):
        for t in canonical(self, v):
            built.append(t)
            yield t

    monkeypatch.setattr(paths, "_spell", spelling)
    monkeypatch.setattr(paths, "canonical", listing)
    report = classify(m, graph)
    bound = sum(report["factorization_counts"].values()) if kind == "zxq" else 0
    assert len(built) <= bound


@pytest.mark.parametrize("kind", LADDER)
def test_classify_takes_no_quotient_after_build_graph(monkeypatch, kind):
    # build_graph keeps the atom of every edge, so the count needs no
    # quotient to name it
    m, w = ladder_window(kind)
    graph = build_graph(m, w)
    calls = []
    monkeypatch.setattr(m, "quotient", counting(m.quotient, calls))
    classify(m, graph)
    assert graph.edges and not calls


def multiplier_length(coeffs) -> int:
    """Length of an element's atom multiplier, from its membership
    coefficients: -c atoms for each negative c, plus one when no c is
    positive; 0 when its value escapes the atom subgroup."""
    if coeffs is None:
        return 0
    return sum(-c for c in coeffs if c < 0) + (not any(c > 0 for c in coeffs))


@pytest.mark.parametrize("kind", LADDER)
def test_atomicity_asks_the_subgroup_only_about_non_atomic_elements(monkeypatch, kind):
    # an atomic element's certificate is empty (on the numerical window all
    # are, so nothing is asked); each verdict asks the subgroup at most once
    # per non-atomic element e, and forms at most the products of its
    # multiplier of length n: e times it (almost), and e times the
    # complement, then the multiplier and e times it (quasi)
    m, w = ladder_window(kind)
    desc = atom_subgroup(m)
    lengths = [
        multiplier_length(desc.membership(m.conn_value(e))) for e in w if not m.is_atomic_element(e)
    ]
    asked, products = [], []
    monkeypatch.setattr(SubgroupDescriptor, "membership", counting(SubgroupDescriptor.membership, asked))
    monkeypatch.setattr(m, "multiply", counting(m.multiply, products))
    atomicity_report(m, w)
    assert len(asked) <= 2 * len(lengths)
    assert len(products) <= sum(2 * n + 1 for n in lengths)


def test_zxq_builds_its_certificate_atoms_once_per_model(monkeypatch):
    # every report that reads the atom subgroup asks for the prime-2 atom;
    # one model builds it at most once, not once per question
    m, w = ladder_window("zxq")
    calls = []
    monkeypatch.setattr(ZxQModel, "_atoms", counting(ZxQModel._atoms, calls))
    graph = build_graph(m, w)
    atomicity_report(m, w)
    components_report(graph)
    crosscheck_graph(graph)
    assert calls.count((m, [], [2])) <= 1


@pytest.mark.parametrize("kind", LADDER)
def test_check_calls_the_oracle_once_per_closed_vertex(monkeypatch, kind):
    m, w = ladder_window(kind)
    graph = build_graph(m, w)
    closed = sum(1 for i in window_analysis(graph).values() if not i.escapes)
    calls = []
    monkeypatch.setattr(m, "factorizations", counting(m.factorizations, calls))
    assert crosscheck_graph(graph)["ok"]
    assert closed and len(calls) == closed


@pytest.mark.parametrize("kind", LADDER)
def test_check_tests_each_vertex_against_its_component_once(monkeypatch, kind):
    # one quotient-of-atomics test per vertex, not one per (vertex, component)
    m, w = ladder_window(kind)
    graph = build_graph(m, w)
    calls, labels = [], []
    wrapper = counting(reports_module.quotient_of_atomics, calls)
    monkeypatch.setattr(reports_module, "quotient_of_atomics", wrapper)
    label = counting(SubgroupDescriptor.coset_label, labels)
    monkeypatch.setattr(SubgroupDescriptor, "coset_label", label)
    assert crosscheck_graph(graph)["ok"]
    assert len(calls) <= len(w) and not labels


def test_check_oracle_tests_each_value_and_floor_once(monkeypatch):
    # the oracle's search is memoised on (value, smallest atom allowed); at
    # its bound, the window size, every search fits, and each value up to the
    # largest vertex tests each atom at most once per floor, whatever vertex
    # asks
    m = NumericalMonoidModel((3, 5, 7))
    graph = build_graph(m, m.enumerate_window(WindowSpec({"max_value": 150})))
    calls = []
    monkeypatch.setattr(m, "contains_value", counting(m.contains_value, calls))
    report = crosscheck_graph(graph)
    assert report["ok"] and "skipped_oracle_bound" not in report
    atoms = len(m.atoms())
    assert atoms == 3 and len(calls) <= atoms * atoms * (150 + 1)
