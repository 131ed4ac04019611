"""Call-count contracts: how much model work a report may do per window.

Each test counts calls through a monkeypatched wrapper, so a change that
makes a layer do more work per vertex fails here even where the timing
noise of a benchmark would hide it.
"""

from collections import Counter
from fractions import Fraction

import pytest

from divgraph import graph as graph_module
from divgraph import reports as reports_module
from divgraph import topology as topology_module
from divgraph.graph import build_graph, classify, window_analysis
from divgraph.lattices import SubgroupDescriptor
from divgraph.models import NumericalMonoidModel, ZxQModel
from divgraph.models import zxq as zxq_module
from divgraph.models.base import WindowSpec
from divgraph.polynomials import RationalFunction
from divgraph.reports import crosscheck_graph, dot_export, graph_report, topology_report
from divgraph.topology import window_poset
from helpers import LADDER, ladder_window


def counting(fn, calls: list):
    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    return wrapper


def test_topology_renders_each_label_at_most_once(monkeypatch):
    m, w = ladder_window("d2")
    calls = []
    monkeypatch.setattr(m, "label_for", counting(m.label_for, calls))
    topology_report(m, w)
    # the quotients of the order are never printed, so never rendered
    assert len(w) == 66 and len(calls) <= len(w)


def test_zxq_graph_renders_each_label_at_most_once(monkeypatch):
    m, w = ladder_window("zxq")
    calls = []
    monkeypatch.setattr(RationalFunction, "label", counting(RationalFunction.label, calls))
    graph_report(build_graph(m, w))
    assert len(w) == 12 and len(calls) <= len(w)


@pytest.mark.parametrize("kind", LADDER)
def test_graph_report_and_dot_ask_is_atom_at_most_once_per_sink(monkeypatch, kind):
    # a vertex with an edge to an integral non-unit is no atom, and the
    # graph decides once which of the others are
    m, w = ladder_window(kind)
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
    quotients, atomic = [], []
    monkeypatch.setattr(m, "quotient", counting(m.quotient, quotients))
    monkeypatch.setattr(m, "is_atomic_element", counting(m.is_atomic_element, atomic))
    window_poset(m, w)
    bound = len(divisor_pairs(m, w))
    assert len(quotients) <= bound and len(atomic) <= bound


@pytest.mark.parametrize("kind", [k for k in LADDER if k != "zxq"])
def test_build_graph_takes_one_quotient_per_edge(monkeypatch, kind):
    # candidates and boundary probes divide the atoms off values; only
    # cover_edge forms a quotient, and every candidate it tests is an edge
    m, w = ladder_window(kind)
    calls = []
    monkeypatch.setattr(m, "quotient", counting(m.quotient, calls))
    graph = build_graph(m, w)
    assert graph.edges and len(calls) <= len(graph.edges)


def test_zxq_cover_edge_runs_only_on_divisor_pairs(monkeypatch):
    m, w = ladder_window("zxq")
    calls = []
    monkeypatch.setattr(graph_module, "cover_edge", counting(graph_module.cover_edge, calls))
    build_graph(m, w)
    tested = [(a, b) for _, a, b in calls]
    assert tested and set(tested) <= divisor_pairs(m, w) and len(set(tested)) == len(tested)


def test_zxq_factors_each_polynomial_once(monkeypatch):
    # one split per class and one factor_monic per polynomial, whether the
    # graph, the boundary probe, is_atom or the oracle asks
    m, w = ladder_window("zxq")
    calls = []
    monkeypatch.setattr(zxq_module, "factor_monic", counting(zxq_module.factor_monic, calls))
    assert crosscheck_graph(build_graph(m, w))["ok"]
    assert calls and max(Counter(calls).values()) == 1


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
    # a bound every search fits (150 = 50 * 3), each value up to the largest
    # vertex tests each atom at most once per floor, whatever vertex asks
    m = NumericalMonoidModel((3, 5, 7))
    graph = build_graph(m, m.enumerate_window(WindowSpec({"max_value": 150})))
    calls = []
    monkeypatch.setattr(m, "contains_value", counting(m.contains_value, calls))
    report = crosscheck_graph(graph, 50)
    assert report["ok"] and "skipped_oracle_bound" not in report
    atoms = len(m.atoms())
    assert atoms == 3 and len(calls) <= atoms * atoms * (150 + 1)
