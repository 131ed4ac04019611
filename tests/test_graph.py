"""Window graphs, paths, sinks and the path-based classifier."""

import graphlib
from fractions import Fraction

import pytest

from divgraph.graph import (
    DivGraph,
    build_graph,
    classify,
    cover_edge,
    sinks,
    topological_order,
    window_analysis,
)
from divgraph.models import (
    AntimatterModel,
    D2Model,
    DVRModel,
    NumericalMonoidModel,
    ZxQModel,
)
from divgraph.models.base import WindowSpec
from divgraph.reports import crosscheck_graph
from divgraph.verdicts import Status
from helpers import (
    FRACTIONAL,
    LADDER,
    fractional_window,
    graphlib_order,
    interval,
    ladder_window,
    run_optimised,
    vec,
)


def win(model, **bounds):
    return model.enumerate_window(WindowSpec(bounds))


def zxq_window(model, rows):
    return model.enumerate_window(WindowSpec({"elements": rows}))


class TestDVRChain:
    def setup_method(self):
        self.m = DVRModel()
        self.g = build_graph(self.m, win(self.m, max_exponent=10))

    def test_chain_shape(self):
        assert len(self.g.vertices) == 10
        assert len(self.g.edges) == 9
        assert self.g.boundary == frozenset()

    def test_single_sink(self):
        atom_sinks, artifacts = sinks(self.g)
        assert {self.g.vertices[n].label for n in atom_sinks} == {"pi"}
        assert artifacts == []

    def test_paths_terminate_at_atom(self):
        info = window_analysis(self.g)["pi^10"]
        # one path, pi^10 down to pi, spelling ten factors of pi
        assert set(info.factorizations) == {("pi",) * 10}
        assert not info.escapes
        assert not info.dead

    def test_all_five_hold(self):
        report = classify(self.m, self.g)
        assert all(v.status is Status.HOLDS for v in report["verdicts"].values())


class TestAntimatterGraph:
    def setup_method(self):
        self.m = AntimatterModel(max_den=5)
        self.g = build_graph(self.m, win(self.m, max_value=2))

    def test_edgeless(self):
        assert len(self.g.vertices) == 20
        assert self.g.edges == ()

    def test_no_sinks_only_artifacts(self):
        atom_sinks, artifacts = sinks(self.g)
        assert atom_sinks == []
        assert len(artifacts) == 20

    def test_dead_end_paths(self):
        v = self.g.vertices[0]
        info = window_analysis(self.g)[v.label]
        assert info.dead
        assert not info.escapes
        assert set(info.factorizations) == set()

    def test_atomic_fails(self):
        report = classify(self.m, self.g)
        assert report["verdicts"]["Atomic"].status is Status.FAILS
        assert report["verdicts"]["ACCP"].status is Status.FAILS


class TestNumericalGraph:
    def setup_method(self):
        self.m = NumericalMonoidModel((2, 3))
        self.g = build_graph(self.m, win(self.m, max_value=12))

    def test_cover_edges(self):
        e5 = self.m.element(vec(5))
        e3 = self.m.element(vec(3))
        e2 = self.m.element(vec(2))
        assert cover_edge(self.m, e5, e3)  # 5 - 3 = 2, an atom
        assert cover_edge(self.m, e5, e2)  # 5 - 2 = 3, an atom
        assert not cover_edge(self.m, e5, e5)

    def test_boundary_flags(self):
        # 12 has successors 9 and 10 inside; nothing escapes a downward-closed
        # window, so no boundary flags at all
        assert self.g.boundary == frozenset()

    def test_unequal_lengths_detected(self):
        report = classify(self.m, self.g)
        assert report["verdicts"]["HFD"].status is Status.FAILS
        assert report["factorization_lengths"]["6"] == (2, 3)

    def test_topological_order_targets_first(self):
        order = topological_order(self.g)
        pos = {n: i for i, n in enumerate(order)}
        for a, b in self.g.edges:
            assert pos[b] < pos[a]

    def test_edge_tests_scale_with_the_atoms(self, monkeypatch):
        m = NumericalMonoidModel((2, 3))
        w = win(m, max_value=200)
        calls = []

        def counting(model, a, b):
            calls.append((a, b))
            return cover_edge(model, a, b)

        monkeypatch.setattr("divgraph.graph.cover_edge", counting)
        g = build_graph(m, w)
        # one test per atom and vertex, not one per pair of vertices
        assert len(w) == 199 and len(calls) <= len(w) * len(m.atoms())
        assert {(w[a], w[b]) for a, b in g.edges} <= set(calls)
        assert len(g.edges) == 2 * 199 - 5


class TestInterval:
    def test_cover_edge_iff_two_point_interval(self):
        m = NumericalMonoidModel((2, 3))
        universe = win(m, max_value=12)
        for a in universe:
            for b in universe:
                if a == b or not m.is_atomic_element(m.quotient(a, b)):
                    continue
                expect = cover_edge(m, a, b)
                got = interval(m, a, b, universe) == {a, b}
                assert expect == got, (a.label, b.label)


class TestZxQGraph:
    def setup_method(self):
        self.m = ZxQModel()
        rows = [
            (2,), (3,), (4,), (6,), (1, 1), (2, 2),
            (0, 1), (0, 2), (0, Fraction(1, 2)),
            (0, 0, 1), (0, 0, 2), (0, 0, Fraction(1, 2)),
        ]
        self.g = build_graph(self.m, zxq_window(self.m, rows))

    def test_positive_order_always_boundary(self):
        for n, v in enumerate(self.g.vertices):
            if v.value.order >= 1:
                assert n in self.g.boundary

    def test_order_zero_closed(self):
        labels = [v.label for v in self.g.vertices]
        for label in ("2", "3", "4", "6", "1+x", "2+2x"):
            assert labels.index(label) not in self.g.boundary

    def test_paths_escape_from_positive_order(self):
        assert window_analysis(self.g)["x"].escapes

    def test_classification(self):
        report = classify(self.m, self.g)
        assert report["verdicts"]["Atomic"].status is Status.FAILS
        assert report["verdicts"]["Atomic"].provenance == "analytic"
        assert report["verdicts"]["ACCP"].status is Status.INCONCLUSIVE


def test_escaping_vertex_counts_a_multiset_with_no_sorted_path():
    # 6+6x -3-> 2+2x -2-> 1+x spells {1+x, 2, 3}, but the sorted path would
    # divide off 1+x first and pass through 6, which the window lacks; the
    # vertex escapes (its quotient 3+3x is outside), and the multiset still
    # counts once
    m = ZxQModel()
    g = build_graph(m, zxq_window(m, [(6, 6), (2, 2), (2,), (3,), (1, 1)]))
    info = window_analysis(g)["6+6x"]
    assert info.escapes and not info.dead
    assert len(info.factorizations) == 1
    assert set(info.factorizations) == {("1+x", "2", "3")}
    assert classify(m, g)["factorization_counts"]["6+6x"] == 1


def test_sub_window_counts_a_multiset_with_no_sorted_path():
    # in <2,3>, 7 -3-> 4 -2-> 2 spells {2, 2, 3}; the sorted path would
    # start 7 -2-> 5, outside the window {2, 4, 7}, so 7 escapes
    m = NumericalMonoidModel((2, 3))
    g = build_graph(m, tuple(m.element(vec(n)) for n in (2, 4, 7)))
    info = window_analysis(g)["7"]
    assert info.escapes and not info.dead
    assert set(info.factorizations) == {("2", "2", "3")}
    assert classify(m, g)["factorization_lengths"]["7"] == (3,)


class TestChainInvariant:
    @pytest.mark.parametrize(
        "model,window",
        [
            (DVRModel(), {"max_exponent": 6}),
            (NumericalMonoidModel((2, 3)), {"max_value": 15}),
            (NumericalMonoidModel((3, 5, 7)), {"max_value": 20}),
            (AntimatterModel(max_den=4), {"max_value": 1}),
            (D2Model(), {"k_max": 3, "j_max": 2}),
        ],
    )
    def test_never_contradicted(self, model, window):
        g = build_graph(model, win(model, **window))
        report = classify(model, g)  # classify asserts the chain internally
        assert set(report["verdicts"]) == {"Atomic", "ACCP", "BFD", "FFD", "HFD"}

    def test_contradicted_chain_raises_under_python_O(self):
        # BFD implies ACCP; the check must survive assert stripping
        proc = run_optimised(
            "from divgraph.graph import _assert_chain\n"
            "from divgraph.verdicts import fails, holds\n"
            "verdicts = {name: holds({}) for name in ('Atomic', 'ACCP', 'BFD', 'FFD', 'HFD')}\n"
            "verdicts['ACCP'] = fails({})\n"
            "_assert_chain(verdicts)\n"
        )
        assert proc.returncode != 0
        assert "verdict chain violated: BFD holds but ACCP fails" in proc.stderr


# -- fractional windows: an atom has an edge to the unit, and a path may end
# at it or go on


@pytest.mark.parametrize("kind", sorted(FRACTIONAL))
def test_check_is_ok_on_fractional_windows(kind):
    m, w = fractional_window(kind)
    g = build_graph(m, w)
    # every atom has an edge, to the unit at least
    atoms = {n for n, v in enumerate(g.vertices) if m.is_atom(v)}
    assert atoms and atoms <= {a for a, _ in g.edges}
    assert crosscheck_graph(g)["ok"]


def test_fractional_dvr_powers_have_their_one_factorization():
    g = build_graph(*fractional_window("dvr"))
    info = window_analysis(g)
    for k in range(1, 5):
        label = "pi" if k == 1 else f"pi^{k}"
        assert set(info[label].factorizations) == {("pi",) * k}, label
    assert not info["1"].factorizations


def test_unsplit_zxq_vertex_with_successors_is_not_asked_whether_atom():
    # (1+x)^2 (1+x+x^2) has degree 4 > the cap, so is_atom cannot split it;
    # its edge to (1+x)(1+x+x^2), an integral non-unit, already says it is
    # no atom
    m = ZxQModel(degree_cap=3)
    rows = [(1, 3, 4, 3, 1), (1, 2, 2, 1), (1, 1), (1, 1, 1)]
    g = build_graph(m, zxq_window(m, rows))
    counts = classify(m, g)["factorization_counts"]
    assert counts == {"1+3x+4x^2+3x^3+x^4": 1, "1+2x+2x^2+x^3": 1, "1+x": 1, "1+x+x^2": 1}


@pytest.mark.parametrize(
    "window, kind",
    [pytest.param(ladder_window, k, id=k) for k in LADDER]
    + [pytest.param(fractional_window, k, id=f"fractional-{k}") for k in FRACTIONAL],
)
def test_topological_order_is_graphlibs(window, kind):
    g = build_graph(*window(kind))
    assert g.edges and topological_order(g) == graphlib_order(g)


def test_topological_order_raises_value_error_on_a_cycle():
    # no window graph has a cycle; a hand-built one is refused, as graphlib
    # refuses it (its CycleError is a ValueError)
    g = DivGraph(None, ("a", "b", "c", "d"), ((0, 1), (1, 2), (2, 0), (3, 0)), (), frozenset())
    with pytest.raises(ValueError, match="cycle"):
        topological_order(g)
    with pytest.raises(graphlib.CycleError):
        graphlib_order(g)
