"""Window graphs, paths, sinks and the path-based classifier."""

from fractions import Fraction

import pytest

from divgraph.graph import (
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
from divgraph.verdicts import Status
from helpers import interval, run_optimised, vec


def win(model, **bounds):
    return model.enumerate_window(WindowSpec(model.id, bounds))


def zxq_window(model, rows):
    return model.enumerate_window(WindowSpec(model.id, {"elements": rows}))


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
        assert {s.label for s in atom_sinks} == {"pi"}
        assert artifacts == []

    def test_paths_terminate_at_atom(self):
        info = window_analysis(self.g)["pi^10"]
        # one path, pi^10 down to pi, spelling ten factors of pi
        assert info.factorizations == {("pi",) * 10}
        assert not info.escapes
        assert not info.dead

    def test_all_five_hold(self):
        report = classify(self.m, self.g)
        assert all(v.status is Status.HOLDS for v in report["verdicts"].values())


class TestAntimatterGraph:
    def setup_method(self):
        self.m = AntimatterModel()
        self.g = build_graph(self.m, win(self.m, max_value=2, max_den=5))

    def test_edgeless(self):
        assert len(self.g.vertices) == 20
        assert self.g.edges == ()

    def test_no_sinks_only_artifacts(self):
        atom_sinks, artifacts = sinks(self.g)
        assert atom_sinks == set()
        assert len(artifacts) == 20

    def test_dead_end_paths(self):
        v = self.g.vertices[0]
        info = window_analysis(self.g)[v.label]
        assert info.dead
        assert not info.escapes
        assert info.factorizations == frozenset()

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
        pos = {l: i for i, l in enumerate(order)}
        for a, b in self.g.edges:
            assert pos[b.label] < pos[a.label]

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
        assert set(g.edges) <= set(calls) and len(g.edges) == 2 * 199 - 5


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
        for v in self.g.vertices:
            if v.value.order >= 1:
                assert v.label in self.g.boundary

    def test_order_zero_closed(self):
        for label in ("2", "3", "4", "6", "1+x", "2+2x"):
            assert label not in self.g.boundary

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
            (AntimatterModel(), {"max_value": 1, "max_den": 4}),
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
