"""Window graphs, paths, sinks and the path-based classifier."""

from fractions import Fraction

import pytest

from divgraph.graph import (
    build_graph,
    classify,
    cover_edge,
    interval,
    sink_artifacts,
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
from divgraph.values import vec
from divgraph.verdicts import Status


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
        assert {s.label for s in sinks(self.g)} == {"pi"}
        assert sink_artifacts(self.g) == []

    def test_paths_terminate_at_atom(self):
        info = window_analysis(self.g)["pi^10"]
        # one path, pi^10 down to pi, spelling ten factors of pi
        assert info.factorizations == {("pi",) * 10}
        assert not info.escapes
        assert not info.dead

    def test_all_five_hold(self):
        report = classify(self.m, self.g)
        assert all(v.status is Status.HOLDS for v in report.verdicts.values())


class TestAntimatterGraph:
    def setup_method(self):
        self.m = AntimatterModel()
        self.g = build_graph(self.m, win(self.m, max_value=2, max_den=5))

    def test_edgeless(self):
        assert len(self.g.vertices) == 20
        assert self.g.edges == ()

    def test_no_sinks_only_artifacts(self):
        assert sinks(self.g) == set()
        assert len(sink_artifacts(self.g)) == 20

    def test_dead_end_paths(self):
        v = self.g.vertices[0]
        info = window_analysis(self.g)[v.label]
        assert info.dead
        assert not info.escapes
        assert info.factorizations == frozenset()

    def test_atomic_fails(self):
        report = classify(self.m, self.g)
        assert report.verdicts["Atomic"].status is Status.FAILS
        assert report.verdicts["ACCP"].status is Status.FAILS


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
        assert report.verdicts["HFD"].status is Status.FAILS
        assert report.factorization_lengths["6"] == (2, 3)

    def test_topological_order_targets_first(self):
        order = topological_order(self.g)
        pos = {l: i for i, l in enumerate(order)}
        for a, b in self.g.edges:
            assert pos[b.label] < pos[a.label]


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
            if v.symbolic.order >= 1:
                assert v.label in self.g.boundary

    def test_order_zero_closed(self):
        for label in ("2", "3", "4", "6", "1+x", "2+2x"):
            assert label not in self.g.boundary

    def test_paths_escape_from_positive_order(self):
        assert window_analysis(self.g)["x"].escapes

    def test_classification(self):
        report = classify(self.m, self.g)
        assert report.verdicts["Atomic"].status is Status.FAILS
        assert report.verdicts["Atomic"].provenance == "analytic"
        assert report.verdicts["ACCP"].status is Status.INCONCLUSIVE


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
        assert set(report.verdicts) == {"Atomic", "ACCP", "BFD", "FFD", "HFD"}
