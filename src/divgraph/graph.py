"""Finite windows of the divisibility graph and the path-based classifier.

Vertices are window elements; there is an edge a -> b exactly when the
quotient a/b is an atom.  A complete path ends at an atom vertex and spells
a factorization one atom per edge, with the terminal atom contributing the
final factor (k edges = k+1 atoms).
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass, field
from functools import cached_property

from .elements import Element
from .models.base import DivisibilityModel
from .verdicts import Status, Verdict, fails, holds, inconclusive

PROPERTIES = ("Atomic", "ACCP", "BFD", "FFD", "HFD")


@dataclass(frozen=True)
class DivGraph:
    model: DivisibilityModel
    vertices: tuple[Element, ...]
    edges: tuple[tuple[Element, Element], ...]
    boundary: frozenset[str]  # labels of vertices with successors outside

    @cached_property
    def successors(self) -> dict[str, tuple[Element, ...]]:
        # edges are sorted by (source, target), so each tuple is in label order
        out: dict[str, list[Element]] = {v.label: [] for v in self.vertices}
        for a, b in self.edges:
            out[a.label].append(b)
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def _by_label(self) -> dict[str, Element]:
        return {v.label: v for v in self.vertices}

    def by_label(self, label: str) -> Element:
        return self._by_label[label]


@dataclass(frozen=True)
class FactorizationReport:
    verdicts: dict[str, Verdict]
    factorization_lengths: dict[str, tuple[int, ...]] = field(default_factory=dict)
    factorization_counts: dict[str, int] = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "verdicts": {k: v.to_jsonable() for k, v in sorted(self.verdicts.items())},
            "factorization_lengths": {
                k: list(v) for k, v in sorted(self.factorization_lengths.items())
            },
            "factorization_counts": dict(sorted(self.factorization_counts.items())),
        }


def cover_edge(model: DivisibilityModel, a: Element, b: Element) -> bool:
    """Edge predicate: a -> b iff a/b is an atom (so a == b never qualifies)."""
    if a == b:
        return False
    return model.is_atom(model.quotient(a, b))


def build_graph(model: DivisibilityModel, window) -> DivGraph:
    vertices = tuple(sorted(set(window), key=lambda e: e.label))
    window_set = frozenset(vertices)
    edges = []
    for a in vertices:
        for b in vertices:
            if a is not b and cover_edge(model, a, b):
                edges.append((a, b))
    edges.sort(key=lambda ab: (ab[0].label, ab[1].label))
    boundary = frozenset(
        v.label for v in vertices if model.boundary_probe(v, window_set)
    )
    return DivGraph(model, vertices, tuple(edges), boundary)


def topological_order(graph: DivGraph) -> list[str]:
    """Label order with every edge target (the divisor) before its source;
    raises graphlib.CycleError if the graph is (impossibly) cyclic."""
    ts = graphlib.TopologicalSorter()
    for v in graph.vertices:
        ts.add(v.label)
    for a, b in graph.edges:
        ts.add(a.label, b.label)
    return list(ts.static_order())


def partition(points, pairs) -> list[list]:
    """Classes of the equivalence on points generated by pairs (union-find),
    each class in points order, classes in order of their first member."""
    parent = {x: x for x in points}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        parent[find(x)] = find(y)
    groups: dict = {}
    for x in points:
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


def _sink_analysis(graph: DivGraph) -> tuple[set[Element], list[str]]:
    model = graph.model
    succ = graph.successors
    sinks_out: set[Element] = set()
    artifacts: list[str] = []
    for v in graph.vertices:
        if succ[v.label]:
            continue
        # atoms never have out-edges, so every atom lands here; an isolated
        # atom still counts as a sink
        if model.is_atom(v):
            sinks_out.add(v)
        else:
            # structurally a sink but not an atom: a dead end of the window
            artifacts.append(v.label)
    return sinks_out, artifacts


def sinks(graph: DivGraph) -> set[Element]:
    return _sink_analysis(graph)[0]


def sink_artifacts(graph: DivGraph) -> list[str]:
    return sorted(_sink_analysis(graph)[1])


def interval(model: DivisibilityModel, a: Element, b: Element, universe) -> set[Element]:
    """All x in universe with b below x below a in the factorization order
    (a the multiple, b the divisor)."""

    def preceq(x: Element, y: Element) -> bool:
        return x == y or model.is_atomic_element(model.quotient(x, y))

    return {x for x in universe if preceq(a, x) and preceq(x, b)}


@dataclass(frozen=True)
class _VertexInfo:
    factorizations: frozenset[tuple[str, ...]]  # complete atom multisets
    escapes: bool  # some path can leave the window or is unresolved
    dead: bool  # some path ends at a non-atom with no continuation anywhere


def window_analysis(graph: DivGraph) -> dict[str, _VertexInfo]:
    """Per-vertex complete-factorization multisets via dynamic programming
    over the (acyclic) graph."""
    model = graph.model
    succ = graph.successors
    boundary = graph.boundary
    order = topological_order(graph)  # also asserts acyclicity
    info: dict[str, _VertexInfo] = {}
    for label in order:
        v = graph._by_label[label]
        outs = succ[label]
        if not outs:
            if model.is_atom(v):
                info[label] = _VertexInfo(frozenset({(label,)}), label in boundary, False)
            elif label in boundary:
                info[label] = _VertexInfo(frozenset(), True, False)
            else:
                info[label] = _VertexInfo(frozenset(), False, True)
            continue
        facs: set[tuple[str, ...]] = set()
        escapes = label in boundary
        dead = False
        for w in outs:
            step = model.quotient(v, w).label
            child = info[w.label]
            facs.update(tuple(sorted(f + (step,))) for f in child.factorizations)
            escapes = escapes or child.escapes
            dead = dead or child.dead
        info[label] = _VertexInfo(frozenset(facs), escapes, dead)
    return info


def classify(model: DivisibilityModel, graph: DivGraph) -> FactorizationReport:
    info = window_analysis(graph)
    lengths = {
        l: tuple(sorted({len(f) for f in i.factorizations})) for l, i in info.items()
    }
    counts = {l: len(i.factorizations) for l, i in info.items()}
    dead = sorted(l for l, i in info.items() if i.dead)
    open_ = sorted(l for l, i in info.items() if i.escapes)
    verdicts: dict[str, Verdict] = {}

    # Atomic
    if model.value_faithful:
        witnesses = sorted(
            v.label for v in graph.vertices if not model.is_atomic_element(v)
        )
        if witnesses:
            verdicts["Atomic"] = fails({"non_atomic": witnesses}, "analytic")
        else:
            verdicts["Atomic"] = holds(
                {"atomic_elements": len(graph.vertices)}, "analytic"
            )
    else:
        no_fac_closed = sorted(
            l for l, i in info.items() if not i.factorizations and not i.escapes
        )
        no_fac_open = sorted(
            l for l, i in info.items() if not i.factorizations and i.escapes
        )
        if no_fac_closed:
            verdicts["Atomic"] = fails({"non_atomic": no_fac_closed})
        elif no_fac_open:
            verdicts["Atomic"] = inconclusive(
                {"unresolved": no_fac_open, "reason": "paths escape the window"}
            )
        else:
            verdicts["Atomic"] = holds({"atomic_elements": len(graph.vertices)})

    def termination_verdict(extra_holds_evidence):
        if dead:
            return fails({"non_terminating_from": dead})
        if open_:
            return inconclusive(
                {"escaping": open_, "reason": "paths escape the window or are unresolved"}
            )
        return holds(extra_holds_evidence)

    verdicts["ACCP"] = termination_verdict({"vertices_closed": len(graph.vertices)})
    all_lengths = [n for ls in lengths.values() for n in ls]
    verdicts["BFD"] = termination_verdict(
        {"max_factorization_length": max(all_lengths, default=0)}
    )
    verdicts["FFD"] = termination_verdict(
        {"max_factorization_count": max(counts.values(), default=0)}
    )

    hfd_witnesses = {l: list(ls) for l, ls in sorted(lengths.items()) if len(ls) > 1}
    if hfd_witnesses:
        verdicts["HFD"] = fails({"unequal_lengths": hfd_witnesses})
    else:
        verdicts["HFD"] = termination_verdict({"all_lengths_equal": True})

    _assert_chain(verdicts)
    return FactorizationReport(verdicts, lengths, counts)


_IMPLIES = (("BFD", "ACCP"), ("ACCP", "Atomic"), ("FFD", "BFD"), ("HFD", "BFD"))


def _assert_chain(verdicts: dict[str, Verdict]) -> None:
    for stronger, weaker in _IMPLIES:
        if verdicts[stronger].status is Status.HOLDS:
            assert verdicts[weaker].status is not Status.FAILS, (
                f"verdict chain violated: {stronger} holds but {weaker} fails"
            )
