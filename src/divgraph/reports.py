"""Deterministic report builders and serializers for the CLI.

Every builder returns plain dict/list/str data; `to_json` renders it with
sorted keys so repeated runs are byte-identical.
"""

from __future__ import annotations

import json

from .connectivity import (
    atom_subgroup,
    component_map,
    is_almost_atomic,
    is_quasi_atomic,
    quotient_of_atomics,
    weak_components,
)
from .errors import WindowTooLarge
from .graph import (
    DivGraph,
    classify,
    sink_artifacts,
    sinks,
    topological_order,
    window_analysis,
)
from .models.base import DivisibilityModel
from .topology import (
    chain_connected,
    connected_components_topology,
    is_T0,
    poset_to_space,
    window_poset,
)
from .verdicts import Status


def to_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def dot_export(graph: DivGraph) -> str:
    """Graphviz rendering; atoms get a double circle, boundary vertices a
    dashed border."""
    lines = ["digraph divisibility {", "  rankdir=TB;"]
    for v in graph.vertices:
        attrs = []
        if graph.model.is_atom(v):
            attrs.append("shape=doublecircle")
        if v.label in graph.boundary:
            attrs.append("style=dashed")
        attr_s = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{v.label}"{attr_s};')
    for a, b in graph.edges:
        lines.append(f'  "{a.label}" -> "{b.label}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_report(graph: DivGraph) -> dict:
    model = graph.model
    return {
        "model": model.id,
        "vertex_count": len(graph.vertices),
        "edge_count": len(graph.edges),
        "vertices": [v.label for v in graph.vertices],
        "edges": [[a.label, b.label] for a, b in graph.edges],
        "boundary": sorted(graph.boundary),
        "sinks": sorted(s.label for s in sinks(graph)),
        "sink_artifacts": sink_artifacts(graph),
        "topological_order": topological_order(graph),
    }


def classify_report(graph: DivGraph) -> dict:
    report = classify(graph.model, graph)
    out = report.to_jsonable()
    out["model"] = graph.model.id
    out["vertex_count"] = len(graph.vertices)
    return out


def components_report(graph: DivGraph) -> dict:
    model = graph.model
    comps = weak_components(graph)
    desc = atom_subgroup(model)
    return {
        "model": model.id,
        "component_count": len(comps),
        "components": [list(c) for c in comps],
        "atom_subgroup": desc.to_jsonable(),
        "coset_labels": {
            v.label: desc.coset_label(model.conn_value(v)) for v in graph.vertices
        },
    }


def topology_report(model: DivisibilityModel, window, pair=None) -> dict:
    """The Alexandrov-space report; with pair = (a, b) it also answers
    whether a and b are chain connected."""
    poset = window_poset(model, window)
    poset.check_axioms()
    space = poset_to_space(poset)
    space.check_basis()
    comps = connected_components_topology(space)
    report = {
        "model": model.id,
        "points": list(poset.elements),
        "strict_relation_size": sum(1 for a, b in poset.relation if a != b),
        "T0": is_T0(space),
        "min_open": {x: sorted(space.min_open[x]) for x in space.points},
        "components": [sorted(c) for c in comps],
    }
    if pair:
        a, b = pair
        report["chain_connected_pair"] = {
            "model": model.id,
            "pair": [a, b],
            "chain_connected": chain_connected(space, a, b),
        }
    return report


def atomicity_report(model: DivisibilityModel, window, search_bound: int = 8) -> dict:
    return {
        "model": model.id,
        "window_size": len(set(window)),
        "AlmostAtomic": is_almost_atomic(model, window, search_bound).to_jsonable(),
        "QuasiAtomic": is_quasi_atomic(model, window).to_jsonable(),
    }


MAX_CHECK_VERTICES = 500


def crosscheck_graph(graph: DivGraph, oracle_bound: int = 12) -> dict:
    """Independent consistency check of a (possibly tampered) graph:

    1. per closed vertex, the path-spelled factorization multisets must agree
       with the brute-force search over the model itself;
    2. the weak components, the topological components, and the
       quotient-of-atomics verdicts must induce the same partition.
    """
    model = graph.model
    if len(graph.vertices) > MAX_CHECK_VERTICES:
        raise WindowTooLarge(
            f"check is exhaustive and limited to {MAX_CHECK_VERTICES} vertices"
        )
    disagreements: list[dict] = []

    info = window_analysis(graph)
    for v in graph.vertices:
        i = info[v.label]
        if i.escapes:
            continue  # the window does not see every path, nothing to compare
        search = model.factorizations(v, oracle_bound)
        oracle = {tuple(sorted(e.label for e in f.atoms)) for f in search.found}
        if search.bound_too_small:
            continue
        if oracle != set(i.factorizations):
            disagreements.append(
                {
                    "kind": "factorization",
                    "vertex": v.label,
                    "path_based": sorted(map(list, i.factorizations)),
                    "oracle": sorted(map(list, oracle)),
                }
            )

    cmap = component_map(graph)
    space = poset_to_space(window_poset(model, graph.vertices))
    topo = connected_components_topology(space)
    topo_map = {x: min(c) for c in topo for x in c}
    if topo_map != cmap:
        disagreements.append(
            {
                "kind": "components",
                "weak_graph": cmap,
                "topology": topo_map,
            }
        )

    # window components must refine the coset partition; on divisor-closed
    # windows the two partitions coincide
    desc = atom_subgroup(model)
    cosets = {v.label: desc.coset_label(model.conn_value(v)) for v in graph.vertices}
    comps = weak_components(graph)
    for comp in comps:
        labels = {cosets[x] for x in comp}
        if len(labels) > 1:
            disagreements.append(
                {
                    "kind": "component_spans_cosets",
                    "component": list(comp),
                    "coset_labels": sorted(labels),
                }
            )

    reps = [graph.by_label(c[0]) for c in comps]
    for rep in reps:
        for v in graph.vertices:
            verdict = quotient_of_atomics(model, v, rep)
            same = cosets[v.label] == cosets[rep.label]
            if verdict.status is Status.INCONCLUSIVE:
                continue
            if same != (verdict.status is Status.HOLDS):
                disagreements.append(
                    {
                        "kind": "quotient_of_atomics",
                        "pair": [v.label, rep.label],
                        "same_coset": same,
                        "verdict": verdict.status.value,
                    }
                )
    return {
        "model": model.id,
        "vertex_count": len(graph.vertices),
        "disagreements": disagreements,
        "ok": not disagreements,
    }
