"""Deterministic report builders and serializers for the CLI.

Every builder returns str-keyed dicts, lists and tuples of str (a `Status`
among them), int, bool and None.  `to_json` writes them as `json.dumps` with
`indent=2, sort_keys=True` does, quoting whole lists of labels or ints in C.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

from .bitrows import select
from .connectivity import (
    atom_subgroup,
    is_almost_atomic,
    is_quasi_atomic,
    quotient_of_atomics,
    weak_components,
)
from .errors import ConfigError, WindowTooLarge
from .graph import DivGraph, classify, sinks, topological_order, window_analysis
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
    """`json.dumps(obj, indent=2, sort_keys=True) + "\\n"` for the types a
    report holds; any other type raises `TypeError`."""
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(obj, nl: str, out: list) -> None:
    """Append the JSON text of `obj` to `out`; `nl` is the newline and
    indent of the line that holds `obj`."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif type(obj) not in (dict, list, tuple):  # not a tuple subclass such as Vec
        raise TypeError(f"{type(obj).__name__} is not a report type")
    elif not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, dict):
        inner = nl + "  "
        lead = "{" + inner
        for k in sorted(obj):
            out += (lead, _quote(k), ": ")
            _write(obj[k], inner, out)
            lead = "," + inner
        out.append(nl + "}")
    else:
        inner = nl + "  "
        sep = "," + inner
        try:  # an escape lengthens the text: one quote of the joined items shows none needs one
            plain = type(obj[0]) is str and len(_quote(text := "".join(obj))) == len(text) + 2
        except TypeError:  # an item after the first is not a str
            plain = False
        if plain:
            out += ("[", inner, '"', ('"' + sep + '"').join(obj), '"', nl, "]")
        elif type(obj[0]) is int and set(map(type, obj)) == {int}:  # json writes bools true/false
            out += ("[", inner, sep.join(map(int.__repr__, obj)), nl, "]")
        else:
            for n, item in enumerate(obj):
                out.append(sep if n else "[" + inner)
                _write(item, inner, out)
            out.append(nl + "]")


def dot_export(graph: DivGraph) -> str:
    """Graphviz rendering; atoms get a double circle, boundary vertices a
    dashed border."""
    lines = ["digraph divisibility {", "  rankdir=TB;"]
    labels = [v.label for v in graph.vertices]
    for n, v in enumerate(graph.vertices):
        attrs = []
        if n in graph.atom_vertices:
            attrs.append("shape=doublecircle")
        if n in graph.boundary:
            attrs.append("style=dashed")
        attr_s = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{v.label}"{attr_s};')
    for a, b in graph.edges:
        lines.append(f'  "{labels[a]}" -> "{labels[b]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_report(graph: DivGraph) -> dict:
    # positions are in label order, so each list comes out sorted
    labels = [v.label for v in graph.vertices]
    atom_sinks, artifacts = sinks(graph)
    return {
        "model": graph.model.id,
        "vertex_count": len(labels),
        "edge_count": len(graph.edges),
        "vertices": labels,
        "edges": [[labels[a], labels[b]] for a, b in graph.edges],
        "boundary": [l for n, l in enumerate(labels) if n in graph.boundary],
        "sinks": [labels[n] for n in atom_sinks],
        "sink_artifacts": [labels[n] for n in artifacts],
        "topological_order": [labels[n] for n in topological_order(graph)],
    }


def classify_report(graph: DivGraph) -> dict:
    report = classify(graph.model, graph)
    # to_json sorts the keys and writes the length tuples as JSON arrays
    report["verdicts"] = {k: v.to_jsonable() for k, v in report["verdicts"].items()}
    return {**report, "model": graph.model.id, "vertex_count": len(graph.vertices)}


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
    unknown = sorted(set(pair or ()) - {e.label for e in window})
    if unknown:
        raise ConfigError(f"pair labels outside the window: {unknown}")
    poset = window_poset(model, window)
    poset.check_axioms()
    space = poset_to_space(poset)
    comps = connected_components_topology(space)
    report = {
        "model": model.id,
        "points": list(poset.elements),
        "strict_relation_size": poset.strict_relation_size,
        "T0": is_T0(space),
        "min_open": space.min_open,
        "components": comps,
    }
    if pair:
        a, b = pair
        report["chain_connected_pair"] = {
            "model": model.id,
            "pair": [a, b],
            "chain_connected": chain_connected(space, a, b, comps),
        }
    return report


def atomicity_report(model: DivisibilityModel, window) -> dict:
    """Almost and quasi atomicity of a window, taken as given (distinct
    elements in label order)."""
    return {
        "model": model.id,
        "window_size": len(window),
        "AlmostAtomic": is_almost_atomic(model, window).to_jsonable(),
        "QuasiAtomic": is_quasi_atomic(model, window).to_jsonable(),
    }


MAX_CHECK_VERTICES = 500


def require_checkable(window) -> None:
    """Refuse a window too large for the exhaustive search of `check`."""
    if len(window) > MAX_CHECK_VERTICES:
        raise WindowTooLarge(f"check is exhaustive and limited to {MAX_CHECK_VERTICES} vertices")


def crosscheck_graph(graph: DivGraph) -> dict:
    """Independent consistency check of a (possibly tampered) graph:

    1. per closed vertex, the path-spelled factorization multisets must agree
       with the brute-force search over the model itself, and the model's
       `is_atomic_element` with whether that search found any (the two are
       compared as atom index tuples, shared subtree by shared subtree, and
       rendered as labels only for a disagreement);
    2. each vertex's reach row (itself and the vertices its paths reach)
       must lie inside its order row, as an edge a -> b has a <= b, and equal
       it where a does not escape, as a chain of edges inside the window then
       links a to each b >= a (a/p is in the window for an atom p with
       a/p >= b, and does not escape either); an `order_row` disagreement
       names the labels in one row only.  A pair a <= b whose a escapes may
       leave the window on every chain, so the window cannot decide it: when
       a and b lie in two weak components, the report lists it as [a, b]
       under `skipped_escaping` (absent when there are none);
    3. each vertex must be a quotient of atomics over the first member of its
       weak component, so the components refine the cosets of the atom
       subgroup (on divisor-closed windows the two partitions coincide).

    The oracle's length bound is the window size: from a vertex that does
    not escape, every node of the search is a distinct window element, so
    no factorization is longer.  Only a graph whose boundary disagrees with
    its model has a vertex whose search the bound cuts; that vertex is not
    compared, and the report lists it under `skipped_oracle_bound` (the
    key is absent when there are none).
    """
    model = graph.model
    require_checkable(graph.vertices)
    disagreements: list[dict] = []
    skipped: list[str] = []

    info = window_analysis(graph)
    for v in graph.vertices:
        i = info[v.label]
        if i.escapes:
            continue  # the window does not see every path, nothing to compare
        search = model.factorizations(v, len(graph.vertices))
        if search.bound_too_small:
            skipped.append(v.label)
            continue
        if not i.factorizations.found_by(search):
            # labels are rendered only here, for the report
            disagreements.append(
                {
                    "kind": "factorization",
                    "vertex": v.label,
                    "path_based": sorted(map(list, i.factorizations)),
                    "oracle": sorted([e.label for e in f.atoms] for f in search.found),
                }
            )
        atomic = model.is_atomic_element(v)
        if atomic != (search.tree is not None):
            disagreements.append(
                {"kind": "atomic_element", "vertex": v.label, "is_atomic_element": atomic}
            )

    comps = weak_components(graph)
    cmap = {label: comp[0] for comp in comps for label in comp}
    labels, rows = window_poset(model, graph.vertices)
    members = dict.fromkeys(cmap.values(), 0)  # each weak component as a bit mask
    for n, label in enumerate(labels):
        members[cmap[label]] |= 1 << n
    undecided: list[list[str]] = []
    for label, row in zip(labels, rows):
        i = info[label]
        extra, missing = i.reach & ~row, 0 if i.escapes else row & ~i.reach
        if i.escapes:
            undecided += ([label, b] for b in select(labels, row & ~members[cmap[label]]))
        if extra or missing:
            only = {"reach_only": select(labels, extra), "order_only": select(labels, missing)}
            disagreements.append({"kind": "order_row", "vertex": label, **only})

    desc = atom_subgroup(model)
    vertex = {v.label: v for v in graph.vertices}
    for v in graph.vertices:
        rep = vertex[cmap[v.label]]
        verdict = quotient_of_atomics(model, v, rep, desc)
        if verdict.status is Status.FAILS:
            pair = [v.label, rep.label]
            disagreements.append({"kind": "component_spans_cosets", "pair": pair, **verdict.evidence})
    report = {
        "model": model.id,
        "vertex_count": len(graph.vertices),
        "disagreements": disagreements,
        "ok": not disagreements,
    }
    if skipped:
        report["skipped_oracle_bound"] = skipped
    if undecided:
        report["skipped_escaping"] = undecided
    return report
