"""Output checks that the benchmark derives without the divgraph package.

`expected_facts` computes, from a generated config's parameters alone, the
numbers a correct report must contain: vertex and edge counts from a
membership DP, factorization counts and length sets, the poset's relation
size and component counts.  `check_output` compares one op's stdout with
them and returns the reason it fails, or None.
"""

from __future__ import annotations

import json
from fractions import Fraction

from gen import Config, Op, monoid_members, positive_fractions, zxq_below


def _components(vertices, pairs) -> int:
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return len({find(v) for v in vertices})


def _numerical_facts(gens, max_value: int) -> dict:
    member = monoid_members(gens, max_value)
    window = [n for n in range(1, max_value + 1) if member[n]]
    in_window = set(window)
    # atoms: members with no split into two nonzero members
    atoms = [g for g in sorted(set(gens))
             if not any(member[h] and member[g - h] for h in range(1, g))]
    edges = [(a, a - p) for a in window for p in atoms if a - p in in_window]
    # strict factorization order: a above b iff a - b is a nonzero member
    relation = [(a, b) for a in window for b in window if a > b and member[a - b]]
    lengths = [set() for _ in range(max_value + 1)]
    lengths[0] = {0}
    ways = [1] + [0] * max_value
    for p in atoms:
        for n in range(p, max_value + 1):
            ways[n] += ways[n - p]
    for n in range(1, max_value + 1):
        for p in atoms:
            if p <= n:
                lengths[n] |= {k + 1 for k in lengths[n - p]}
    return {
        "model": "numerical-monoid<" + ",".join(map(str, sorted(set(gens)))) + ">",
        "vertex_count": len(window),
        "edge_count": len(edges),
        "components": _components(window, edges),
        "strict_relation_size": len(relation),
        "topology_components": _components(window, relation),
        "factorization_counts": {str(n): ways[n] for n in window},
        "factorization_lengths": {str(n): sorted(lengths[n]) for n in window},
        "hfd_fails": any(len(lengths[n]) > 1 for n in window),
        "all_atomic": True,
    }


def _rank_two_facts(model: str, window, atoms, atomic) -> dict:
    in_window = set(window)
    edges = [(a, (a[0] - p[0], a[1] - p[1])) for a in window for p in atoms
             if (a[0] - p[0], a[1] - p[1]) in in_window]
    relation = [(a, b) for a in window for b in window
                if a != b and atomic((a[0] - b[0], a[1] - b[1]))]
    return {
        "model": model,
        "vertex_count": len(window),
        "edge_count": len(edges),
        "components": _components(window, edges),
        "strict_relation_size": len(relation),
        "topology_components": _components(window, relation),
    }


def _d2_facts(k_max: int, j_max: int) -> dict:
    def member(k, j):
        return k >= 2 or (k >= 0 and j >= 0)

    window = [(k, j) for k in range(k_max + 1) for j in range(-j_max, j_max + 1)
              if member(k, j) and (k, j) != (0, 0)]
    return _rank_two_facts("d2", window, [(1, 0), (0, 1)],
                           lambda v: v[0] >= 0 and v[1] >= 0 and v != (0, 0))


def _d1_facts(k_max: int, den_max: int, alpha_max: int) -> dict:
    pos = positive_fractions(alpha_max, den_max)
    alphas = [-q for q in pos] + [Fraction(0)] + pos

    def member(k, a):
        return k >= 2 or (k >= 0 and a >= 0)

    window = [(k, a) for k in range(k_max + 1) for a in alphas
              if member(k, a) and (k, a) != (0, 0)]
    return _rank_two_facts("d1", window, [(1, Fraction(0))],
                           lambda v: v[1] == 0 and v[0] >= 1)


def _zxq_facts(window) -> dict:
    # elements are (order at x = 0, sorted atom factors); a -> b is an edge
    # iff a/b is one atom, and a >= b iff a/b is a nonempty atom product
    in_window = set(window)
    edges = []
    for a in window:
        for f in sorted(set(a[1]), key=repr):
            rest = list(a[1])
            rest.remove(f)
            b = (a[0], tuple(rest))
            if b in in_window:
                edges.append((a, b))
    relation = [(a, b) for a in window for b in window if zxq_below(a, b)]
    return {
        "model": "zxq",
        "vertex_count": len(window),
        "edge_count": len(edges),
        "components": _components(window, edges),
        "strict_relation_size": len(relation),
        "topology_components": _components(window, relation),
    }


def expected_facts(cfg: Config) -> dict:
    p = cfg.params
    if cfg.kind == "numerical-monoid":
        return _numerical_facts(p["generators"], p["max_value"])
    if cfg.kind == "d2":
        return _d2_facts(p["k_max"], p["j_max"])
    if cfg.kind == "d1":
        return _d1_facts(p["k_max"], p["den_max"], p["alpha_max"])
    return _zxq_facts(p["elements"])


def split_stdout(text: str) -> tuple[dict, str]:
    """The JSON report and, for `graph --dot`, the Graphviz text after it."""
    report, end = json.JSONDecoder().raw_decode(text)
    rest = text[end:].lstrip("\n")
    if not isinstance(report, dict):
        raise ValueError("report is not a JSON object")
    return report, rest


def _mismatch(name, got, want) -> str | None:
    return None if got == want else f"{name}: got {got!r}, expected {want!r}"


def check_output(op: Op, text: str, facts: dict) -> str | None:
    """Reason the op's stdout is wrong, or None when every invariant holds."""
    try:
        report, rest = split_stdout(text)
    except ValueError as exc:
        return f"stdout is not valid JSON: {exc}"
    try:
        problems = _problems(op, report, rest, facts)
    except (AttributeError, TypeError) as exc:
        return f"report has an unexpected shape: {exc}"
    problems = [p for p in problems if p]
    return "; ".join(problems) if problems else None


def _problems(op: Op, report: dict, rest: str, facts: dict) -> list:
    problems = [_mismatch("model", report.get("model"), facts["model"])]
    if op.command == "graph":
        if not rest.startswith("digraph divisibility {") or not rest.endswith("}\n"):
            problems.append("--dot output missing after the JSON report")
        problems.append(_mismatch("dot edges", rest.count(" -> "), report.get("edge_count")))
    elif rest:
        problems.append("unexpected text after the JSON report")
    n = facts["vertex_count"]
    if op.command in ("graph", "classify", "check"):
        problems.append(_mismatch("vertex_count", report.get("vertex_count"), n))
    if op.command == "graph":
        problems.append(_mismatch("edge_count", report.get("edge_count"), facts["edge_count"]))
    if op.command == "check":
        problems.append(_mismatch("ok", report.get("ok"), True))
    if op.command == "topology":
        problems.append(_mismatch("T0", report.get("T0"), True))
        problems.append(_mismatch("points", len(report.get("points", ())), n))
        problems.append(_mismatch("strict_relation_size", report.get("strict_relation_size"),
                                  facts["strict_relation_size"]))
        problems.append(_mismatch("topology components", len(report.get("components", ())),
                                  facts["topology_components"]))
    if op.command == "components":
        problems.append(_mismatch("component_count", report.get("component_count"),
                                  facts["components"]))
    if op.command == "atomicity":
        problems.append(_mismatch("window_size", report.get("window_size"), n))
        if facts.get("all_atomic"):
            for prop in ("AlmostAtomic", "QuasiAtomic"):
                problems.append(_mismatch(prop, report.get(prop, {}).get("status"), "Holds"))
    if op.command == "classify" and "factorization_counts" in facts:
        problems.append(_mismatch("factorization_counts", report.get("factorization_counts"),
                                  facts["factorization_counts"]))
        problems.append(_mismatch("factorization_lengths", report.get("factorization_lengths"),
                                  facts["factorization_lengths"]))
        verdicts = report.get("verdicts", {})
        # closed numerical windows: every element factors, finitely often
        for prop in ("Atomic", "ACCP", "BFD", "FFD"):
            problems.append(_mismatch(prop, verdicts.get(prop, {}).get("status"), "Holds"))
        hfd = "Fails" if facts["hfd_fails"] else "Holds"
        problems.append(_mismatch("HFD", verdicts.get("HFD", {}).get("status"), hfd))
    return problems
