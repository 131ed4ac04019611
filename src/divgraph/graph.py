"""Finite windows of the divisibility graph and the path-based classifier.

Vertices are window elements, named by their position in the window (label
order); there is an edge a -> b exactly when the quotient a/b is an atom,
and the graph keeps that atom with the edge.  A complete path ends at any
atom vertex and spells a factorization one atom per edge, with the terminal
atom contributing the final factor (k edges = k+1 atoms).  The graph
decides once which vertices are integral non-units (`proper`) and which
are atoms (`atom_vertices`); the paths, the sinks, the verdicts and the
`.dot` rendering read that.  In an integral window every vertex is an
integral non-unit and every atom a sink; in a fractional one an atom also
has an edge to the unit, and a path may end at the atom or go on, but a
path through the unit or a non-integral class never completes, so the
verdicts judge the integral non-units only.

The classifier counts the multisets that complete paths spell instead of
listing them.  Atoms are indexed in label order, and a path is canonical
when its atom indices never decrease along it, the terminal atom last.
Every multiset has at most one canonical path, and exactly one when all
paths below its vertex can be sorted inside the window (`_sortable`; true
wherever the window holds every atom quotient of a vertex below, so at
every vertex that does not escape).  There one pass counts the canonical
paths per vertex and smallest atom index allowed.  Below a vertex where a
sorted path can be missing (a zxq vertex whose quotient by one of its atoms
lies outside the window, say) the multisets are listed, as index tuples.
"""

from __future__ import annotations

import graphlib
from bisect import bisect
from collections.abc import Iterator, Set
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_

from .elements import Element
from .models.base import DivisibilityModel, FactorSearch
from .verdicts import Status, Verdict, fails, holds, inconclusive


@dataclass(frozen=True)
class DivGraph:
    """A window graph.  `vertices` are in label order, and the rest names
    them by position: `edges` holds the pairs (a, b) in increasing order,
    which is label order, `atoms` the atom a/b of each edge (never None),
    and `boundary` the vertices with a successor outside the window.
    `proper` and `atom_vertices` are computed on first read, so a report
    that reads neither (components) never asks the model."""

    model: DivisibilityModel
    vertices: tuple[Element, ...]
    edges: tuple[tuple[int, int], ...]
    atoms: tuple[Element, ...]
    boundary: frozenset[int]

    @cached_property
    def proper(self) -> tuple[bool, ...]:
        """For each vertex, whether it is an integral non-unit."""
        model = self.model
        return tuple(model.in_domain(v) and not model.is_unit(v) for v in self.vertices)

    @cached_property
    def atom_vertices(self) -> frozenset[int]:
        """The positions of the atom vertices.  An edge a -> b to an integral
        non-unit b splits a = (a/b) * b, so only the other vertices are
        asked: in an integral window, the sinks."""
        proper = self.proper
        split = {a for a, b in self.edges if proper[b]}
        return frozenset(
            n for n, v in enumerate(self.vertices) if n not in split and self.model.is_atom(v)
        )


def cover_edge(model: DivisibilityModel, a: Element, b: Element) -> bool:
    """Edge predicate: a -> b iff a/b is an atom (so a == b never qualifies)."""
    if a == b:
        return False
    return model.is_atom(model.quotient(a, b))


def build_graph(model: DivisibilityModel, window) -> DivGraph:
    """The graph on a window as `enumerate_window` returns it: distinct
    elements in label order, taken as given."""
    vertices = tuple(window)
    # candidates and probes name values, so the vertices are found by value
    # and no element is hashed
    index = {v.value: n for n, v in enumerate(vertices)}
    edges, atoms = [], []
    for i, a in enumerate(vertices):
        found = {}  # target -> its atom, None where the model left it
        for c, p in model.successor_candidates(a, vertices):
            j = index.get(c)
            if j is not None and j != i and cover_edge(model, a, vertices[j]):
                found[j] = p
        for j, p in sorted(found.items()):
            edges.append((i, j))
            atoms.append(model.quotient(a, vertices[j]) if p is None else p)
    boundary = frozenset(
        n for n, v in enumerate(vertices) if model.boundary_probe(v, index)
    )
    return DivGraph(model, vertices, tuple(edges), tuple(atoms), boundary)


def topological_order(graph: DivGraph) -> list[int]:
    """The vertex positions, every edge target (the divisor) before its
    source; raises graphlib.CycleError if the graph is (impossibly) cyclic."""
    ts = graphlib.TopologicalSorter()
    for n in range(len(graph.vertices)):
        ts.add(n)
    for a, b in graph.edges:
        ts.add(a, b)
    return list(ts.static_order())


def _bits(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of mask, in increasing order."""
    # the "0b" prefix ends the reversed string and holds no "1"
    return tuple([i for i, c in enumerate(reversed(bin(mask))) if c == "1"])


def classes(near: list[int]) -> list[int]:
    """Classes of the equivalence on 0..len(near)-1 generated by i ~ j for
    each bit j of near[i] (a symmetric relation), as bit masks in order of
    their lowest member.  A class grows from its lowest bit, and each near[i]
    is read once, when i joins its class."""
    out = []
    left = (1 << len(near)) - 1
    while left:
        grown = todo = left & -left
        while todo:
            low = todo & -todo
            todo ^= low
            new = near[low.bit_length() - 1] & ~grown
            grown |= new
            todo |= new
        left &= ~grown
        out.append(grown)
    return out


def sinks(graph: DivGraph) -> tuple[list[int], list[int]]:
    """The positions of the vertices without successors, split into the
    atoms and the rest (dead ends of the window, "sink artifacts")."""
    sources = {a for a, _ in graph.edges}
    atoms = graph.atom_vertices
    # an isolated atom still counts as a sink; an atom with an edge to the
    # unit of a fractional window is none
    ends = [n for n in range(len(graph.vertices)) if n not in sources]
    return [n for n in ends if n in atoms], [n for n in ends if n not in atoms]


def _sortable(steps: list[dict[int, int]], term: list[int], v: int) -> bool:
    """Whether each two atoms that a path from v divides off first can swap
    places inside the window: v -a-> y -b-> z with b < a has v -b-> y' -a-> z,
    and v -a-> y with y the terminal atom b < a has v -b-> y' with y' the
    terminal atom a.  When this holds at every vertex below v, sorting the
    atoms of any path from v one swap at a time keeps it a path, so every
    multiset spelled from v has its canonical path."""
    out = steps[v]
    for a, y in out.items():
        t = term[y]
        if 0 <= t < a and ((y2 := out.get(t)) is None or term[y2] != a):
            return False
        for b, z in steps[y].items():
            if b < a and ((y2 := out.get(b)) is None or steps[y2].get(a) != z):
                return False
    return True


class _Paths:
    """The complete paths of a graph, counted in one pass in topological
    order (divisors first).  Vertices are window positions and atoms are
    indexed in label order.  `count[v][f]` is the number of canonical paths
    from v whose atom indices are all >= f (the floor), and `lengths[v][f]`
    has bit n set when one of them spells n atoms.  `spelled` holds, for
    each vertex below which `_sortable` fails somewhere, the spelled
    multisets as sorted index tuples, and their number and length bits
    replace that vertex's `count[v][0]` and `lengths[v][0]`; so those two
    are each vertex's own, and no count at a floor above 0 is read where
    `spelled` holds."""

    def __init__(self, graph: DivGraph):
        vertices, proper = graph.vertices, graph.proper
        terminals = graph.atom_vertices  # every atom vertex is a terminal
        # the distinct atoms in label order, indexed by value
        named = {p.value: p for p in graph.atoms}
        named.update((vertices[n].value, vertices[n]) for n in terminals)
        self.atoms = tuple(sorted(named.values(), key=lambda e: e.label))
        self.index = index = {a.value: i for i, a in enumerate(self.atoms)}
        self.steps = steps = [{} for _ in vertices]  # atom index -> target
        for (a, b), p in zip(graph.edges, graph.atoms):
            steps[a][index[p.value]] = b
        self.term = term = [-1] * len(vertices)  # atom index of a terminal
        for n in terminals:
            term[n] = index[vertices[n].value]

        k = len(self.atoms)
        self.count = count = [[]] * len(vertices)
        self.lengths = lengths = [[]] * len(vertices)
        self.spelled: dict[int, set[tuple[int, ...]]] = {}
        self.escapes = [False] * len(vertices)
        self.dead = [False] * len(vertices)
        self.agreed: set = set()  # (node, vertex, floor) that `found_by` found equal
        boundary = graph.boundary
        # topological_order also asserts acyclicity
        for v in topological_order(graph):
            out, t = steps[v], term[v]
            c, m = [0] * (k + 1), [0] * (k + 1)
            if t >= 0:
                c[t], m[t] = 1, 2
            for i, w in out.items():
                c[i] += count[w][i]
                m[i] |= lengths[w][i] << 1
            for f in range(k - 1, -1, -1):
                c[f] += c[f + 1]
                m[f] |= m[f + 1]
            count[v], lengths[v] = c, m
            self.escapes[v] = v in boundary or any(self.escapes[w] for w in out.values())
            # dead ends are read only at integral non-units and along edges
            # to them: a path through the unit or a non-integral class never
            # completes
            below = [w for w in out.values() if proper[w]]
            if below:
                self.dead[v] = any(self.dead[w] for w in below)
            else:
                self.dead[v] = proper[v] and t < 0 and v not in boundary
            if any(w in self.spelled for w in out.values()) or not _sortable(steps, term, v):
                found = self.spelled[v] = self._spell(v)
                c[0] = len(found)
                m[0] = reduce(or_, (1 << len(fac) for fac in found), 0)

    def _spell(self, v: int) -> set[tuple[int, ...]]:
        """The multisets the paths from v spell, each as a sorted index tuple."""
        t = self.term[v]
        found = {(t,)} if t >= 0 else set()
        for i, w in self.steps[v].items():
            for tail in self.tuples(w):
                j = bisect(tail, i)
                found.add((*tail[:j], i, *tail[j:]))
        return found

    def canonical(self, v: int) -> Iterator[tuple[int, ...]]:
        """The atom index tuples of the canonical paths from v."""
        count, steps, term = self.count, self.steps, self.term

        def moves(u, f):
            # the terminal atom, or the edges whose paths go on to one
            if term[u] >= f:
                yield term[u], None
            for i, w in steps[u].items():
                if i >= f and count[w][i]:
                    yield i, w

        path: list[int] = []  # the atoms taken to the vertex on top of the stack
        stack = [moves(v, 0)]
        while stack:
            move = next(stack[-1], None)
            if move is None:
                stack.pop()
                if path:
                    path.pop()
            elif move[1] is None:
                yield (*path, move[0])
            else:
                path.append(move[0])
                stack.append(moves(move[1], move[0]))

    def tuples(self, v: int):
        """The multisets spelled from v, as sorted index tuples."""
        return self.spelled[v] if v in self.spelled else self.canonical(v)


class _Multisets(Set):
    """The complete atom multisets of one vertex: the len is their count,
    and iteration renders them as sorted label tuples."""

    def __init__(self, paths: _Paths, v: int):
        self.paths, self.v = paths, v

    def __len__(self) -> int:
        return self.paths.count[self.v][0]

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        atoms = self.paths.atoms
        for t in self.paths.tuples(self.v):
            yield tuple(atoms[i].label for i in t)

    def __contains__(self, labels) -> bool:
        return any(labels == t for t in self)

    def found_by(self, search: FactorSearch) -> bool:
        """Whether an oracle search found exactly these multisets."""
        p, v = self.paths, self.v
        # the search's atom indices, as indices into this graph's atoms
        remap = [p.index.get(a.value) for a in search.atoms]
        tree = search.tree
        if v in p.spelled:
            found = () if tree is None else tree.tuples()
            return {tuple(remap[i] for i in t) for t in found} == p.spelled[v]
        if tree is None:
            return not p.count[v][0]
        # the two sets split by first atom: the search's step (i, rest) holds
        # the tuples that start with i, and so does the edge u -i-> w (or u
        # the terminal atom i); equal counts and each part of the search's
        # inside the graph's make the sets equal, part by part
        seen = set()
        todo = [(tree, v, 0)]
        while todo:
            key = todo.pop()
            if key in seen or key in p.agreed:
                continue
            seen.add(key)
            node, u, f = key
            if node.count != p.count[u][f]:
                return False
            for i, rest in node.steps:
                j = remap[i]
                if rest is None:
                    if p.term[u] != j:
                        return False
                elif (w := p.steps[u].get(j)) is None:
                    return False
                else:
                    todo.append((rest, w, j))
        p.agreed |= seen
        return True


@dataclass(frozen=True)
class _VertexInfo:
    factorizations: _Multisets  # complete atom multisets
    lengths: int  # bit n set iff some complete multiset has n atoms
    escapes: bool  # some path can leave the window or is unresolved
    dead: bool  # some path along integral non-units ends at a non-atom with no continuation


def window_analysis(graph: DivGraph) -> dict[str, _VertexInfo]:
    """Per-vertex complete factorizations (counted, see `_Paths`), their
    lengths, and whether a path escapes the window or dead-ends in it."""
    paths = _Paths(graph)
    return {
        v.label: _VertexInfo(
            _Multisets(paths, n), paths.lengths[n][0], paths.escapes[n], paths.dead[n]
        )
        for n, v in enumerate(graph.vertices)
    }


def classify(model: DivisibilityModel, graph: DivGraph) -> dict:
    """The factorization verdicts of a window, with each vertex's sorted
    factorization lengths and its factorization count.  The verdicts judge
    the integral non-units only, so a fractional window gets the verdicts
    of its integral part; no path through the other vertices completes."""
    info = window_analysis(graph)
    lengths = {l: _bits(i.lengths) for l, i in info.items()}
    counts = {l: len(i.factorizations) for l, i in info.items()}
    judged = [v for v, p in zip(graph.vertices, graph.proper) if p]
    dead = sorted(v.label for v in judged if info[v.label].dead)
    open_ = sorted(v.label for v in judged if info[v.label].escapes)
    verdicts: dict[str, Verdict] = {}

    # Atomic is decided per vertex by the model, not from the paths
    witnesses = sorted(v.label for v in judged if not model.is_atomic_element(v))
    if witnesses:
        verdicts["Atomic"] = fails({"non_atomic": witnesses}, "analytic")
    else:
        verdicts["Atomic"] = holds({"atomic_elements": len(judged)}, "analytic")

    def termination_verdict(extra_holds_evidence):
        if dead:
            return fails({"non_terminating_from": dead})
        if open_:
            return inconclusive(
                {"escaping": open_, "reason": "paths escape the window or are unresolved"}
            )
        return holds(extra_holds_evidence)

    verdicts["ACCP"] = termination_verdict({"vertices_closed": len(judged)})
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
    return {
        "verdicts": verdicts,
        "factorization_lengths": lengths,
        "factorization_counts": counts,
    }


_IMPLIES = (("BFD", "ACCP"), ("ACCP", "Atomic"), ("FFD", "BFD"), ("HFD", "BFD"))


def _assert_chain(verdicts: dict[str, Verdict]) -> None:
    for stronger, weaker in _IMPLIES:
        if verdicts[stronger].status is Status.HOLDS and verdicts[weaker].status is Status.FAILS:
            raise AssertionError(f"verdict chain violated: {stronger} holds but {weaker} fails")
