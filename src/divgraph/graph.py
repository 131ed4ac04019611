"""Finite windows of the divisibility graph and the path-based classifier.

Vertices are window elements, named by their position in the window (label
order); there is an edge a -> b exactly when the quotient a/b is an atom,
and the graph keeps that atom with the edge.  A complete path ends at any
atom vertex and spells a factorization one atom per edge, with the terminal
atom contributing the final factor (k edges = k+1 atoms).  The graph
decides once which vertices are integral non-units (`proper`), where a
path along them ends (`ends`) and which ends are atoms (`atom_vertices`);
the paths, the sinks, the verdicts and the `.dot` rendering read that.
In a fractional window an atom also has an edge to the unit, and a path
may end at the atom or go on, but a path through the unit or a
non-integral class never completes, so the sinks and the verdicts are
those of the integral part.

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

from bisect import bisect
from collections import namedtuple
from collections.abc import Iterator
from functools import cached_property, reduce
from operator import or_

from .bitrows import bits
from .elements import Element
from .models.base import DivisibilityModel, FactorSearch, _walk
from .verdicts import Status, Verdict, fails, holds, inconclusive


class DivGraph(namedtuple("DivGraph", "model vertices edges atoms boundary")):
    """A window graph.  `vertices` are in label order, and the rest names
    them by position: `edges` holds the pairs (a, b) in increasing order,
    which is label order, `atoms` the atom a/b of each edge (never None),
    and `boundary` the vertices with a successor outside the window.
    `proper`, `ends` and `atom_vertices` are computed on first read, into
    the instance `__dict__`, so a report that reads none of them
    (components) never asks the model."""

    @cached_property
    def proper(self) -> tuple[bool, ...]:
        """For each vertex, whether it is an integral non-unit."""
        model = self.model
        return tuple(model.in_domain(v) and not model.is_unit(v) for v in self.vertices)

    @cached_property
    def ends(self) -> frozenset[int]:
        """The integral non-units without an edge to an integral non-unit: in
        an integral window, the vertices without successors."""
        proper = self.proper
        split = {a for a, b in self.edges if proper[b]}
        return frozenset(n for n, p in enumerate(proper) if p and n not in split)

    @cached_property
    def atom_vertices(self) -> frozenset[int]:
        """The members of `ends` that the model calls atoms.  An atom is an
        integral non-unit, and an edge a -> b to an integral non-unit b splits
        a = (a/b) * b, so no other vertex is one."""
        return frozenset(n for n in self.ends if self.model.is_atom(self.vertices[n]))


def cover_edge(model: DivisibilityModel, a: Element, b: Element) -> bool:
    """Edge predicate: a -> b iff a/b is an atom (so a == b never qualifies)."""
    return a != b and model.is_atom(model.quotient(a, b))


def build_graph(model: DivisibilityModel, window) -> DivGraph:
    """The graph on a window as `enumerate_window` returns it: distinct
    elements in label order, taken as given."""
    vertices = tuple(window)
    # one index per build, which both hooks read; no element is hashed
    index = model.window_index(vertices)
    edges, atoms = [], []
    for i, a in enumerate(vertices):
        # distinct positions, none of them i, so each is tested once
        for j, p in sorted(model.successor_candidates(a, index)):
            if cover_edge(model, a, vertices[j]):
                edges.append((i, j))
                atoms.append(p)
    boundary = frozenset(n for n, v in enumerate(vertices) if model.boundary_probe(v, index))
    return DivGraph(model, vertices, tuple(edges), tuple(atoms), boundary)


def topological_order(graph: DivGraph) -> list[int]:
    """The vertex positions, every edge target (the divisor) before its
    source, in `graphlib.TopologicalSorter.static_order`'s order: a FIFO
    queue of the vertices without targets in position order, then of each
    source once its last target is out, in edge order; ValueError on a cycle."""
    sources, left = [[] for _ in graph.vertices], [0] * len(graph.vertices)
    for a, b in graph.edges:
        sources[b].append(a)
        left[a] += 1  # targets not yet in the order
    order = [n for n, k in enumerate(left) if not k]
    for b in order:  # the list is the queue: appends are read in turn
        for a in sources[b]:
            left[a] -= 1
            if not left[a]:
                order.append(a)
    if len(order) < len(left):
        raise ValueError("the graph has a cycle")
    return order


def sinks(graph: DivGraph) -> tuple[list[int], list[int]]:
    """The positions of the ends (`DivGraph.ends`), split into the atoms and
    the rest (dead ends of the window, "sink artifacts")."""
    atoms, ends = graph.atom_vertices, sorted(graph.ends)
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
    `spelled` holds.  `reach[v]` has bit w set when a path of edges leads
    from v to w, v itself included.  So v is spelled when it reaches a
    spelled vertex, `escapes[v]` holds when it reaches a boundary vertex,
    and `dead[v]` when it reaches an end that is no atom and not on the
    boundary (an edge a -> b has a = p * b for an atom p, so no path leads
    from a unit or a non-integral class to an end)."""

    def __init__(self, graph: DivGraph):
        vertices = graph.vertices
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
        self.reach = reach = [0] * len(vertices)
        self.spelled: dict[int, set[tuple[int, ...]]] = {}
        self.agreed: set = set()  # (node, vertex, floor) that `found_by` found equal
        spelled = 0  # the bits of the vertices in `spelled`
        # topological_order also asserts acyclicity
        for v in topological_order(graph):
            out, t = steps[v], term[v]
            c, m, r = [0] * (k + 1), [0] * (k + 1), 1 << v
            if t >= 0:
                c[t], m[t] = 1, 2
            for i, w in out.items():
                c[i] += count[w][i]
                m[i] |= lengths[w][i] << 1
                r |= reach[w]
            for f in range(k - 1, -1, -1):
                c[f] += c[f + 1]
                m[f] |= m[f + 1]
            count[v], lengths[v], reach[v] = c, m, r
            if r & spelled or not _sortable(steps, term, v):
                spelled |= 1 << v
                found = self.spelled[v] = self._spell(v)
                c[0] = len(found)
                m[0] = reduce(or_, (1 << len(fac) for fac in found), 0)
        boundary = sum(1 << n for n in graph.boundary)
        dead = sum(1 << n for n in graph.ends - terminals - graph.boundary)
        self.escapes = [bool(r & boundary) for r in reach]
        self.dead = [bool(r & dead) for r in reach]

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

        def moves(node):
            # at vertex u, floor f: the terminal atom, or the edges on to one
            u, f = node
            if term[u] >= f:
                yield term[u], None
            for i, w in steps[u].items():
                if i >= f and count[w][i]:
                    yield i, (w, i)

        return _walk((v, 0), moves)

    def tuples(self, v: int):
        """The multisets spelled from v, as sorted index tuples."""
        return self.spelled[v] if v in self.spelled else self.canonical(v)


class _Multisets:
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


class _VertexInfo(namedtuple("_VertexInfo", "factorizations lengths escapes dead reach")):
    """`factorizations`: the complete atom multisets (`_Multisets`);
    `lengths`: bit n set iff some complete multiset has n atoms; `escapes`:
    some path can leave the window or is unresolved; `dead`: some path along
    integral non-units ends at a non-atom with no continuation; `reach`: the
    bit row of the positions its paths reach, its own included, from which
    `_Paths` reads the two before."""

    __slots__ = ()


def window_analysis(graph: DivGraph) -> dict[str, _VertexInfo]:
    """Per-vertex complete factorizations (counted, see `_Paths`), their
    lengths, reach, and whether a path escapes the window or dead-ends in it."""
    p = _Paths(graph)
    return {
        v.label: _VertexInfo(
            _Multisets(p, n), p.lengths[n][0], p.escapes[n], p.dead[n], p.reach[n]
        )
        for n, v in enumerate(graph.vertices)
    }


def classify(model: DivisibilityModel, graph: DivGraph) -> dict:
    """The factorization verdicts of a window, with each vertex's sorted
    factorization lengths and its factorization count.  The verdicts judge
    the integral non-units only, so a fractional window gets the verdicts
    of its integral part; no path through the other vertices completes.
    The vertices are in label order, and so is each list of labels."""
    info = window_analysis(graph)
    lengths = {l: bits(i.lengths) for l, i in info.items()}
    counts = {l: len(i.factorizations) for l, i in info.items()}
    judged = [v for v, p in zip(graph.vertices, graph.proper) if p]
    dead = [v.label for v in judged if info[v.label].dead]
    open_ = [v.label for v in judged if info[v.label].escapes]
    verdicts: dict[str, Verdict] = {}

    # Atomic is decided per vertex by the model, not from the paths
    witnesses = [v.label for v in judged if not model.is_atomic_element(v)]
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

    hfd_witnesses = {l: list(ls) for l, ls in lengths.items() if len(ls) > 1}
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
