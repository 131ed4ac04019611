"""Reference constructions and shared fixtures that only the tests read.

Each construction restates a definition directly so the tests can compare
the package's answers against it.
"""

import graphlib
import heapq
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd, inf
from pathlib import Path

from divgraph.config import load_config
from divgraph.graph import cover_edge
from divgraph.models import (
    AntimatterModel,
    D1Model,
    D2Model,
    DVRModel,
    NumericalMonoidModel,
    ValueModel,
)
from divgraph.models.base import WindowSpec
from divgraph.topology import FinitePoset, is_T0
from divgraph.values import Ambient, Vec

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# the model kinds of `ladder_window`
LADDER = ("d2", "numerical", "d1", "zxq")


def ladder_window(kind):
    """A small window of each model kind, as (model, window); zxq is the
    bundled one."""
    if kind == "zxq":
        m, spec = load_config(CONFIG_DIR / "zxq_orders.cfg").build()
        return m, m.enumerate_window(spec)
    m, bounds = {
        "d2": (D2Model(), {"k_max": 6, "j_max": 5}),
        "numerical": (NumericalMonoidModel((2, 3)), {"max_value": 30}),
        "d1": (D1Model(den_max=2), {"k_max": 2, "alpha_max": 2}),
    }[kind]
    return m, m.enumerate_window(WindowSpec(bounds))


# the model kinds of `fractional_window`, with their bounds
FRACTIONAL = {
    "dvr": (DVRModel(), {"max_exponent": 4}),
    "numerical": (NumericalMonoidModel((4, 6)), {"max_value": 12}),
    "d2": (D2Model(), {"k_max": 2, "j_max": 2}),
    "d1": (D1Model(den_max=1), {"k_max": 1, "alpha_max": 1}),
}


def fractional_window(kind):
    """A small fractional window of each value model kind, as (model,
    window): every atom has an edge to the unit there."""
    m, bounds = FRACTIONAL[kind]
    return m, m.enumerate_window(WindowSpec(bounds, include_fractional=True))


def all_pairs_edges(model, window) -> tuple:
    """The edge set by its definition: every pair (i, j) of window positions
    with window[i]/window[j] an atom (so i != j), in increasing order."""
    return tuple(
        (i, j)
        for i, a in enumerate(window)
        for j, b in enumerate(window)
        if cover_edge(model, a, b)
    )


def graphlib_order(graph) -> list[int]:
    """The oracle order: `graphlib`'s static order with every vertex added
    first, in position order, then each edge a -> b as "b before a"."""
    ts = graphlib.TopologicalSorter()
    for n in range(len(graph.vertices)):
        ts.add(n)
    for a, b in graph.edges:
        ts.add(a, b)
    return list(ts.static_order())


def spelled_multisets(graph) -> dict:
    """The atom multisets that the complete paths from each vertex spell, by
    their definition: every path followed to every atom vertex on it (a
    path may end at any atom), its edge quotients and terminal atom
    collected and sorted as labels, per vertex label."""
    model, vertices = graph.model, graph.vertices
    succ = [[] for _ in vertices]
    for a, b in graph.edges:
        succ[a].append(b)
    memo = {}

    def spelled(n):
        if n not in memo:
            v = vertices[n]
            memo[n] = {(v.label,)} if model.is_atom(v) else set()
            memo[n] |= {
                tuple(sorted(f + (model.quotient(v, vertices[w]).label,)))
                for w in succ[n]
                for f in spelled(w)
            }
        return memo[n]

    return {v.label: spelled(n) for n, v in enumerate(vertices)}


def all_pairs_order(model, window) -> tuple:
    """The factorization order by its definition, as bit rows in window
    order: bit j of row i is set iff window[i] is window[j] or
    window[i]/window[j] is a (nonempty) product of atoms."""
    return tuple(
        sum(
            1 << j
            for j, b in enumerate(window)
            if a is b or model.is_atomic_element(model.quotient(a, b))
        )
        for a in window
    )


def apery(gens) -> list:
    """The Apery set of the numerical monoid that coprime `gens` generate,
    with respect to its smallest generator m: w[r] is its smallest member
    congruent to r mod m, found by Dijkstra on the residues mod m, a step of
    weight g for each generator g (Nijenhuis 1979).  Then n is a member iff
    n >= w[n mod m]."""
    m = min(gens)
    w = [0] + [inf] * (m - 1)
    heap = [(0, 0)]
    while heap:
        n, r = heapq.heappop(heap)
        if n > w[r]:
            continue
        for g in gens:
            s = (r + g) % m
            if n + g < w[s]:
                w[s] = n + g
                heapq.heappush(heap, (n + g, s))
    return w


def order_from_values(model, window) -> tuple:
    """The factorization order of a value-model window from the element
    values alone, as bit rows in window order: bit j of row i is set iff
    i == j, or the values of window[i] and window[j] have equal rational
    parts and their difference d is a nonzero member of the value monoid.
    It asks the model nothing but its class and generators."""
    if isinstance(model, NumericalMonoidModel):
        g = gcd(*model.generators)
        w = apery([h // g for h in model.generators])

        def member(d):  # d > 0, g | d, and d/g in the monoid divided by g
            return d[0] > 0 and d[0] % g == 0 and d[0] // g >= w[d[0] // g % len(w)]

    elif isinstance(model, D2Model):

        def member(d):
            return min(d) >= 0 and max(d) > 0

    elif isinstance(model, (DVRModel, D1Model)):

        def member(d):
            return d[0] >= 1

    else:
        assert isinstance(model, AntimatterModel), model.id

        def member(d):  # no atoms, so only the diagonal
            return False

    return tuple(
        sum(
            1 << j
            for j, b in enumerate(window)
            if a is b
            or a.value.rat == b.value.rat
            and member([x - y for x, y in zip(a.value.ints, b.value.ints)])
        )
        for a in window
    )


def interval(model, a, b, universe) -> set:
    """All x in universe with b below x below a in the factorization order
    (a the multiple, b the divisor)."""

    def preceq(x, y) -> bool:
        return x == y or model.is_atomic_element(model.quotient(x, y))

    return {x for x in universe if preceq(a, x) and preceq(x, b)}


def poset_from_pairs(elements, pairs) -> FinitePoset:
    """The order whose (a, b) pairs, a <= b, are exactly `pairs`."""
    elements = tuple(elements)
    index = {a: i for i, a in enumerate(elements)}
    rows = [0] * len(elements)
    for a, b in pairs:
        if a not in index or b not in index:
            raise AssertionError(f"pair {a!r}, {b!r} names a non-element")
        rows[index[a]] |= 1 << index[b]
    return FinitePoset(elements, tuple(rows))


def space_to_poset(s) -> FinitePoset:
    """The specialisation order of a T0 Alexandrov space: a <= b iff a lies
    in the minimal open set of b (bit i of the mask of b)."""
    if not is_T0(s):
        raise ValueError("two points share a minimal open set")
    rel = frozenset(
        (a, b)
        for b, mask in zip(s.points, s.opens)
        for i, a in enumerate(s.points)
        if mask >> i & 1
    )
    return poset_from_pairs(s.points, rel)


def prime_witness_check_zxq(model, window) -> dict:
    """Over a zxq window: every atom has order 0 at x = 0 and every element
    of positive order is a non-atom, exhibiting a prime ideal without
    irreducible elements."""
    elems = sorted(set(window), key=lambda e: e.label)
    atoms = [e.label for e in elems if model.is_atom(e)]
    ideal = [e.label for e in elems if e.value.order >= 1]
    bad_atoms = [e.label for e in elems if model.is_atom(e) and e.value.order >= 1]
    return {
        "atoms": atoms,
        "ideal_members": ideal,
        "ideal_atoms": bad_atoms,
        "holds": not bad_atoms,
    }


def run_optimised(code: str) -> subprocess.CompletedProcess:
    """Run code under `python -O`, where assert statements are stripped, with
    this checkout's package first on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def vec(*ints, rat=0, on=Ambient(0)) -> Vec:
    """The value with integer coordinates `ints` and the exact rational part
    `rat`, held as its count of steps of 1/grid: on the grid of the value
    model or `Ambient` `on` (grid 1 by default), by `Ambient.value`, which
    refuses an off-grid rat."""
    return (on.ambient if isinstance(on, ValueModel) else on).value(ints, rat)


def zero(ambient) -> Vec:
    """The zero value of `ambient`."""
    return Vec((0,) * ambient.dim)


def element_of_label(model, label):
    """The element of a shipped value model that a canonical label names:
    the inverse of `label_for`, checked by rendering the label back."""
    unit = model.element(zero(model.ambient))
    if label == unit.label:
        return unit
    if isinstance(model, NumericalMonoidModel):
        return model.element(Vec((int(label),)))
    # num/den, where the split is the first "/" outside parentheses
    depth, cut = 0, len(label)
    for i, ch in enumerate(label):
        depth += (ch == "(") - (ch == ")")
        if ch == "/" and depth == 0:
            cut = i
            break
    exps = {"pi": 0, "y": 0, "x": Fraction(0)}
    for sign, part in ((1, label[:cut]), (-1, label[cut + 1 :])):
        if part.startswith("(") and part.endswith(")"):
            part = part[1:-1]
        for tok in part.split("*") if part and part != "1" else ():
            sym, _, exp = tok.partition("^")
            exps[sym] += sign * (Fraction(exp.strip("()")) if exp else 1)
    value = {
        "dvr": Vec((int(exps["pi"]),)),
        "d1": vec(int(exps["y"]), rat=exps["x"], on=model),
        "d2": Vec((int(exps["y"]), int(exps["x"]))),
    }[model.id]
    e = model.element(value)
    assert e.label == label, (label, e.label)
    return e
