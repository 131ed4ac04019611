"""Finite Alexandrov-space view of a divisibility window.

A finite poset and the space of its down-sets determine each other; both
directions are implemented extensionally (minimal open sets stored as
explicit point sets) so the round trip and the basis axioms are directly
checkable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotT0
from .graph import partition
from .models.base import DivisibilityModel


@dataclass(frozen=True)
class FinitePoset:
    elements: tuple
    # all (a, b) pairs with a <= b, reflexive pairs included
    relation: frozenset

    def leq(self, a, b) -> bool:
        return (a, b) in self.relation

    def check_axioms(self) -> None:
        rel = self.relation
        for a in self.elements:
            assert (a, a) in rel, f"missing reflexive pair for {a!r}"
        for a, b in rel:
            if a != b:
                assert (b, a) not in rel, f"antisymmetry violated on {a!r}, {b!r}"
        for a, b in rel:
            for c in self.elements:
                if (b, c) in rel:
                    assert (a, c) in rel, f"transitivity violated on {a!r}..{c!r}"


@dataclass(frozen=True)
class AlexandrovSpace:
    points: tuple
    min_open: dict  # point -> frozenset of points

    def check_basis(self) -> None:
        for x in self.points:
            assert x in self.min_open[x], f"{x!r} missing from its own minimal open"
            for y in self.min_open[x]:
                assert self.min_open[y] <= self.min_open[x], (
                    f"basis coherence violated at {x!r}, {y!r}"
                )


def window_poset(model: DivisibilityModel, window) -> FinitePoset:
    """The factorization order on a window: a <= b iff a == b or a/b is a
    (nonempty) product of atoms."""
    elems = tuple(sorted(set(window), key=lambda e: e.label))
    rel = set()
    for a in elems:
        for b in elems:
            if a == b or model.is_atomic_element(model.quotient(a, b)):
                rel.add((a.label, b.label))
    return FinitePoset(tuple(e.label for e in elems), frozenset(rel))


def poset_to_space(p: FinitePoset) -> AlexandrovSpace:
    min_open = {
        a: frozenset(x for x in p.elements if p.leq(x, a)) for a in p.elements
    }
    return AlexandrovSpace(tuple(p.elements), min_open)


def space_to_poset(s: AlexandrovSpace) -> FinitePoset:
    if not is_T0(s):
        raise NotT0("two points share a minimal open set")
    rel = frozenset(
        (a, b) for b in s.points for a in s.min_open[b]
    )
    return FinitePoset(tuple(s.points), rel)


def is_T0(s: AlexandrovSpace) -> bool:
    seen = {}
    for x in s.points:
        key = s.min_open[x]
        if key in seen:
            return False
        seen[key] = x
    return True


def chain_connected(s: AlexandrovSpace, a, b) -> bool:
    """True iff a finite chain of points with pairwise-intersecting
    consecutive minimal opens links a to b."""
    if a not in s.min_open or b not in s.min_open:
        raise KeyError("both endpoints must be points of the space")
    return any(a in c and b in c for c in connected_components_topology(s))


def connected_components_topology(s: AlexandrovSpace) -> list[frozenset]:
    """Partition of the points under the chain-connectedness equivalence,
    deterministically ordered by smallest member.  Since x lies in U_x,
    U_x and U_y meet exactly when both contain some z, so linking each x to
    the points of U_x generates the same equivalence as the pairwise test."""
    groups = partition(s.points, ((x, y) for x in s.points for y in s.min_open[x]))
    return sorted((frozenset(g) for g in groups), key=lambda g: min(map(str, g)))
