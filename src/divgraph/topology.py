"""Finite Alexandrov-space view of a divisibility window.

A finite poset and the space of its down-sets determine each other.  The
space is built extensionally (minimal open sets stored as explicit point
sets), so the basis axioms are directly checkable.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        # one bit row per element: bit j of rows[i] is set iff
        # elements[i] <= elements[j]; cols is the transpose
        index = {a: i for i, a in enumerate(self.elements)}
        rows = [0] * len(self.elements)
        cols = [0] * len(self.elements)
        for a, b in self.relation:
            if a not in index or b not in index:
                raise AssertionError(f"pair {a!r}, {b!r} names a non-element")
            i, j = index[a], index[b]
            rows[i] |= 1 << j
            cols[j] |= 1 << i
        for i, a in enumerate(self.elements):
            if not rows[i] >> i & 1:
                raise AssertionError(f"missing reflexive pair for {a!r}")
        for i, a in enumerate(self.elements):
            both = rows[i] & cols[i] & ~(1 << i)
            if both:
                b = self.elements[both.bit_length() - 1]
                raise AssertionError(f"antisymmetry violated on {a!r}, {b!r}")
        for i, a in enumerate(self.elements):
            for j in _bits(rows[i]):
                beyond = rows[j] & ~rows[i]
                if beyond:
                    c = self.elements[beyond.bit_length() - 1]
                    raise AssertionError(f"transitivity violated on {a!r}..{c!r}")


def _bits(row: int):
    """Indices of the set bits of row, lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


@dataclass(frozen=True)
class AlexandrovSpace:
    points: tuple
    min_open: dict  # point -> frozenset of points

    def check_basis(self) -> None:
        for x in self.points:
            if x not in self.min_open[x]:
                raise AssertionError(f"{x!r} missing from its own minimal open")
            for y in self.min_open[x]:
                if not self.min_open[y] <= self.min_open[x]:
                    raise AssertionError(f"basis coherence violated at {x!r}, {y!r}")


def window_poset(model: DivisibilityModel, window) -> FinitePoset:
    """The factorization order on a window (distinct elements in label
    order, taken as given): a <= b iff a == b or a/b is a (nonempty) product
    of atoms."""
    rel = set()
    for a in window:
        for b in window:
            if a is b or model.is_atomic_element(model.quotient(a, b)):
                rel.add((a.label, b.label))
    return FinitePoset(tuple(e.label for e in window), frozenset(rel))


def poset_to_space(p: FinitePoset) -> AlexandrovSpace:
    min_open = {
        a: frozenset(x for x in p.elements if p.leq(x, a)) for a in p.elements
    }
    return AlexandrovSpace(tuple(p.elements), min_open)


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
