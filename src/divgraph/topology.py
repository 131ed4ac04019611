"""Finite Alexandrov-space view of a divisibility window.

A finite poset and the space of its down-sets determine each other.  Both
are held as bit masks over the points in window order: the poset as one
row per element, the space as one mask per minimal open set (the column of
its point), so the order and basis axioms are checked on bits and the
components are one bitset closure.  Transitivity (on rows) and basis
coherence (on opens) are one block-table closure test,
`bitrows.first_escape`; antisymmetry is read off distinct rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .bitrows import classes, first_escape, select, transpose
from .models.base import DivisibilityModel


@dataclass(frozen=True)
class FinitePoset:
    """A finite order held as bit rows, one per element: bit j of rows[i] is
    set iff elements[i] <= elements[j], reflexive pairs included."""

    elements: tuple
    rows: tuple[int, ...]

    @cached_property
    def relation(self) -> frozenset:
        """The (a, b) pairs with a <= b."""
        elements = self.elements
        return frozenset(
            (a, b) for a, row in zip(elements, self.rows) for b in select(elements, row)
        )

    @property
    def strict_relation_size(self) -> int:
        return sum(row.bit_count() for row in self.rows) - len(self.rows)

    def check_axioms(self) -> None:
        """Reflexivity, transitivity, then antisymmetry as distinct rows: in a
        preorder a <= b <= a exactly when a and b share a row."""
        rows, elements = self.rows, self.elements
        for i, a in enumerate(elements):
            if rows[i] >> len(rows):
                raise AssertionError(f"row of {a!r} names a non-element")
            if not rows[i] >> i & 1:
                raise AssertionError(f"missing reflexive pair for {a!r}")
        if escape := first_escape(rows):
            a, c = elements[escape[0]], elements[escape[2].bit_length() - 1]
            raise AssertionError(f"transitivity violated on {a!r}..{c!r}")
        last = {row: i for i, row in enumerate(rows)}
        for i, row in enumerate(rows):
            if (j := last[row]) != i:
                raise AssertionError(f"antisymmetry violated on {elements[i]!r}, {elements[j]!r}")


@dataclass(frozen=True)
class AlexandrovSpace:
    """A finite space held as its minimal open sets: bit j of opens[i] is
    set iff points[j] lies in the minimal open set U of points[i]."""

    points: tuple
    opens: tuple[int, ...]

    @property
    def min_open(self) -> dict:
        """Read-only view: each point's minimal open set as its points in
        points order, in a new dict on each read."""
        points = self.points
        return {x: select(points, m) for x, m in zip(points, self.opens)}

    def check_basis(self) -> None:
        points, opens = self.points, self.opens
        for i, x in enumerate(points):
            if opens[i] >> len(points):
                raise AssertionError(f"minimal open of {x!r} names a non-point")
            if not opens[i] >> i & 1:
                raise AssertionError(f"{x!r} missing from its own minimal open")
        if escape := first_escape(opens):
            i, j, _ = escape
            raise AssertionError(f"basis coherence violated at {points[i]!r}, {points[j]!r}")


def window_poset(model: DivisibilityModel, window) -> FinitePoset:
    """The factorization order on a window (distinct elements in label
    order, taken as given): a <= b iff a == b or a/b is a (nonempty) product
    of atoms.  The model forms the bit rows (`order_rows`) without testing
    every pair."""
    return FinitePoset(tuple(e.label for e in window), tuple(model.order_rows(window)))


def poset_to_space(p: FinitePoset) -> AlexandrovSpace:
    """The space whose minimal open set U_a is the down-set of a, the column
    of a."""
    return AlexandrovSpace(p.elements, transpose(p.rows))


def is_T0(s: AlexandrovSpace) -> bool:
    return len(set(s.opens)) == len(s.opens)


def chain_connected(s: AlexandrovSpace, a, b, components=None) -> bool:
    """True iff a finite chain of points with pairwise-intersecting
    consecutive minimal opens links a to b.  `components` is the partition
    `connected_components_topology(s)` when the caller already has it."""
    if a not in s.points or b not in s.points:
        raise KeyError("both endpoints must be points of the space")
    if components is None:
        components = connected_components_topology(s)
    return any(a in c and b in c for c in components)


def connected_components_topology(s: AlexandrovSpace) -> list[tuple]:
    """Partition of the points under the chain-connectedness equivalence,
    each class in points order, classes in order of their first point.
    Since x lies in U_x, U_x and U_y meet exactly when both contain some z,
    so linking each x to the points of U_x, and each of those back to x,
    generates the same equivalence as the pairwise test."""
    near = [down | up for down, up in zip(s.opens, transpose(s.opens))]
    return [select(s.points, c) for c in classes(near)]
