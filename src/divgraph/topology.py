"""Finite Alexandrov-space view of a divisibility window.

A finite poset and the space of its down-sets determine each other, and
both are held as the same bit masks over the points in window order: a
point's closure is its up-set, the poset's row, and its minimal open set,
the down-set, is a column, formed once by one transpose.  One block-table
closure test on the rows, `bitrows.first_escape`, checks the order's
transitivity and the basis alike; antisymmetry is read off distinct rows.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .bitrows import classes, first_escape, select, transpose
from .models.base import DivisibilityModel


class FinitePoset(namedtuple("FinitePoset", "elements rows")):
    """A finite order held as bit rows, one per element: bit j of rows[i] is
    set iff elements[i] <= elements[j], reflexive pairs included."""

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
        """The space's closure test, then antisymmetry as distinct rows: in a
        preorder a <= b <= a exactly when a and b share a row."""
        poset_to_space(self).check_basis()
        rows, elements = self.rows, self.elements
        last = {row: i for i, row in enumerate(rows)}
        for i, row in enumerate(rows):
            if (j := last[row]) != i:
                raise AssertionError(f"antisymmetry violated on {elements[i]!r}, {elements[j]!r}")


class AlexandrovSpace(namedtuple("AlexandrovSpace", "points closures")):
    """A finite space held as its points' closures: bit j of closures[i] is
    set iff points[i] lies in the minimal open set of points[j]."""

    @cached_property
    def opens(self) -> tuple[int, ...]:
        """The minimal open sets, one transpose of the closures."""
        return transpose(self.closures)

    @property
    def min_open(self) -> dict:
        """Read-only view: each point's minimal open set as its points in
        points order, in a new dict on each read."""
        points = self.points
        return {x: select(points, m) for x, m in zip(points, self.opens)}

    def check_basis(self) -> None:
        """Each closure holds its point and the closures of its points.  Checked
        before anything reads `opens`: `transpose` drops bits at non-points."""
        points, closures = self.points, self.closures
        for i, x in enumerate(points):
            if closures[i] >> len(points):
                raise AssertionError(f"closure of {x!r} names a non-element")
            if not closures[i] >> i & 1:
                raise AssertionError(f"{x!r} missing from its own closure")
        if escape := first_escape(closures):
            x, y = points[escape[0]], points[escape[2].bit_length() - 1]
            raise AssertionError(f"basis coherence violated on {x!r}..{y!r}")


def window_poset(model: DivisibilityModel, window) -> FinitePoset:
    """The factorization order on a window (distinct elements in label
    order, taken as given): a <= b iff a == b or a/b is a (nonempty) product
    of atoms.  The model forms the bit rows (`order_rows`) without testing
    every pair."""
    return FinitePoset(tuple(e.label for e in window), tuple(model.order_rows(window)))


def poset_to_space(p: FinitePoset) -> AlexandrovSpace:
    """The space whose minimal open set U_a is the down-set of a, so the
    closure of a is its up-set, the row of a."""
    return AlexandrovSpace(p.elements, p.rows)


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
    near = [down | up for down, up in zip(s.opens, s.closures)]
    return [select(s.points, c) for c in classes(near)]
