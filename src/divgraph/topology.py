"""Finite Alexandrov-space view of a divisibility window.

A finite poset and the space of its down-sets determine each other.  Both
are held as bit masks over the points in window order: the poset as one
row per element, the space as one mask per minimal open set (the column of
its point), so the order and basis axioms are checked on bits and the
components are one bitset closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graph import _bits, classes
from .models.base import DivisibilityModel


@dataclass(frozen=True)
class FinitePoset:
    """A finite order held as bit rows, one per element: bit j of rows[i] is
    set iff elements[i] <= elements[j], reflexive pairs included."""

    elements: tuple
    rows: tuple[int, ...]

    @cached_property
    def cols(self) -> tuple[int, ...]:
        """The transposed rows: bit i of cols[j] is set iff
        elements[i] <= elements[j]."""
        return _transpose(self.rows)

    @cached_property
    def relation(self) -> frozenset:
        """The (a, b) pairs with a <= b."""
        elements = self.elements
        return frozenset(
            (a, elements[j]) for a, row in zip(elements, self.rows) for j in _bits(row)
        )

    @property
    def strict_relation_size(self) -> int:
        return sum(row.bit_count() for row in self.rows) - len(self.rows)

    def check_axioms(self) -> None:
        rows, n = self.rows, len(self.rows)
        for i, a in enumerate(self.elements):
            if rows[i] >> n:
                raise AssertionError(f"row of {a!r} names a non-element")
            if not rows[i] >> i & 1:
                raise AssertionError(f"missing reflexive pair for {a!r}")
        cols = self.cols
        for i, a in enumerate(self.elements):
            both = rows[i] & cols[i] & ~(1 << i)
            if both:
                b = self.elements[both.bit_length() - 1]
                raise AssertionError(f"antisymmetry violated on {a!r}, {b!r}")
        for i, a in enumerate(self.elements):
            outside = ~rows[i]
            for j in _bits(rows[i]):
                beyond = rows[j] & outside
                if beyond:
                    c = self.elements[beyond.bit_length() - 1]
                    raise AssertionError(f"transitivity violated on {a!r}..{c!r}")


def _transpose(masks) -> tuple[int, ...]:
    """The transposed bit matrix: bit i of the j-th mask returned is bit j
    of masks[i]."""
    n = len(masks)
    # character j of a padded, reversed binary string is bit j, so zip
    # turns the strings of the masks into those of the transposed ones
    strings = [format(mask, f"0{n}b")[::-1] for mask in masks]
    return tuple(int("".join(col)[::-1], 2) for col in zip(*strings))


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
        return {x: tuple(points[j] for j in _bits(m)) for x, m in zip(points, self.opens)}

    def check_basis(self) -> None:
        opens = self.opens
        for i, x in enumerate(self.points):
            if not opens[i] >> i & 1:
                raise AssertionError(f"{x!r} missing from its own minimal open")
            outside = ~opens[i]
            for j in _bits(opens[i]):
                if opens[j] & outside:
                    raise AssertionError(f"basis coherence violated at {x!r}, {self.points[j]!r}")


def window_poset(model: DivisibilityModel, window) -> FinitePoset:
    """The factorization order on a window (distinct elements in label
    order, taken as given): a <= b iff a == b or a/b is a (nonempty) product
    of atoms.  The model forms the bit rows (`order_rows`) without testing
    every pair."""
    return FinitePoset(tuple(e.label for e in window), tuple(model.order_rows(window)))


def poset_to_space(p: FinitePoset) -> AlexandrovSpace:
    """The space whose minimal open set U_a is the down-set of a, the column
    of a."""
    return AlexandrovSpace(p.elements, p.cols)


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
    near = [down | up for down, up in zip(s.opens, _transpose(s.opens))]
    return [tuple(s.points[i] for i in _bits(c)) for c in classes(near)]
