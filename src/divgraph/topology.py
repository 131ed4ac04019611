"""Finite Alexandrov-space view of a divisibility window.

A finite poset and the space of its down-sets determine each other.  The
poset is held as bit rows, one per element; the space is built
extensionally (minimal open sets stored as explicit point sets), so the
basis axioms are directly checkable.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from functools import cached_property

from .graph import partition
from .models.base import DivisibilityModel


@dataclass(frozen=True)
class FinitePoset:
    """A finite order held as bit rows, one per element: bit j of rows[i] is
    set iff elements[i] <= elements[j], reflexive pairs included."""

    elements: tuple
    rows: tuple[int, ...]

    @classmethod
    def from_pairs(cls, elements, pairs) -> FinitePoset:
        """The order whose (a, b) pairs, a <= b, are exactly `pairs`."""
        elements = tuple(elements)
        index = {a: i for i, a in enumerate(elements)}
        rows = [0] * len(elements)
        for a, b in pairs:
            if a not in index or b not in index:
                raise AssertionError(f"pair {a!r}, {b!r} names a non-element")
            rows[index[a]] |= 1 << index[b]
        return cls(elements, tuple(rows))

    @cached_property
    def _index(self) -> dict:
        return {a: i for i, a in enumerate(self.elements)}

    @cached_property
    def cols(self) -> tuple[int, ...]:
        """The transposed rows: bit i of cols[j] is set iff
        elements[i] <= elements[j]."""
        n = len(self.rows)
        # character j of a padded, reversed binary string is bit j, so zip
        # turns the strings of the rows into those of the columns
        strings = [format(row, f"0{n}b")[::-1] for row in self.rows]
        return tuple(int("".join(col)[::-1], 2) for col in zip(*strings))

    @property
    def relation(self) -> Set:
        """Read-only view of the (a, b) pairs with a <= b."""
        return _Relation(self)

    @property
    def strict_relation_size(self) -> int:
        return sum(row.bit_count() for row in self.rows) - len(self.rows)

    def leq(self, a, b) -> bool:
        return bool(self.rows[self._index[a]] >> self._index[b] & 1)

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


class _Relation(Set):
    """The (a, b) pairs with a <= b of a poset, read off its rows."""

    def __init__(self, poset: FinitePoset):
        self._poset = poset

    def __len__(self) -> int:
        return sum(row.bit_count() for row in self._poset.rows)

    def __iter__(self):
        elements = self._poset.elements
        for a, row in zip(elements, self._poset.rows):
            for j in _bits(row):
                yield a, elements[j]

    def __contains__(self, pair) -> bool:
        a, b = pair
        index = self._poset._index
        return a in index and b in index and self._poset.leq(a, b)


def _bits(row: int) -> list[int]:
    """Indices of the set bits of row, lowest first."""
    # the "0b" prefix ends the reversed string and holds no "1"
    return [i for i, c in enumerate(reversed(bin(row))) if c == "1"]


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
    of atoms.  The model forms the bit rows (`order_rows`) without testing
    every pair."""
    return FinitePoset(tuple(e.label for e in window), tuple(model.order_rows(window)))


def poset_to_space(p: FinitePoset) -> AlexandrovSpace:
    """The space whose minimal open set U_a is the down-set of a, read off
    the column of a."""
    points = p.elements
    min_open = {a: frozenset(points[i] for i in _bits(col)) for a, col in zip(points, p.cols)}
    return AlexandrovSpace(points, min_open)


def is_T0(s: AlexandrovSpace) -> bool:
    seen = {}
    for x in s.points:
        key = s.min_open[x]
        if key in seen:
            return False
        seen[key] = x
    return True


def chain_connected(s: AlexandrovSpace, a, b, components=None) -> bool:
    """True iff a finite chain of points with pairwise-intersecting
    consecutive minimal opens links a to b.  `components` is the partition
    `connected_components_topology(s)` when the caller already has it."""
    if a not in s.min_open or b not in s.min_open:
        raise KeyError("both endpoints must be points of the space")
    if components is None:
        components = connected_components_topology(s)
    return any(a in c and b in c for c in components)


def connected_components_topology(s: AlexandrovSpace) -> list[frozenset]:
    """Partition of the points under the chain-connectedness equivalence,
    deterministically ordered by smallest member.  Since x lies in U_x,
    U_x and U_y meet exactly when both contain some z, so linking each x to
    the points of U_x generates the same equivalence as the pairwise test."""
    groups = partition(s.points, ((x, y) for x in s.points for y in s.min_open[x]))
    return sorted((frozenset(g) for g in groups), key=lambda g: min(map(str, g)))
