"""Concrete models whose divisibility is decided entirely by value vectors.

Each model fixes an ambient Z^d (+) Q, a positive cone (the value monoid of
the integral elements), a finite set of atom values, and an analytic
characterisation of the atomic elements as the N-span of the atom values.
The finite atom list answers every atom question: the atom test, the
factorization oracle, the boundary probe and the atom subgroup.

One renderer, `_label`, labels every value from one symbol per exponent
in (*ints, rat) and the grid of rat (`_fix_grid`): the powers with positive
exponent over those with negative ones, "1" for the unit.  A numerical
monoid's labels are its values instead.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Iterable
from functools import cached_property, partial
from math import gcd, lcm
from itertools import product
from operator import itemgetter

from ..elements import Element
from ..errors import EmptyWindow, InvalidBounds
from ..values import Ambient, Vec, _Box, _place, fmt_exponent, fraction_range
from .base import DivisibilityModel, FactorSearch, Suffixes, WindowSpec


class ValueModel(DivisibilityModel):
    """Base for models with value-decided divisibility; an element is an atom
    exactly when it is one of `atoms()`."""

    atom_values: frozenset[Vec]  # the value of every atom class
    label_for: Callable[[Vec], str]  # a plain function, so no element refers to a model
    # the atoms by value: a quotient that is an atom, as on every graph edge, is one of them
    _atom_of = cached_property(lambda self: {p.value: p for p in self._atoms})

    # -- subclass hooks -----------------------------------------------------

    @abc.abstractmethod
    def contains_value(self, v: Vec) -> bool:
        """Membership of v in the value monoid (the zero value included)."""

    @abc.abstractmethod
    def is_atomic_value(self, v: Vec) -> bool: ...

    @abc.abstractmethod
    def _half(self, *bounds: int) -> list[Vec]:
        """The values of first coordinate >= 0 of the fractional window of the
        `window_bounds`, the integral ones among them; the rest are their negatives."""

    # -- generic operations: one owner comparison each; check_owned raises -----

    def _fix_grid(self, symbols: tuple[str, ...], name: str, den: int | None) -> int:
        """Fix the grid lcm(1..den) of the bound `name`, and the labels on it; returns den."""
        (den,) = self.require_positive({name: den}, name)
        self.ambient = self.ambient._replace(grid=lcm(*range(1, den + 1)))
        self.label_for = partial(_label, symbols, (*(1,) * self.ambient.dim, self.ambient.grid))
        return den

    def element(self, v: Vec) -> Element:
        return Element(self.owner, v, self.label_for)

    def is_unit(self, a: Element) -> bool:
        self.owner == a.model_id or self.check_owned(a)
        return a.value.is_zero

    def quotient(self, a: Element, b: Element) -> Element:
        self.owner == a.model_id == b.model_id or self.check_owned(a, b)
        return self._atom_of.get(q := a.value - b.value) or self.element(q)

    def multiply(self, a: Element, b: Element) -> Element:
        self.owner == a.model_id == b.model_id or self.check_owned(a, b)
        return self.element(a.value + b.value)

    @cached_property
    def _atoms(self) -> tuple[Element, ...]:
        return tuple(sorted(map(self.element, self.atom_values), key=lambda e: e.label))

    def atoms(self) -> tuple[Element, ...]:
        """Representatives of every atom class, in label order; built once."""
        return self._atoms

    def is_atom(self, a: Element) -> bool:
        self.owner == a.model_id or self.check_owned(a)
        return a.value in self.atom_values

    def is_atomic_element(self, a: Element) -> bool:
        self.owner == a.model_id or self.check_owned(a)
        return self.is_atomic_value(a.value)

    def in_domain(self, a: Element) -> bool:
        self.owner == a.model_id or self.check_owned(a)
        return self.contains_value(a.value)

    # -- the atom-list oracle -------------------------------------------------

    @cached_property
    def _suffix_memo(self) -> dict:
        """(value, floor atom index) -> (node, height, room) of `_suffixes`."""
        return {}

    def _suffixes(self, v: Vec, floor: int, room: int) -> tuple[Suffixes, int]:
        """The factorizations of v into at most `room` atoms of index >= floor,
        as a `Suffixes` node, and the height of the search tree (the most
        atoms divided off along one branch), cut at `room` with a step left,
        so it exceeds `room` exactly when the search was cut.

        A stored result answers when it was computed with the same room, or
        was complete (height <= its room) with a height within this room.
        The search keeps its own stack, so its depth is not Python's."""
        memo = self._suffix_memo
        atoms = self.atoms()

        def stored(v, floor, room):
            hit = memo.get((v, floor))
            if hit is not None and (hit[2] == room or hit[1] <= min(hit[2], room)):
                return hit[0], hit[1]
            return None

        done = stored(v, floor, room)
        if done is not None:
            return done
        # a frame: value, floor, room, next atom index, steps, height
        stack = [[v, floor, room, floor, [], 0]]
        while stack:
            frame = stack[-1]
            v, floor, room, i, steps, height = frame
            child = None
            while i < len(atoms):
                q = v - atoms[i].value
                if not self.contains_value(q):
                    i += 1
                    continue
                if room == 0:
                    height = 1
                    break
                done = (None, 0) if q.is_zero else stored(q, i, room - 1)
                if done is None:
                    child = [q, i, room - 1, i, [], 0]
                    break
                node, h = done
                if node is None or node.count:
                    steps.append((i, node))
                height = max(height, h + 1)
                i += 1
            if child is not None:
                frame[3], frame[5] = i, height
                stack.append(child)
                continue
            node = Suffixes(tuple(steps), sum(1 if n is None else n.count for _, n in steps))
            memo[v, floor] = (node, height, room)
            stack.pop()
            if stack:
                # hand the result to the parent, which resumes after atom i
                parent = stack[-1]
                i = parent[3]
                if node.count:
                    parent[4].append((i, node))
                parent[5] = max(parent[5], height + 1)
                parent[3] = i + 1
        return node, height

    def factorizations(self, a: Element, max_length: int) -> FactorSearch:
        self.owner == a.model_id or self.check_owned(a)
        if max_length < 1:
            raise InvalidBounds("max_length must be >= 1")
        atoms = self.atoms()
        if self.is_unit(a):
            return FactorSearch(atoms, False)
        # atoms are chosen in index order, which is label order, so each
        # multiset is found once, already sorted
        node, height = self._suffixes(a.value, 0, max_length)
        # any truncation means the list may be incomplete
        return FactorSearch(atoms, height > max_length, node if node.count else None)

    def window_index(self, vertices: tuple[Element, ...]) -> _Box:
        return _Box([v.value for v in vertices], self.atoms())

    def successor_candidates(
        self, a: Element, vertices: tuple[Element, ...], index: _Box
    ) -> list[tuple[int, Element]]:
        # every quotient a/p in the window, integral or not
        at, origin = index.at, index[a.value]
        return [(j, p) for s, p in index.steps if (j := at.get(origin - s)) is not None]

    def order_rows(self, window: tuple[Element, ...]) -> list[int]:
        # `is_atomic_value` is asked once per integer difference in the box
        # (rational part 0), and the answers, as one bit string reversed,
        # hold the row of a at offset centre - pos(a)
        self.check_owned(*window)
        if not window:
            return []
        pos, widths, strides = _place([e.value for e in window])
        centre = sum((w - 1) * s for w, s in zip(widths, strides))
        diffs = product(*(range(1 - w, w) for w in widths[1:]))
        slab = "".join("1" if self.is_atomic_value(Vec(d)) else "0" for d in diffs)
        pad = "0" * ((widths[0] - 1) * strides[0])
        reversed_mask = pad + slab[::-1] + pad
        # bit j of a row is character -1 - j of its string
        gather = itemgetter(*reversed(pos))
        span = max(pos) + 1
        return [
            int("".join(gather(reversed_mask[centre - p : centre - p + span])), 2) | 1 << i
            for i, p in enumerate(pos)
        ]

    def boundary_probe(self, a: Element, index: _Box) -> bool:
        self.owner == a.model_id or self.check_owned(a)
        v = a.value
        # only a quotient outside the window is built, and the unit is integral
        at, origin = index.at, index[v]
        return any(
            origin - s not in at and self.contains_value(q := v - p.value) and not q.is_zero
            for s, p in index.steps
        )

    def conn_value(self, a: Element) -> Vec:
        return a.value

    def certificate_atoms(self) -> tuple[Element, ...]:
        return self.atoms()

    def enumerate_window(self, spec: WindowSpec) -> tuple[Element, ...]:
        half = self._half(*self.require_positive(spec.bounds, *self.window_bounds))
        if spec.include_fractional:
            values = {*half, *(v.scaled(-1) for v in half)}
        else:
            values = [v for v in half if self.contains_value(v) and not v.is_zero]
        if not values:
            raise EmptyWindow(f"window bounds exclude every element of model {self.id!r}")
        return tuple(sorted(map(self.element, values), key=lambda e: e.label))


def _label(symbols: tuple[str, ...], grids: tuple[int, ...], v: Vec) -> str:
    """Canonical label of a value, each exponent in (*ints, rat) on its grid in `grids`."""
    num, den = [], []
    for sym, e, g in zip(symbols, (*v.ints, v.rat), grids):
        if e > 0:
            num.append(sym if e == g else f"{sym}^{fmt_exponent(e, g)}")
        elif e:
            den.append(sym if e == -g else f"{sym}^{fmt_exponent(-e, g)}")
    num_s = "*".join(num) or "1"
    if not den:
        return num_s
    return f"{num_s}/{den[0]}" if len(den) == 1 else f"{num_s}/({'*'.join(den)})"


class DVRModel(ValueModel):
    """Discrete rank-one valuation: classes pi^k, value group Z."""

    id = "dvr"
    ambient = Ambient(1)
    atom_values = frozenset({Vec((1,))})
    label_for = staticmethod(partial(_label, ("pi",), (1,)))
    window_bounds = ("max_exponent",)

    def contains_value(self, v: Vec) -> bool:
        return v.rat == 0 and v.ints[0] >= 0

    def is_atomic_value(self, v: Vec) -> bool:
        return v.rat == 0 and v.ints[0] >= 1

    def _half(self, n: int) -> list[Vec]:
        return [Vec((k,)) for k in range(n + 1)]


class AntimatterModel(ValueModel):
    """Nondiscrete rank-one valuation with value group Q: no atoms at all."""

    id = "antimatter"
    ambient = Ambient(0, with_rat=True)
    atom_values = frozenset()
    window_bounds = ("max_value",)

    def __init__(self, max_den: int | None = None):
        self.max_den = self._fix_grid(("x",), "max_den", max_den)

    def contains_value(self, v: Vec) -> bool:
        return v.rat >= 0

    def is_atomic_value(self, v: Vec) -> bool:
        return False

    def quasi_obstruction(self, window: Iterable[Element]) -> dict | None:
        witness = next(iter(window), None)
        return {
            "reason": "no atoms exist, so no product can become a product of atoms",
            "witness": witness.label if witness else None,
        }

    def _half(self, max_value: int) -> list[Vec]:
        return [Vec((), q) for q in fraction_range(max_value, self.max_den, self.ambient.grid)]


class NumericalMonoidModel(ValueModel):
    """Additive submonoid of N generated by a finite set of positive integers."""

    ambient = Ambient(1)
    window_bounds = ("max_value",)

    def __init__(self, generators: Iterable[int] = ()):
        gens = tuple(sorted(set(int(g) for g in generators)))
        if not gens or any(g < 1 for g in gens):
            raise InvalidBounds("numerical monoid generators must be positive integers")
        self.generators = gens
        self.id = "numerical-monoid<" + ",".join(str(g) for g in gens) + ">"
        self._members = [True]  # _members[n]: n is a sum of generators
        # the minimal generators: those that are not a sum of two nonzero members
        self.atom_values = frozenset(
            Vec((g,))
            for g in gens
            if not any(self._member(h) and self._member(g - h) for h in range(1, g))
        )

    def _member(self, n: int) -> bool:
        if n < 0:
            return False
        members = self._members
        for i in range(len(members), n + 1):
            members.append(any(g <= i and members[i - g] for g in self.generators))
        return members[n]

    def contains_value(self, v: Vec) -> bool:
        return v.rat == 0 and self._member(v.ints[0])

    def is_atomic_value(self, v: Vec) -> bool:
        # every nonzero monoid element is a sum of atoms
        return v.rat == 0 and v.ints[0] > 0 and self._member(v.ints[0])

    @staticmethod
    def label_for(v: Vec) -> str:
        # labels are the values, so the unit is "0" and "1" names the value 1
        return str(v.ints[0])

    def _half(self, max_value: int) -> list[Vec]:
        # the value group: the multiples of the generators' gcd
        step = gcd(*self.generators)
        return [Vec((n,)) for n in range(0, max_value + 1, step)]


class D1Model(ValueModel):
    """Monoid generated by the values (0, a) for a in Q+, (1, 0), and (k, -a)
    for k >= 2, a in Q+, inside Z (+) Q ordered lexicographically."""

    id = "d1"
    ambient = Ambient(1, with_rat=True)
    atom_values = frozenset({Vec((1,))})
    window_bounds = ("k_max", "alpha_max")

    def __init__(self, den_max: int | None = None):
        self.den_max = self._fix_grid(("y", "x"), "den_max", den_max)

    def contains_value(self, v: Vec) -> bool:
        k = v.ints[0]
        return k >= 2 or (k >= 0 and v.rat >= 0)

    def is_atomic_value(self, v: Vec) -> bool:
        return v.rat == 0 and v.ints[0] >= 1

    def quasi_complement(self, a: Element) -> Element | None:
        self.check_owned(a)
        if a.value.rat != 0:
            # (k, alpha) + (max(2, 1 - k), -alpha) = (max(k + 2, 1), 0) is atomic for
            # every k, and a y-exponent >= 2 keeps the complement integral
            return self.element(Vec((max(2, 1 - a.value.ints[0]),), -a.value.rat))
        return None

    def _half(self, k_max: int, alpha_max: int) -> list[Vec]:
        alphas = fraction_range(alpha_max, self.den_max, self.ambient.grid)
        alphas |= {-a for a in alphas}
        return [Vec((k,), a) for k in range(k_max + 1) for a in alphas]


class D2Model(ValueModel):
    """Discrete analogue of D1: value group Z (+) Z, atoms of value (1, 0)
    and (0, 1)."""

    id = "d2"
    ambient = Ambient(2)
    atom_values = frozenset({Vec((1, 0)), Vec((0, 1))})
    label_for = staticmethod(partial(_label, ("y", "x"), (1, 1)))
    window_bounds = ("k_max", "j_max")

    def contains_value(self, v: Vec) -> bool:
        k, j = v.ints
        return v.rat == 0 and (k >= 2 or (k >= 0 and j >= 0))

    def is_atomic_value(self, v: Vec) -> bool:
        k, j = v.ints
        return v.rat == 0 and k >= 0 and j >= 0 and (k, j) != (0, 0)

    def _half(self, k_max: int, j_max: int) -> list[Vec]:
        return [Vec((k, j)) for k in range(k_max + 1) for j in range(-j_max, j_max + 1)]
