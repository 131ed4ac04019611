"""Concrete models whose divisibility is decided entirely by value vectors.

Each model fixes an ambient Z^d (+) Q, a positive cone (the value monoid of
the integral elements), a finite set of atom values, and an analytic
characterisation of the atomic elements as the N-span of the atom values.
The finite atom list answers every atom question: the atom test, the
factorization oracle, the boundary probe and the atom subgroup.
"""

from __future__ import annotations

import abc
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import sub
from typing import Container, Iterable

from ..elements import Element
from ..errors import EmptyWindow, InvalidBounds
from ..values import Ambient, Vec, fmt_exponent
from .base import DivisibilityModel, FactorSearch, Suffixes, WindowSpec


class ValueModel(DivisibilityModel):
    """Base for models with value-decided divisibility; an element is an atom
    exactly when it is one of `atoms()`."""

    unit_label = "1"  # label of the zero value; no nonzero value may share it
    atom_values: frozenset[Vec]  # the value of every atom class

    # -- subclass hooks -----------------------------------------------------

    @abc.abstractmethod
    def contains_value(self, v: Vec) -> bool:
        """Membership of v in the value monoid (the zero value included)."""

    @abc.abstractmethod
    def is_atomic_value(self, v: Vec) -> bool: ...

    @abc.abstractmethod
    def label_for(self, v: Vec) -> str:
        """Canonical label of a nonzero value."""

    @abc.abstractmethod
    def _box(self, *bounds: int) -> list[Vec]:
        """The distinct values of the fractional window of these bounds (the
        `window_bounds`, in order), the unit included."""

    # -- generic operations -------------------------------------------------

    def element(self, v: Vec) -> Element:
        return Element(self.id, v, self._label)

    def _label(self, v: Vec) -> str:
        return self.unit_label if v.is_zero else self.label_for(v)

    def is_unit(self, a: Element) -> bool:
        self.check_owned(a)
        return a.value.is_zero

    def quotient(self, a: Element, b: Element) -> Element:
        self.check_owned(a, b)
        return self.element(a.value - b.value)

    def multiply(self, a: Element, b: Element) -> Element:
        self.check_owned(a, b)
        return self.element(a.value + b.value)

    @cached_property
    def _atoms(self) -> tuple[Element, ...]:
        return tuple(sorted(map(self.element, self.atom_values), key=lambda e: e.label))

    def atoms(self) -> tuple[Element, ...]:
        """Representatives of every atom class, in label order; built once."""
        return self._atoms

    def is_atom(self, a: Element) -> bool:
        self.check_owned(a)
        return a.value in self.atom_values

    def is_atomic_element(self, a: Element) -> bool:
        self.check_owned(a)
        return self.is_atomic_value(a.value)

    def in_domain(self, a: Element) -> bool:
        self.check_owned(a)
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
        self.check_owned(a)
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

    def _atom_quotients(self, v: Vec) -> list[tuple[Vec, Element]]:
        """The value of a/p for each atom p, with p: values, not elements,
        so the graph's lookups hash no element."""
        return [(v - p.value, p) for p in self.atoms()]

    def successor_candidates(
        self, a: Element, vertices: tuple[Element, ...]
    ) -> list[tuple[Vec, Element]]:
        # every quotient a/p, integral or not: a fractional window holds both
        return self._atom_quotients(a.value)

    def order_rows(self, window: tuple[Element, ...]) -> list[int]:
        # every atom value has rational part 0, so a/b can be atomic only when
        # a and b have equal rational parts; within such a group the answer
        # reads only the difference of the integer coordinates, and is asked
        # once per distinct difference
        self.check_owned(*window)
        groups: dict = {}
        for i, e in enumerate(window):
            groups.setdefault(e.value.rat, []).append((i, e.value.ints))
        atomic: dict[tuple[int, ...], bool] = {}
        rows = [1 << i for i in range(len(window))]
        for members in groups.values():
            for i, a in members:
                row = rows[i]
                for j, b in members:
                    d = tuple(map(sub, a, b))
                    hit = atomic.get(d)
                    if hit is None:
                        hit = atomic[d] = self.is_atomic_value(Vec(d))
                    if hit:
                        row |= 1 << j
                rows[i] = row
        return rows

    def boundary_probe(self, a: Element, window: Container) -> bool:
        self.check_owned(a)
        # an integral quotient a/p may be a unit: the zero value lies in every
        # value monoid
        return any(
            self.contains_value(q) and not q.is_zero and q not in window
            for q, _ in self._atom_quotients(a.value)
        )

    def conn_value(self, a: Element) -> Vec:
        return a.value

    def certificate_atoms(self) -> tuple[Element, ...]:
        return self.atoms()

    def enumerate_window(self, spec: WindowSpec) -> tuple[Element, ...]:
        values = self._box(*self.require_positive(spec.bounds, *self.window_bounds))
        if not spec.include_fractional:
            values = [v for v in values if self.contains_value(v) and not v.is_zero]
        if not values:
            raise EmptyWindow(f"window bounds exclude every element of model {self.id!r}")
        return tuple(sorted(map(self.element, values), key=lambda e: e.label))


def _fraction_range(max_abs: int, max_den: int) -> set[Fraction]:
    """The fractions of absolute value at most max_abs and denominator at
    most max_den, zero included."""
    pos = {Fraction(n, d) for d in range(1, max_den + 1) for n in range(1, max_abs * d + 1)}
    return {Fraction(0), *pos, *(-q for q in pos)}


class DVRModel(ValueModel):
    """Discrete rank-one valuation: classes pi^k, value group Z."""

    id = "dvr"
    ambient = Ambient(1)
    atom_values = frozenset({Vec((1,))})
    window_bounds = ("max_exponent",)

    def contains_value(self, v: Vec) -> bool:
        return v.rat == 0 and v.ints[0] >= 0

    def is_atomic_value(self, v: Vec) -> bool:
        return v.rat == 0 and v.ints[0] >= 1

    def label_for(self, v: Vec) -> str:
        k = v.ints[0]
        if k >= 1:
            return "pi" if k == 1 else f"pi^{k}"
        return "1/pi" if k == -1 else f"1/pi^{-k}"

    def _box(self, n: int) -> list[Vec]:
        return [Vec((k,)) for k in range(-n, n + 1)]


class AntimatterModel(ValueModel):
    """Nondiscrete rank-one valuation with value group Q: no atoms at all."""

    id = "antimatter"
    ambient = Ambient(0, with_rat=True)
    atom_values = frozenset()
    window_bounds = ("max_value", "max_den")

    def contains_value(self, v: Vec) -> bool:
        return v.rat >= 0

    def is_atomic_value(self, v: Vec) -> bool:
        return False

    def label_for(self, v: Vec) -> str:
        q = v.rat
        if q > 0:
            return "x" if q == 1 else f"x^{fmt_exponent(q)}"
        return "1/x" if q == -1 else f"1/x^{fmt_exponent(-q)}"

    def quasi_obstruction(self, window: Iterable[Element]) -> dict | None:
        witness = next(iter(window), None)
        return {
            "reason": "no atoms exist, so no product can become a product of atoms",
            "witness": witness.label if witness else None,
        }

    def _box(self, max_value: int, max_den: int) -> list[Vec]:
        return [Vec((), q) for q in _fraction_range(max_value, max_den)]


class NumericalMonoidModel(ValueModel):
    """Additive submonoid of N generated by a finite set of positive integers."""

    ambient = Ambient(1)
    unit_label = "0"  # labels are the values, so "1" names the value 1
    window_bounds = ("max_value",)

    def __init__(self, generators: Iterable[int]):
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

    def label_for(self, v: Vec) -> str:
        return str(v.ints[0])

    def _box(self, max_value: int) -> list[Vec]:
        # the value group: the multiples of the generators' gcd
        step = gcd(*self.generators)
        return [Vec((n,)) for n in range(-max_value, max_value + 1) if n % step == 0]


def _power_label(sym: str, q: Fraction | int) -> str:
    if q == 1:
        return sym
    return f"{sym}^{fmt_exponent(q)}"


class _TwoGeneratorValuationModel(ValueModel):
    """Shared label/arithmetic plumbing for the two rank-two monoids below.

    Values are (k, e) with k the y-exponent and e the x-exponent; e lives in
    Q for the first model and in Z for the second.
    """

    def _exp_pair(self, v: Vec) -> tuple[int, Fraction | int]:
        raise NotImplementedError

    def label_for(self, v: Vec) -> str:
        k, e = self._exp_pair(v)
        num, den = [], []
        if k > 0:
            num.append(_power_label("y", k))
        elif k < 0:
            den.append(_power_label("y", -k))
        if e > 0:
            num.append(_power_label("x", e))
        elif e < 0:
            den.append(_power_label("x", -e))
        num_s = "*".join(num) if num else "1"
        if not den:
            return num_s
        den_s = den[0] if len(den) == 1 else "(" + "*".join(den) + ")"
        return f"{num_s}/{den_s}"


class D1Model(_TwoGeneratorValuationModel):
    """Monoid generated by the values (0, a) for a in Q+, (1, 0), and (k, -a)
    for k >= 2, a in Q+, inside Z (+) Q ordered lexicographically."""

    id = "d1"
    ambient = Ambient(1, with_rat=True)
    atom_values = frozenset({Vec((1,))})
    window_bounds = ("k_max", "den_max", "alpha_max")

    def _exp_pair(self, v: Vec):
        return v.ints[0], v.rat

    def contains_value(self, v: Vec) -> bool:
        k, a = v.ints[0], v.rat
        if k < 0:
            return False
        if k == 0:
            return a >= 0
        if k == 1:
            return a >= 0
        return True

    def is_atomic_value(self, v: Vec) -> bool:
        return v.rat == 0 and v.ints[0] >= 1

    def quasi_complement(self, a: Element) -> Element | None:
        self.check_owned(a)
        if a.value.rat != 0:
            # (k, alpha) + (max(2, 1 - k), -alpha) = (max(k + 2, 1), 0) is atomic for
            # every k, and a y-exponent >= 2 keeps the complement integral
            return self.element(Vec((max(2, 1 - a.value.ints[0]),), -a.value.rat))
        return None

    def _box(self, k_max: int, den_max: int, alpha_max: int) -> list[Vec]:
        alphas = _fraction_range(alpha_max, den_max)
        return [Vec((k,), a) for k in range(-k_max, k_max + 1) for a in alphas]


class D2Model(_TwoGeneratorValuationModel):
    """Discrete analogue of D1: value group Z (+) Z, atoms of value (1, 0)
    and (0, 1)."""

    id = "d2"
    ambient = Ambient(2)
    atom_values = frozenset({Vec((1, 0)), Vec((0, 1))})
    window_bounds = ("k_max", "j_max")

    def _exp_pair(self, v: Vec):
        return v.ints[0], v.ints[1]

    def contains_value(self, v: Vec) -> bool:
        if v.rat != 0:
            return False
        k, j = v.ints
        if k < 0:
            return False
        if k <= 1:
            return j >= 0
        return True

    def is_atomic_value(self, v: Vec) -> bool:
        k, j = v.ints
        return v.rat == 0 and k >= 0 and j >= 0 and (k, j) != (0, 0)

    def _box(self, k_max: int, j_max: int) -> list[Vec]:
        return [Vec((k, j)) for k in range(-k_max, k_max + 1) for j in range(-j_max, j_max + 1)]
