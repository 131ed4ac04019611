"""Exact value vectors in Z^d (+) Q with lexicographic order.

Every value-based model maps its elements into a common shape: a tuple of
integers followed by a single exact rational coordinate.  Models that do
not use the rational coordinate simply leave it at zero.  All comparisons
are lexicographic with the rational coordinate last.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import add, lt, mul, sub


class Ambient(namedtuple("Ambient", "dim with_rat", defaults=(False,))):
    """Shape descriptor for a value group Z^dim (+) Q."""

    __slots__ = ()


class Vec(namedtuple("Vec", "ints rat", defaults=(0,))):
    """A value: the tuple (ints, rat) of integer coordinates `ints` and one
    rational coordinate `rat`.  As a tuple it hashes as hash((ints, rat)),
    and `==` and `hash` run in C, where graphs look quotients up by value;
    namedtuple's C getters read the fields.  So define no `__eq__`, no rich
    comparison (any one sends `==` through a Python slot) and no instance
    attribute.  `rat` keeps the exact number given, the int 0 by default, so
    a model that stays in Z^d never touches a Fraction: 0 == Fraction(0) and
    hash(0) == hash(Fraction(0)), as for every integer-valued Fraction."""

    __slots__ = ()
    __mul__ = __rmul__ = None  # not tuple repetition: `scaled` scales

    def __add__(self, other: "Vec") -> "Vec":
        (a, p), (b, q) = self, other
        if len(a) != len(b):
            raise ValueError("value vectors of different shape")
        return tuple.__new__(Vec, (tuple(map(add, a, b)), p + q))

    def __sub__(self, other: "Vec") -> "Vec":
        (a, p), (b, q) = self, other
        if len(a) != len(b):
            raise ValueError("value vectors of different shape")
        return tuple.__new__(Vec, (tuple(map(sub, a, b)), p - q))

    def scaled(self, m: int) -> "Vec":
        return Vec(tuple(m * a for a in self.ints), m * self.rat)

    @property
    def is_zero(self) -> bool:
        ints, rat = self
        return rat == 0 and not any(ints)

    def __str__(self) -> str:
        parts = [str(a) for a in self.ints]
        if self.rat != 0 or not parts:
            parts.append(str(self.rat))
        return "(" + ", ".join(parts) + ")"


def fmt_exponent(q: Fraction | int) -> str:
    """Render an exponent for canonical labels: 2 -> "2", 1/3 -> "(1/3")."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"({q})"


def _place(values: list[Vec]) -> tuple[list[int], list[int], list[int]]:
    """Distinct values' positions in a box, with its widths and strides.  The
    rational part's index among the values' is the outermost coordinate, each
    of width w padded to 2w - 1: a - b with coordinates within w - 1 is the
    shift pos(a) - pos(b), which no other such difference has."""
    rats = {r: n for n, r in enumerate(sorted({v.rat for v in values}))}
    coords = [(rats[v.rat], *v.ints) for v in values]
    lows = [min(c) for c in zip(*coords)]
    widths = [max(c) - low + 1 for c, low in zip(zip(*coords), lows)]
    strides = [1]
    for w in reversed(widths[1:]):
        strides.insert(0, strides[0] * (2 * w - 1))
    return [sum(map(mul, map(sub, c, lows), strides)) for c in coords], widths, strides


class _Box(dict):
    """Distinct values by their positions (`_place`), for one graph build.
    `at` gives the index of the value at a position, and `steps` each atom
    p (an element; its value has rational part 0) with its shift, so a/p is
    at pos(a) - shift, or past every position where p does not fit the box."""

    def __init__(self, values: list[Vec], atoms: tuple):
        pos, widths, strides = _place(values)
        super().__init__(zip(values, pos))
        self.at, past = dict(zip(pos, range(len(pos)))), max(pos, default=0) + 1
        fit = [all(map(lt, map(abs, p.value.ints), widths[1:])) for p in atoms]
        shift = [sum(map(mul, p.value.ints, strides[1:])) for p in atoms]
        self.steps = [(s if f else past, p) for s, f, p in zip(shift, fit, atoms)]
