"""Exact value vectors in Z^d (+) Q, ordered lexicographically with the
rational coordinate last.  Every coordinate is an int: the rational one
counts steps of 1/grid on its model's grid, or stays 0 where a model has none.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd
from operator import add, lt, mul, sub

from .errors import OffGrid


class Ambient(namedtuple("Ambient", "dim with_rat grid", defaults=(False, 1))):
    """Shape of a value group Z^dim (+) Q, rational steps of 1/grid."""

    __slots__ = ()

    def value(self, ints: tuple[int, ...], rat=0) -> Vec:
        """(ints, rat) with the exact rational rat put on the grid; OffGrid, never rounded."""
        if (steps := rat * self.grid).denominator != 1:
            raise OffGrid(f"{rat} is off the grid 1/{self.grid}")
        return Vec(tuple(ints), int(steps))


class Vec(namedtuple("Vec", "ints rat", defaults=(0,))):
    """A value: the tuple (ints, rat) of integer coordinates `ints` and the
    int `rat`, the rational coordinate times the grid.  `==` and `hash` are
    tuple's and run in C on ints, where graphs look quotients up by value, so
    define no `__eq__`, no rich comparison or instance attribute."""

    __slots__ = ()
    __mul__ = __rmul__ = None  # not tuple repetition: `scaled` scales

    def __add__(self, other: "Vec") -> "Vec":
        (a, p), (b, q) = self, other
        if len(a) != len(b):
            raise ValueError("value vectors of different shape")
        return tuple.__new__(Vec, ((a[0] + b[0],) if len(a) == 1 else tuple(map(add, a, b)), p + q))

    def __sub__(self, other: "Vec") -> "Vec":
        (a, p), (b, q) = self, other
        if len(a) != len(b):
            raise ValueError("value vectors of different shape")
        return tuple.__new__(Vec, ((a[0] - b[0],) if len(a) == 1 else tuple(map(sub, a, b)), p - q))

    def scaled(self, m: int) -> "Vec":
        return Vec(tuple(m * a for a in self.ints), m * self.rat)

    @property
    def is_zero(self) -> bool:
        return self.rat == 0 and not any(self.ints)

    def render(self, grid: int = 1) -> str:
        """The value as "(ints..., rat)", rat read on `grid` and shown when nonzero or alone."""
        parts = [str(a) for a in self.ints]
        if self.rat or not parts:
            parts.append(fmt_exponent(self.rat, grid, "{}"))
        return "(" + ", ".join(parts) + ")"


def fmt_exponent(n: int, grid: int = 1, fraction: str = "({})") -> str:
    """n/grid in lowest terms, a fraction in `fraction`: (6, 3) -> "2", (2, 6) -> "(1/3)"."""
    g = gcd(n, grid)
    return str(n // g) if g == grid else fraction.format(f"{n // g}/{grid // g}")


def fraction_range(max_abs: int, max_den: int, grid: int) -> set[int]:
    """The fractions from 0 to max_abs of denominator at most max_den, as
    counts of steps of 1/grid (grid a multiple of each such denominator)."""
    return {n for d in range(1, max_den + 1) for n in range(0, max_abs * grid + 1, grid // d)}


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
