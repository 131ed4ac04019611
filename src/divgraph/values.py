"""Exact value vectors in Z^d (+) Q with lexicographic order.

Every value-based model maps its elements into a common shape: a tuple of
integers followed by a single exact rational coordinate.  Models that do
not use the rational coordinate simply leave it at zero.  All comparisons
are lexicographic with the rational coordinate last.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, order=False)
class Ambient:
    """Shape descriptor for a value group Z^dim (+) Q."""

    dim: int
    with_rat: bool = False


@dataclass(frozen=True)
class Vec:
    """A value: integer coordinates `ints` and one rational coordinate `rat`.

    `rat` keeps the exact number it is given, the int 0 by default, so a
    model that never leaves Z^d never touches a Fraction.  Equality and
    hashing do not see the difference: 0 == Fraction(0) and
    hash(0) == hash(Fraction(0)), as for every integer-valued Fraction."""

    ints: tuple[int, ...]
    rat: Fraction | int = 0

    def _same_shape(self, other: "Vec") -> None:
        if len(self.ints) != len(other.ints):
            raise ValueError("value vectors of different shape")

    def __add__(self, other: "Vec") -> "Vec":
        self._same_shape(other)
        return Vec(tuple(a + b for a, b in zip(self.ints, other.ints)), self.rat + other.rat)

    def __sub__(self, other: "Vec") -> "Vec":
        self._same_shape(other)
        return Vec(tuple(a - b for a, b in zip(self.ints, other.ints)), self.rat - other.rat)

    def scaled(self, m: int) -> "Vec":
        return Vec(tuple(m * a for a in self.ints), m * self.rat)

    @property
    def is_zero(self) -> bool:
        return self.rat == 0 and all(a == 0 for a in self.ints)

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
