"""Exact value vectors in Z^d (+) Q with lexicographic order.

Every value-based model maps its elements into a common shape: a tuple of
integers followed by a single exact rational coordinate.  Models that do
not use the rational coordinate simply leave it at zero.  All comparisons
are lexicographic with the rational coordinate last.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True, order=False)
class Ambient:
    """Shape descriptor for a value group Z^dim (+) Q."""

    dim: int
    with_rat: bool = False

    def zero(self) -> "Vec":
        return Vec((0,) * self.dim)


@dataclass(frozen=True)
class Vec:
    ints: tuple[int, ...]
    rat: Fraction = field(default=Fraction(0))

    def __post_init__(self):
        if not isinstance(self.rat, Fraction):
            object.__setattr__(self, "rat", Fraction(self.rat))

    def _same_shape(self, other: "Vec") -> None:
        if len(self.ints) != len(other.ints):
            raise ValueError("value vectors of different shape")

    def __add__(self, other: "Vec") -> "Vec":
        self._same_shape(other)
        return Vec(tuple(a + b for a, b in zip(self.ints, other.ints)), self.rat + other.rat)

    def __sub__(self, other: "Vec") -> "Vec":
        self._same_shape(other)
        return Vec(tuple(a - b for a, b in zip(self.ints, other.ints)), self.rat - other.rat)

    def __neg__(self) -> "Vec":
        return Vec(tuple(-a for a in self.ints), -self.rat)

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


def vec(*ints: int, rat: Fraction | int | str = 0) -> Vec:
    """Convenience constructor used heavily by tests and model code."""
    return Vec(tuple(ints), Fraction(rat))


def fmt_exponent(q: Fraction) -> str:
    """Render an exponent for canonical labels: 2 -> "2", 1/3 -> "(1/3")."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"({q})"
