"""Pluggable divisibility-model abstraction.

A model is a computable presentation of a reduced divisibility monoid: it
decides divisibility between class representatives, recognises atoms and
atomic elements, enumerates finite windows, and runs the brute-force
factorization oracle.  Models are immutable after construction and all
operations are pure functions of (model, inputs).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Mapping

from ..elements import Element
from ..errors import ElementForeignToModel, InvalidBounds
from ..values import Ambient, Vec


@dataclass(frozen=True)
class WindowSpec:
    model_id: str
    bounds: Mapping[str, object]
    include_fractional: bool = False


@dataclass(frozen=True)
class Factorization:
    target: Element
    atoms: tuple[Element, ...]  # sorted by label, repetitions allowed

    def length(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class FactorSearch:
    found: tuple[Factorization, ...]
    bound_too_small: bool


class DivisibilityModel(abc.ABC):
    id: str
    ambient: Ambient

    # -- plumbing ------------------------------------------------------------

    def check_owned(self, *elements: Element) -> None:
        for e in elements:
            if e.model_id != self.id:
                raise ElementForeignToModel(
                    f"element {e.label!r} belongs to model {e.model_id!r}, not {self.id!r}"
                )

    @staticmethod
    def require_positive(bounds: Mapping[str, object], *names: str) -> list[int]:
        out = []
        for name in names:
            v = bounds.get(name)
            if not isinstance(v, int) or v <= 0:
                raise InvalidBounds(f"bound {name!r} must be a positive integer, got {v!r}")
            out.append(v)
        return out

    # -- core operations -----------------------------------------------------

    @abc.abstractmethod
    def is_unit(self, a: Element) -> bool: ...

    @abc.abstractmethod
    def divides(self, a: Element, b: Element) -> bool:
        """True iff b/a lies in the domain."""

    @abc.abstractmethod
    def quotient(self, a: Element, b: Element) -> Element:
        """Class of a/b inside the full group of classes (may be fractional)."""

    @abc.abstractmethod
    def multiply(self, a: Element, b: Element) -> Element: ...

    @abc.abstractmethod
    def is_atom(self, a: Element) -> bool: ...

    @abc.abstractmethod
    def is_atomic_element(self, a: Element) -> bool:
        """Membership in the set of finite products of atoms."""

    @abc.abstractmethod
    def in_domain(self, a: Element) -> bool:
        """True iff the class has an integral representative."""

    @abc.abstractmethod
    def enumerate_window(self, spec: WindowSpec) -> tuple[Element, ...]:
        """Deterministic finite window, sorted by canonical label."""

    # -- atoms and the oracle --------------------------------------------------

    @abc.abstractmethod
    def atoms(self) -> tuple[Element, ...]:
        """Representatives of every atom class (finite for all bundled models
        except the polynomial model, which overrides its consumers)."""

    def atom_divisors(self, a: Element) -> tuple[Element, ...]:
        """Atoms p such that a/p is integral."""
        self.check_owned(a)
        out = []
        for p in self.atoms():
            q = self.quotient(a, p)
            if self.is_unit(q) or self.in_domain(q):
                out.append(p)
        return tuple(out)

    def factorizations(self, a: Element, max_length: int) -> FactorSearch:
        """Brute-force oracle: all atom multisets of size <= max_length whose
        product is a, exhaustive within the bound."""
        self.check_owned(a)
        if max_length < 1:
            raise InvalidBounds("max_length must be >= 1")
        if self.is_unit(a):
            return FactorSearch((), False)
        found: set[tuple[str, ...]] = set()
        by_label: dict[str, Element] = {}
        hit_cap = False

        def search(target: Element, chosen: list[Element], floor_label: str):
            nonlocal hit_cap
            divisors = [p for p in self.atom_divisors(target) if p.label >= floor_label]
            if len(chosen) == max_length and divisors:
                hit_cap = True
                return
            for p in divisors:
                q = self.quotient(target, p)
                if self.is_unit(q):
                    labels = tuple(sorted(e.label for e in chosen + [p]))
                    found.add(labels)
                    for e in chosen + [p]:
                        by_label[e.label] = e
                elif self.in_domain(q):
                    search(q, chosen + [p], p.label)

        search(a, [], "")
        facs = tuple(
            Factorization(a, tuple(by_label[l] for l in labels))
            for labels in sorted(found)
        )
        # any truncation means the list may be incomplete
        return FactorSearch(facs, hit_cap)

    # -- hooks used by graph construction and connectivity ---------------------

    def boundary_probe(self, a: Element, window: frozenset[Element]) -> bool:
        """True when a has an atom-quotient successor outside the window."""
        self.check_owned(a)
        for p in self.atom_divisors(a):
            q = self.quotient(a, p)
            if not self.is_unit(q) and self.in_domain(q) and q not in window:
                return True
        return False

    def conn_value(self, a: Element) -> Vec:
        """Value used for component/coset analysis; defaults to the value map."""
        assert a.value is not None
        return a.value

    def atom_conn_values(self) -> tuple[Vec, ...]:
        return tuple(p.value for p in self.atoms())

    def certificate_atoms(self) -> tuple[Element, ...]:
        """Atoms aligned index-by-index with atom_conn_values()."""
        return self.atoms()

    def quasi_complement(self, a: Element) -> Element | None:
        """An integral b with a*b atomic, when the model can name one."""
        return None

    def quasi_obstruction(self, window: Iterable[Element]) -> dict | None:
        """Model-level reason why no multiplier can work, or None."""
        return None
