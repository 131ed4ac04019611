"""Pluggable divisibility-model abstraction.

A model is a computable presentation of a reduced divisibility monoid.  It
answers what the reports read: quotients of class representatives (so the
graph's edge test, a -> b iff a/b is an atom), the candidate edge targets of
a vertex (`successor_candidates`, so the graph need not test every pair),
atoms and atomic elements, the factorization order of a window as bit rows
(`order_rows`, so the topology need not test every pair either), finite
windows, the atom-quotient successors that escape a window, the brute-force
factorization oracle, and the values whose atom-generated subgroup gives the
components.  Models are immutable after construction and all operations are
pure functions of (model, inputs).
"""

from __future__ import annotations

import abc
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Mapping
from functools import cached_property

from ..elements import Element
from ..errors import ElementForeignToModel, InvalidBounds
from ..values import Ambient, Vec


class WindowSpec(namedtuple("WindowSpec", "bounds include_fractional", defaults=(False,))):
    """The window `bounds` (a mapping of bound names) and whether the window
    takes the fractional classes too."""

    __slots__ = ()


class Factorization(namedtuple("Factorization", "atoms")):
    """`atoms`: the atom elements sorted by label, repetitions allowed."""

    __slots__ = ()


class Suffixes:
    """A node of a factorization search: the factorizations of one element
    into atoms from some index on, as sorted tuples of atom indices.  Each
    step (i, rest) divides off atom i, in increasing i; rest is the node of
    the quotient, or None when the quotient is the unit.  Searches share
    the nodes they both reach, so the tree stays small where the tuples are
    many; nodes compare by identity."""

    __slots__ = ("steps", "count")

    def __init__(self, steps: tuple[tuple[int, "Suffixes | None"], ...], count: int):
        self.steps = steps
        self.count = count  # the number of tuples

    def tuples(self) -> Iterator[tuple[int, ...]]:
        """The index tuples in increasing order, without recursion."""
        return _walk(self, lambda node: iter(node.steps))


def _walk(start, moves: Callable) -> Iterator[tuple[int, ...]]:
    """The paths from `start`, as step index tuples, without recursion:
    `moves(node)` yields its steps (i, child) in order, child None at an end."""
    path: list[int] = []  # the steps taken to the node on top of the stack
    stack = [moves(start)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if path:
                path.pop()
        elif step[1] is None:
            yield (*path, step[0])
        else:
            path.append(step[0])
            stack.append(moves(step[1]))


class FactorSearch(namedtuple("FactorSearch", "atoms bound_too_small tree", defaults=(None,))):
    """An oracle's answer for one element: its factorizations into at most
    the bound's number of atoms, and whether the bound cut the search.
    `tree` holds them as sorted tuples of indices into `atoms` (label
    order), None when there are none; `found` renders them on first read,
    into the instance `__dict__`."""

    @cached_property
    def found(self) -> tuple[Factorization, ...]:
        if self.tree is None:
            return ()
        atoms = self.atoms
        return tuple(Factorization(tuple(atoms[i] for i in t)) for t in self.tree.tuples())


class DivisibilityModel(abc.ABC):
    id: str
    ambient: Ambient
    # the `bound` names enumerate_window reads, in the order it reads them
    window_bounds: tuple[str, ...] = ()

    # -- plumbing ------------------------------------------------------------

    @cached_property
    def owner(self) -> str:
        """Its elements' model_id: the id, and the grid that reads a rational part."""
        return f"{self.id} on grid {self.ambient.grid}" if self.ambient.with_rat else self.id

    def check_owned(self, *elements: Element) -> None:
        for e in elements:
            if e.model_id != self.owner:
                raise ElementForeignToModel(
                    f"element {e.label!r} belongs to model {e.model_id!r}, not {self.owner!r}"
                )

    @staticmethod
    def require_positive(bounds: Mapping[str, object], *names: str) -> list[int]:
        for name in names:
            if not isinstance(v := bounds.get(name), int) or v <= 0:
                raise InvalidBounds(f"bound {name!r} must be a positive integer, got {v!r}")
        return [bounds[name] for name in names]

    # -- core operations -----------------------------------------------------

    @abc.abstractmethod
    def is_unit(self, a: Element) -> bool: ...

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
        """Deterministic finite window: distinct elements in label order, as
        every function that takes a window takes it, with no sort of its own."""

    # -- the oracle and the hooks of graph construction, topology, connectivity -

    @abc.abstractmethod
    def factorizations(self, a: Element, max_length: int) -> FactorSearch:
        """Brute-force oracle: all atom multisets of size <= max_length whose
        product is a, exhaustive within the bound."""

    @abc.abstractmethod
    def window_index(self, vertices: tuple[Element, ...]) -> Mapping:
        """A mapping keyed by the vertices' values in position order, built once
        per graph for `successor_candidates` and `boundary_probe`."""

    @abc.abstractmethod
    def successor_candidates(self, a: Element, index: Mapping) -> Iterable[tuple[int, Element]]:
        """The window positions among which lie all edge targets of a, each
        with the quotient a/candidate, which is the atom of the edge where
        there is one; `index` is the `window_index` of a window that holds
        a, and the only view of that window the hook reads.  Where the model
        can list a's atoms, these are the quotients a/p by them that lie in
        the window, each with p; elsewhere a subset of the window.  The
        positions are distinct and none is a's own, so the graph sorts them
        and tests each one with `cover_edge`, once."""

    @abc.abstractmethod
    def order_rows(self, window: tuple[Element, ...]) -> list[int]:
        """The factorization order on a window, one bit row per element in
        window order: bit j of row i is set iff window[i] is window[j] or
        window[i]/window[j] is a (nonempty) product of atoms."""

    @abc.abstractmethod
    def boundary_probe(self, a: Element, index: Mapping) -> bool:
        """True when a has an atom-quotient successor outside the window:
        for some atom p, a/p is integral, not a unit, and its value is not
        in `index`, the `window_index` of a window that holds a.  Also True
        where the model cannot list the atoms that divide a: a zxq class of
        positive order, which every prime divides, or one whose split is
        unknown."""

    @abc.abstractmethod
    def conn_value(self, a: Element) -> Vec:
        """Value used for component/coset analysis: a homomorphism from the
        group of classes whose kernel lies in the group the atoms generate.
        Value models map each class to its value, injectively; zxq maps a
        class to its order at x = 0, and an order-0 class f/g equals
        (2f)/(2g), a quotient of atomic elements.  So conn(a) - conn(b) lies
        in the atom subgroup exactly when a/b is a quotient of atom products,
        which `quotient_of_atomics` relies on."""

    @abc.abstractmethod
    def certificate_atoms(self) -> tuple[Element, ...]:
        """Atoms whose conn values generate the atom subgroup; certificates
        are written in them, index by index with the subgroup generators."""

    def quasi_complement(self, a: Element) -> Element | None:
        """An integral b with a*b atomic, when the model can name one."""
        return None

    def quasi_obstruction(self, window: Iterable[Element]) -> dict | None:
        """Model-level reason why no multiplier can work, or None."""
        return None
