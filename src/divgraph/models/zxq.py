"""Model of the ring of polynomials with integer constant term and rational
higher coefficients.

Elements are canonical rational-function class representatives (the only
units are +-1, so a class is a sign-normalised reduced fraction).  The atoms
are the integer primes and the Q-irreducible polynomials with constant term
+-1: infinitely many, so this model has no atom list and answers each atom
question from the split of the element itself.  A class is a product of
atoms exactly when it is integral, not a unit and of order 0 at x = 0, and
one test, `_atomic`, says so to `is_atom`, `is_atomic_element`,
factorizations, the edge candidates and the order.  One splitter,
`_poly_atoms`, removes the declared `atom` polynomials first, then factors
the rest with the rational-root test.  A model splits each class, factors
each polynomial and forms each class's atom quotients, with their atoms,
once (`_splits`, `_factored`, `_quotients`, an unknown split included);
factorizations read those atoms, and how often each occurs from the split.
`polynomials._prime_factors` splits the integer part, and the end
coefficients whose divisors the rational-root test tries: trial division
below 1000, then Miller-Rabin, exact below 3.3e24, and Brent's variant of
Pollard rho with a fixed step budget.  The split is unknown when the
polynomial rest has degree above `degree_cap` or a factor of degree >= 4
without a rational root, or when one of those integers has a cofactor of
at least 3.3e24 that tests prime or a composite cofactor in which rho finds
no factor within its budget (in practice, only when all its prime factors
exceed about 10^10): `is_atom` raises DegreeCapExceeded there,
factorizations report `bound_too_small` and the boundary probe answers
conservatively.  Connectivity needs no split: it reads only the order at
x = 0 (`conn_value`).

The edge targets of an order-0 class with a known split are its quotients
by its distinct atoms (`_atom_quotients`), each with its atom.  Elsewhere,
and in the factorization order, one index per window (`window_index`)
groups the values by order at x = 0 and primitive polynomial part, and
a/b is atomic only for a b in a group of a's order whose part divides a's:
a/b = c * num_a * den_b / (den_a * num_b) is a polynomial only then, since
num_b is coprime to den_b.  The parts of each pair of groups are divided
once per index; each member b then gives its class a/b from the contents,
with no gcd (`_over`), and `_divisors` keeps the classes that `_atomic`
accepts, the only ones the order sets a bit for and every atom among them.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Container, Iterable
from fractions import Fraction

from ..elements import Element
from ..errors import DegreeCapExceeded, EmptyWindow, InvalidBounds
from ..polynomials import (
    _MR_EXACT_BELOW,
    _RHO_STEPS,
    Poly,
    RationalFunction,
    _prime_factors,
    exact_div,
    factor_monic,
    primitive,
    rational_roots,
    render_terms,
)
from ..values import Ambient, Vec
from .base import DivisibilityModel, FactorSearch, Suffixes, WindowSpec


class ZxQModel(DivisibilityModel):
    id = "zxq"
    ambient = Ambient(1)  # connectivity sees only the order at x = 0

    def __init__(self, degree_cap: int = 3, declared_atoms: Iterable[Iterable[Fraction]] = ()):
        """declared_atoms: rows of rational coefficients in ascending degree."""
        if degree_cap < 1:
            raise InvalidBounds("degree_cap must be >= 1")
        self.degree_cap = degree_cap
        atoms = []
        for row in declared_atoms:
            name = render_terms([(a.numerator, a.denominator) for a in row])
            if not any(row[1:]):
                raise InvalidBounds(f"declared atom {name} is constant, not a polynomial atom")
            if abs(row[0]) != 1:
                raise InvalidBounds(f"declared atom {name} has constant term {row[0]}, not +-1")
            p = primitive(row)[1]
            roots = rational_roots(p)
            if roots is None:
                raise InvalidBounds(f"declared atom {name} has a coefficient that cannot be split")
            if roots:
                raise InvalidBounds(f"declared atom {name} has the rational root {roots[0]}")
            atoms.append(p)
        # primitive, as the splitter takes exact quotients of primitive polynomials by them
        self.declared_atoms = tuple(atoms)
        self._splits: dict = {}  # order-0 integral class -> its split or None
        self._factored: dict = {}  # primitive polynomial -> its `factor_monic`
        self._quotients: dict = {}  # order-0 integral class -> its `_atom_quotients`
        # every atom has order 0, so the prime 2 alone generates the subgroup
        self._certificate_atoms = tuple(self._atoms([], [2]))

    # -- element plumbing ----------------------------------------------------

    def element_of(self, rf: RationalFunction) -> Element:
        return Element(self.id, rf, RationalFunction.label)

    def from_coeffs(self, coeffs: Iterable[Fraction]) -> Element:
        return self.element_of(RationalFunction.make(coeffs))

    def is_unit(self, a: Element) -> bool:
        self.owner == a.model_id or self.check_owned(a)
        return a.value.is_unit_class

    def in_domain(self, a: Element) -> bool:
        self.owner == a.model_id or self.check_owned(a)
        return a.value.in_domain()

    def quotient(self, a: Element, b: Element) -> Element:
        self.owner == a.model_id == b.model_id or self.check_owned(a, b)
        return self.element_of(a.value.div(b.value))

    def multiply(self, a: Element, b: Element) -> Element:
        self.owner == a.model_id == b.model_id or self.check_owned(a, b)
        return self.element_of(a.value.mul(b.value))

    # -- atoms ---------------------------------------------------------------

    def is_atom(self, a: Element) -> bool:
        self.owner == a.model_id or self.check_owned(a)
        rf = a.value
        if not _atomic(rf):
            return False
        if len(rf.num) > 1 and abs(rf.cn * rf.num[0]) != rf.cd:
            # p = c * (p / c) with c = p(0) a non-unit integer
            return False
        split = self._atomize_order_zero(rf)
        if split is None:
            raise DegreeCapExceeded(
                f"cannot split {rf.label()!r}: after the declared atoms are divided out, "
                f"its polynomial part has degree above the cap ({self.degree_cap}) or a "
                f"factor of degree >= 4 that the rational-root test cannot decide "
                f"(declare it with `atom` if it is irreducible), or its integer part "
                f"has a factor of at least {_MR_EXACT_BELOW} that cannot be certified prime "
                f"or a composite factor that Pollard rho cannot split in {_RHO_STEPS} steps"
            )
        factors, primes = split
        return len(factors) + len(primes) == 1

    def is_atomic_element(self, a: Element) -> bool:
        self.owner == a.model_id or self.check_owned(a)
        return _atomic(a.value)

    def _atoms(self, factors: Iterable[Poly], primes: Iterable[int]) -> list[Element]:
        """The atoms f / f(0) of primitive factors f, then the prime atoms."""
        rfs = [RationalFunction.of(1, abs(f[0]), f, (1,), 0) for f in factors]
        rfs += [RationalFunction.of(p, 1, (1,), (1,), 0) for p in primes]
        return [self.element_of(rf) for rf in rfs]

    def _atomize_order_zero(
        self, rf: RationalFunction
    ) -> tuple[tuple[Poly, ...], tuple[int, ...]] | None:
        """The split of an order-0 integral class: the irreducible factors
        f of its polynomial part and the primes of its constant term, or None
        when either cannot be split (see the module docstring).  The atoms
        f / f(0) have constant term 1, so the integer left to split is the
        class's own constant term c * num(0).  Memoised per model."""
        assert rf.in_domain() and rf.order == 0
        try:
            return self._splits[rf]
        except KeyError:
            pass
        split = None
        factors = self._poly_atoms(rf.num)
        if factors is not None:
            primes = _prime_factors(rf.cn * rf.num[0] // rf.cd)
            if primes is not None:
                split = tuple(factors), tuple(primes)
        self._splits[rf] = split
        return split

    def _atom_quotients(
        self, rf: RationalFunction
    ) -> list[tuple[RationalFunction, Element]] | None:
        """The quotient rf/p by each distinct atom p of an order-0 integral
        class, with p; None when the split is unknown.  Memoised per model."""
        if rf not in self._quotients:
            split = self._atomize_order_zero(rf)
            self._quotients[rf] = None if split is None else [
                (_over(rf, p.value, exact_div(rf.num, p.value.num)), p)
                for p in self._atoms(*map(dict.fromkeys, split))
            ]
        return self._quotients[rf]

    def factorizations(self, a: Element, max_length: int) -> FactorSearch:
        self.owner == a.model_id or self.check_owned(a)
        if max_length < 1:
            raise InvalidBounds("max_length must be >= 1")
        rf = a.value
        if not _atomic(rf):
            # atoms all have order 0, so no atom product can reach order >= 1;
            # emptiness is exact, not a bound artifact
            return FactorSearch((), False)
        split = self._atomize_order_zero(rf)
        if split is None or sum(map(len, split)) > max_length:
            return FactorSearch((), True)
        # the one factorization, as a chain of nodes over the distinct atoms of
        # the class's quotients in label order, each as often as the split has
        # it (both list the distinct factors, then primes, by first occurrence)
        counts = Counter(split[0] + split[1]).values()
        quotients = self._atom_quotients(rf)
        atoms = sorted(zip((p for _, p in quotients), counts), key=lambda pn: pn[0].label)
        node = None
        for i in reversed([i for i, (_, n) in enumerate(atoms) for _ in range(n)]):
            node = Suffixes(((i, node),), 1)
        return FactorSearch(tuple(p for p, _ in atoms), False, node)

    # -- window construction -------------------------------------------------

    def enumerate_window(self, spec: WindowSpec) -> tuple[Element, ...]:
        coeff_rows = spec.bounds.get("elements")
        if not coeff_rows:
            raise InvalidBounds("zxq windows are explicit: provide element coefficient rows")
        if spec.include_fractional:
            raise InvalidBounds("fractional windows are not supported for the zxq model")
        elems = set()
        for row in coeff_rows:
            if not any(row):
                text = " ".join(map(str, row))
                raise InvalidBounds(f"window element row {text!r} is zero, which names no class")
            e = self.from_coeffs(row)
            if not self.in_domain(e):
                raise InvalidBounds(f"window element {e.label!r} has a non-integer constant term")
            if not self.is_unit(e):
                elems.add(e)
        if not elems:
            raise EmptyWindow("zxq window is empty")
        return tuple(sorted(elems, key=lambda e: e.label))

    # -- boundary and connectivity hooks -------------------------------------

    def boundary_probe(self, a: Element, index: Container) -> bool:
        self.owner == a.model_id or self.check_owned(a)
        rf = a.value
        if rf.order >= 1:
            # infinitely many primes divide, so some successor escapes any
            # finite window
            return True
        quotients = self._atom_quotients(rf)
        if quotients is None:
            return True  # unknown factors: be conservative
        return any(not q.is_unit_class and q not in index for q, _ in quotients)

    def window_index(self, vertices: tuple[Element, ...]) -> _Index:
        {e.model_id for e in vertices} <= {self.owner} or self.check_owned(*vertices)
        return _Index([e.value for e in vertices])

    def successor_candidates(self, a: Element, index: _Index) -> list[tuple[int, Element]]:
        self.owner == a.model_id or self.check_owned(a)
        rf = a.value
        if _atomic(rf) and (quotients := self._atom_quotients(rf)) is not None:
            return [(j, p) for q, p in quotients if (j := index.get(q)) is not None]
        return [(j, self.element_of(q)) for j, q in _divisors(rf, index)]

    def order_rows(self, window: tuple[Element, ...]) -> list[int]:
        # distinct positions, none of them i (a/a is the unit), so the sum is the union
        index = self.window_index(window)
        return [
            1 << i | sum(1 << j for j, _ in _divisors(e.value, index))
            for i, e in enumerate(window)
        ]

    def conn_value(self, a: Element) -> Vec:
        self.owner == a.model_id or self.check_owned(a)
        return Vec((a.value.order,))

    def certificate_atoms(self) -> tuple[Element, ...]:
        return self._certificate_atoms

    def _poly_atoms(self, p: Poly) -> list[Poly] | None:
        """Split a primitive order-0 polynomial into its primitive irreducible
        factors f, which stand for the atoms f / f(0): the declared atoms
        first, then `factor_monic` on the rest.  None when the rest has degree
        above the cap or `factor_monic` cannot split it.  `factor_monic`
        runs once per polynomial per model."""
        factors: list[Poly] = []
        for d in self.declared_atoms:
            while (q := exact_div(p, d)) is not None:
                factors.append(d)
                p = q
        if len(p) - 1 > self.degree_cap:
            return None
        if len(p) > 1:
            if p not in self._factored:
                self._factored[p] = factor_monic(p)
            rest = self._factored[p]
            if rest is None:
                return None
            factors += rest
        return factors

    def quasi_obstruction(self, window) -> dict | None:
        for e in window:
            if e.value.order >= 1:
                return {
                    "reason": (
                        "every atom has order 0 at x=0, while any multiple of this "
                        "element keeps order >= 1 and so is never a product of atoms"
                    ),
                    "witness": e.label,
                }
        return None


def _atomic(rf: RationalFunction) -> bool:
    """Whether a class is a product of atoms (see the module docstring)."""
    return rf.order == 0 and rf.in_domain() and not rf.is_unit_class


class _Index(dict):
    """A window's values by position, for one graph build or one order;
    `groups` holds them by (order at x = 0, primitive part), and `dividing`
    the groups that `_divisors` finds dividing each group."""

    def __init__(self, values: list[RationalFunction]):
        super().__init__(zip(values, range(len(values))))
        self.groups: dict = {}  # (order, primitive part) -> [(position, value)]
        self.dividing: dict = {}  # the same key -> [(members, quotient of the parts)]
        for n, v in enumerate(values):
            self.groups.setdefault((v.order, v.num), []).append((n, v))


def _divisors(rf: RationalFunction, index: _Index) -> list[tuple[int, RationalFunction]]:
    """(j, rf/d) for each d, the jth window value, with rf/d atomic; only a d
    of rf's order whose part divides rf's can give one (module docstring)."""
    key = rf.order, rf.num
    if key not in index.dividing:
        # one exact division per pair of groups of rf's order
        index.dividing[key] = [
            (members, q)
            for (order, num), members in index.groups.items()
            if order == rf.order and (q := exact_div(rf.num, num)) is not None
        ]
    return [
        (j, q)
        for members, part in index.dividing[key]
        for j, d in members
        if _atomic(q := _over(rf, d, part))
    ]


def _over(rf: RationalFunction, d: RationalFunction, part: Poly) -> RationalFunction:
    """rf/d for a polynomial d, where `part` is the quotient of rf's
    polynomial part by d's.  A factor of rf's numerator is coprime to its
    denominator, so no gcd is taken."""
    return RationalFunction.of(rf.cn * d.cd, rf.cd * d.cn, part, rf.den, rf.order - d.order)
