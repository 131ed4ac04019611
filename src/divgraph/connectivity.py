"""Weak components, atom-subgroup cosets, and the generalized atomicity
verdicts (quotient-of-atomics, almost atomic, quasi atomic)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .elements import Element
from .graph import DivGraph, partition
from .lattices import SubgroupDescriptor
from .models.base import DivisibilityModel
from .verdicts import Verdict, fails, holds, inconclusive


# -- weak components ---------------------------------------------------------

def weak_components(graph: DivGraph) -> list[tuple[str, ...]]:
    """Partition of the vertex labels under undirected reachability, each
    component sorted, components ordered by smallest label."""
    groups = partition(
        [v.label for v in graph.vertices], ((a.label, b.label) for a, b in graph.edges)
    )
    return sorted((tuple(sorted(g)) for g in groups), key=lambda c: c[0])


# -- the subgroup generated by the atom values -------------------------------

def atom_subgroup(model: DivisibilityModel) -> SubgroupDescriptor:
    values = tuple(model.conn_value(p) for p in model.certificate_atoms())
    return SubgroupDescriptor(model.ambient, values, no_atoms=not values)


# -- quotient-of-atomics certificates ----------------------------------------

@dataclass(frozen=True)
class Certificate:
    numerator_atoms: tuple[Element, ...]
    denominator_atoms: tuple[Element, ...]
    target_pair: tuple[Element, Element]


def quotient_of_atomics(model: DivisibilityModel, a: Element, b: Element) -> Verdict:
    """Can a/b be written as a quotient of two atom products?  Holds with a
    Certificate, Fails when the value argument refutes existence, otherwise
    Inconclusive."""
    return _quotient_of_atomics(model, atom_subgroup(model), a, b)


def _quotient_of_atomics(
    model: DivisibilityModel, desc: SubgroupDescriptor, a: Element, b: Element
) -> Verdict:
    """quotient_of_atomics against the model's atom subgroup `desc`, for
    callers that ask about many pairs of one model."""
    model.check_owned(a, b)
    diff = model.conn_value(a) - model.conn_value(b)
    ok, coeffs = desc.membership(diff)
    if not ok:
        return fails(
            {
                "value_difference": str(diff),
                "coset_of_a": desc.coset_label(model.conn_value(a)),
                "coset_of_b": desc.coset_label(model.conn_value(b)),
            },
            "analytic",
        )
    override = getattr(model, "quotient_certificate", None)
    if override is not None:
        pair = override(a, b)
        if pair is None:
            return inconclusive({"reason": "factorisation exceeded the degree cap"})
        num, den = pair
        return holds(Certificate(num, den, (a, b)))
    num, den = _atom_split(model.certificate_atoms(), coeffs)
    check = model.ambient.zero()
    for e in num:
        check = check + model.conn_value(e)
    for e in den:
        check = check - model.conn_value(e)
    assert check == diff, "certificate does not balance the value difference"
    return holds(Certificate(tuple(num), tuple(den), (a, b)))


def _atom_split(atoms, coeffs) -> tuple[list[Element], list[Element]]:
    """The numerator and the denominator of atom-subgroup membership
    coefficients over `atoms`: the atoms with a positive and with a negative
    coefficient, each repeated, so the value is sum(num) - sum(den)."""
    num: list[Element] = []
    den: list[Element] = []
    for c, atom in zip(coeffs, atoms):
        (num if c > 0 else den).extend([atom] * abs(c))
    return num, den


# -- almost / quasi atomicity -------------------------------------------------

def _atom_multiplier(atoms, coeffs) -> list[Element]:
    """Atoms whose product times e is atomic, from e's membership
    coefficients over `atoms`: the denominator, since e times it has the
    numerator's value, plus one atom when the numerator is empty.  Complete
    where the atomic elements are the nonzero atom products' values: on
    value models, and on zxq (the order-0 non-units)."""
    num, den = _atom_split(atoms, coeffs)
    return den if num else den + list(atoms[:1])


def _makes_atomic(model: DivisibilityModel, e: Element, b: Element | None) -> bool:
    return b is not None and model.in_domain(b) and model.is_atomic_element(model.multiply(e, b))


def is_almost_atomic(model: DivisibilityModel, window) -> Verdict:
    """Fails when some element's value escapes the atom subgroup (no atom
    multiple can ever become atomic); otherwise each non-atomic element is
    certified by its `_atom_multiplier`, Inconclusive where that fails."""
    desc = atom_subgroup(model)
    elems = sorted(set(window), key=lambda e: e.label)
    coeffs = {e.label: desc.membership(model.conn_value(e))[1] for e in elems}
    witnesses = [label for label, c in coeffs.items() if c is None]
    if witnesses:
        return fails({"value_outside_atom_subgroup": witnesses}, "analytic")
    atoms = model.certificate_atoms()
    certificates: dict[str, list[str]] = {}
    unresolved: list[str] = []
    for e in elems:
        if model.is_atomic_element(e):
            certificates[e.label] = []
            continue
        mult = _atom_multiplier(atoms, coeffs[e.label])
        if model.is_atomic_element(reduce(model.multiply, mult, e)):
            certificates[e.label] = sorted(m.label for m in mult)
        else:
            unresolved.append(e.label)
    if unresolved:
        return inconclusive({"unresolved": unresolved})
    return holds({"certificates": certificates})


def is_quasi_atomic(model: DivisibilityModel, window) -> Verdict:
    """Fails on the model's `quasi_obstruction`; otherwise each non-atomic
    e is certified by an integral b with e*b atomic, the model's
    `quasi_complement` or else the product of e's `_atom_multiplier`, and
    the verdict is Inconclusive where neither works."""
    elems = sorted(set(window), key=lambda e: e.label)
    obstruction = model.quasi_obstruction(elems)
    if obstruction is not None:
        return fails(obstruction, "analytic")
    desc = atom_subgroup(model)
    certificates: dict[str, str | None] = {}
    unresolved: list[str] = []
    for e in elems:
        if model.is_atomic_element(e):
            certificates[e.label] = None  # already atomic, multiplier is a unit
            continue
        b = model.quasi_complement(e)
        if not _makes_atomic(model, e, b):
            ok, coeffs = desc.membership(model.conn_value(e))
            mult = _atom_multiplier(model.certificate_atoms(), coeffs) if ok else []
            b = reduce(model.multiply, mult) if mult else None
        if _makes_atomic(model, e, b):
            certificates[e.label] = b.label
        else:
            unresolved.append(e.label)
    if unresolved:
        return inconclusive({"unresolved": unresolved})
    return holds({"certificates": certificates})
