"""Weak components, atom-subgroup cosets, and the generalized atomicity
verdicts (quotient-of-atomics, almost atomic, quasi atomic)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .elements import Element
from .errors import ModelMismatch
from .graph import DivGraph, partition
from .lattices import SubgroupDescriptor
from .models.base import DivisibilityModel
from .models.zxq import ZxQModel
from .values import Vec
from .verdicts import Verdict, fails, holds, inconclusive


# -- weak components ---------------------------------------------------------

def weak_components(graph: DivGraph) -> list[tuple[str, ...]]:
    """Partition of the vertex labels under undirected reachability, each
    component sorted, components ordered by smallest label."""
    groups = partition(
        [v.label for v in graph.vertices], ((a.label, b.label) for a, b in graph.edges)
    )
    return sorted((tuple(sorted(g)) for g in groups), key=lambda c: c[0])


def component_map(graph: DivGraph) -> dict[str, str]:
    """Vertex label -> deterministic component id (the smallest member)."""
    return {label: comp[0] for comp in weak_components(graph) for label in comp}


# -- the subgroup generated by the atom values -------------------------------

def atom_subgroup(model: DivisibilityModel) -> SubgroupDescriptor:
    values = model.atom_conn_values()
    return SubgroupDescriptor(model.ambient, tuple(values), no_atoms=not values)


def component_label(model: DivisibilityModel, a: Element) -> str:
    """Canonical coset label of a's value modulo the atom subgroup; equal
    labels characterise membership of the value difference."""
    return atom_subgroup(model).coset_label(model.conn_value(a))


# -- quotient-of-atomics certificates ----------------------------------------

@dataclass(frozen=True)
class Certificate:
    numerator_atoms: tuple[Element, ...]
    denominator_atoms: tuple[Element, ...]
    target_pair: tuple[Element, Element]

    def to_jsonable(self) -> dict:
        return {
            "numerator_atoms": sorted(e.label for e in self.numerator_atoms),
            "denominator_atoms": sorted(e.label for e in self.denominator_atoms),
            "target": [self.target_pair[0].label, self.target_pair[1].label],
        }


def quotient_of_atomics(model: DivisibilityModel, a: Element, b: Element) -> Verdict:
    """Can a/b be written as a quotient of two atom products?  Holds with a
    Certificate, Fails when the value argument refutes existence, otherwise
    Inconclusive."""
    model.check_owned(a, b)
    desc = atom_subgroup(model)
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
    atoms = model.certificate_atoms()
    num: list[Element] = []
    den: list[Element] = []
    for c, atom in zip(coeffs, atoms):
        (num if c > 0 else den).extend([atom] * abs(c))
    check = Vec((0,) * model.ambient.dim)
    for e in num:
        check = check + model.conn_value(e)
    for e in den:
        check = check - model.conn_value(e)
    assert check == diff, "certificate does not balance the value difference"
    return holds(Certificate(tuple(num), tuple(den), (a, b)))


# -- almost / quasi atomicity -------------------------------------------------

def _atom_multiplier_from_coeffs(model, coeffs) -> list[Element]:
    atoms = model.certificate_atoms()
    return [a for c, a in zip(coeffs, atoms) for _ in range(-c) if c < 0]


def _apply(model, a: Element, multiplier: list[Element]) -> Element:
    out = a
    for m in multiplier:
        out = model.multiply(out, m)
    return out


def is_almost_atomic(model: DivisibilityModel, window, search_bound: int = 8) -> Verdict:
    """Fails when some element's value escapes the atom subgroup (no atom
    multiple can ever become atomic); Holds on the window with a per-element
    atom multiset certificate otherwise."""
    desc = atom_subgroup(model)
    elems = sorted(set(window), key=lambda e: e.label)
    witnesses = [
        e.label for e in elems if not desc.membership(model.conn_value(e))[0]
    ]
    if witnesses:
        return fails({"value_outside_atom_subgroup": witnesses}, "analytic")
    certificates: dict[str, list[str]] = {}
    unresolved: list[str] = []
    for e in elems:
        if model.is_atomic_element(e):
            certificates[e.label] = []
            continue
        ok, coeffs = desc.membership(model.conn_value(e))
        mult = _atom_multiplier_from_coeffs(model, coeffs) if ok else None
        if mult is not None and model.is_atomic_element(_apply(model, e, mult)):
            certificates[e.label] = sorted(m.label for m in mult)
            continue
        found = _search_atom_multiplier(model, e, search_bound)
        if found is not None:
            certificates[e.label] = sorted(m.label for m in found)
        else:
            unresolved.append(e.label)
    if unresolved:
        return inconclusive({"unresolved": unresolved, "search_bound": search_bound})
    return holds({"certificates": certificates})


def _search_atom_multiplier(model, e: Element, bound: int):
    atoms = model.certificate_atoms()
    if not atoms:
        return None
    for size in range(1, bound + 1):
        for combo in combinations_with_replacement(atoms, size):
            if model.is_atomic_element(_apply(model, e, list(combo))):
                return list(combo)
    return None


def is_quasi_atomic(model: DivisibilityModel, window) -> Verdict:
    """Per-element search for an integral multiplier making the product
    atomic; models may certify impossibility outright."""
    elems = sorted(set(window), key=lambda e: e.label)
    obstruction = model.quasi_obstruction(elems)
    if obstruction is not None:
        return fails(obstruction, "analytic")
    certificates: dict[str, str | None] = {}
    unresolved: list[str] = []
    for e in elems:
        if model.is_atomic_element(e):
            certificates[e.label] = None  # already atomic, multiplier is a unit
            continue
        b = model.quasi_complement(e)
        if b is not None and model.in_domain(b) and model.is_atomic_element(
            model.multiply(e, b)
        ):
            certificates[e.label] = b.label
            continue
        hit = next(
            (
                cand.label
                for cand in elems
                if model.is_atomic_element(model.multiply(e, cand))
            ),
            None,
        )
        if hit is not None:
            certificates[e.label] = hit
        else:
            unresolved.append(e.label)
    if unresolved:
        return inconclusive({"unresolved": unresolved})
    return holds({"certificates": certificates})


# -- the concrete prime-ideal witness for the polynomial model ----------------

def prime_witness_check_zxq(model: DivisibilityModel, window) -> dict:
    """Verifies over the window that every atom has order 0 at x = 0 and that
    every window element of positive order is a non-atom, exhibiting a prime
    ideal without irreducible elements."""
    if not isinstance(model, ZxQModel):
        raise ModelMismatch("prime_witness_check_zxq requires the zxq model")
    elems = sorted(set(window), key=lambda e: e.label)
    atoms = [e.label for e in elems if model.is_atom(e)]
    ideal = [e.label for e in elems if e.symbolic.order >= 1]
    bad_atoms = [
        e.label for e in elems if model.is_atom(e) and e.symbolic.order >= 1
    ]
    return {
        "atoms": atoms,
        "ideal_members": ideal,
        "ideal_atoms": bad_atoms,
        "holds": not bad_atoms,
    }
