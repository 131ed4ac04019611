"""Weak components, atom-subgroup cosets, and the generalized atomicity
verdicts (quotient-of-atomics, almost atomic, quasi atomic)."""

from __future__ import annotations

from functools import reduce

from .bitrows import classes, select
from .elements import Element
from .graph import DivGraph
from .lattices import SubgroupDescriptor
from .models.base import DivisibilityModel
from .verdicts import Verdict, fails, holds, inconclusive


# -- weak components ---------------------------------------------------------

def weak_components(graph: DivGraph) -> list[tuple[str, ...]]:
    """Partition of the vertex labels under undirected reachability, each
    component in vertex (label) order, components in order of their first
    vertex."""
    near = [0] * len(graph.vertices)
    for i, j in graph.edges:
        near[i] |= 1 << j
        near[j] |= 1 << i
    labels = [v.label for v in graph.vertices]
    return [select(labels, c) for c in classes(near)]


# -- the subgroup generated by the atom values -------------------------------

def atom_subgroup(model: DivisibilityModel) -> SubgroupDescriptor:
    values = tuple(model.conn_value(p) for p in model.certificate_atoms())
    return SubgroupDescriptor(model.ambient, values)


# -- quotient of atomics -----------------------------------------------------

def quotient_of_atomics(
    model: DivisibilityModel, a: Element, b: Element, desc: SubgroupDescriptor | None = None
) -> Verdict:
    """Can a/b be written as a quotient of two atom products?  Exactly when
    conn(a) - conn(b) lies in the atom subgroup (see `conn_value`): Holds
    with its coefficients over the subgroup generators, Fails with the two
    cosets.  `desc` is the model's `atom_subgroup`, for callers that ask
    about many pairs of one model."""
    model.owner == a.model_id == b.model_id or model.check_owned(a, b)
    if desc is None:
        desc = atom_subgroup(model)
    diff = model.conn_value(a) - model.conn_value(b)
    coeffs = desc.membership(diff)
    if coeffs is not None:
        return holds({"coefficients": coeffs}, "analytic")
    return fails(
        {
            "value_difference": diff.render(desc.ambient.grid),
            "coset_of_a": desc.coset_label(model.conn_value(a)),
            "coset_of_b": desc.coset_label(model.conn_value(b)),
        },
        "analytic",
    )


# -- almost / quasi atomicity -------------------------------------------------

def _atom_multiplier(model, desc, e) -> list[Element] | None:
    """Atoms whose product times e is atomic, or None when e's value escapes
    the atom subgroup `desc`: each atom of a negative coefficient c of e, -c
    times (e times them has the positive part's value), plus one atom when
    no coefficient is positive.  Complete where the atomic elements are the
    nonzero atom products' values: value models, and zxq (order-0 non-units)."""
    if (coeffs := desc.membership(model.conn_value(e))) is None:
        return None
    atoms = model.certificate_atoms()
    den = [atom for c, atom in zip(coeffs, atoms) for _ in range(-c)]
    return den if any(c > 0 for c in coeffs) else den + list(atoms[:1])


def _makes_atomic(model: DivisibilityModel, e: Element, b: Element | None) -> bool:
    return b is not None and model.in_domain(b) and model.is_atomic_element(model.multiply(e, b))


def is_almost_atomic(model: DivisibilityModel, window) -> Verdict:
    """An atomic element's certificate is empty and costs no subgroup
    question; a non-atomic one is a witness when its value escapes the atom
    subgroup, else certified by its `_atom_multiplier` or left unresolved.
    Fails on any witness, else Inconclusive on any unresolved.  The window
    is taken as given: distinct elements in label order."""
    desc = atom_subgroup(model)
    certificates: dict[str, list[str]] = {}
    witnesses: list[str] = []
    unresolved: list[str] = []
    for e in window:
        atomic = model.is_atomic_element(e)
        mult = [] if atomic else _atom_multiplier(model, desc, e)
        if mult is None:
            witnesses.append(e.label)
        elif atomic or model.is_atomic_element(reduce(model.multiply, mult, e)):
            certificates[e.label] = sorted(m.label for m in mult)
        else:
            unresolved.append(e.label)
    if witnesses:
        return fails({"value_outside_atom_subgroup": witnesses}, "analytic")
    if unresolved:
        return inconclusive({"unresolved": unresolved})
    return holds({"certificates": certificates})


def is_quasi_atomic(model: DivisibilityModel, window) -> Verdict:
    """Fails on the model's `quasi_obstruction`; otherwise each non-atomic
    e is certified by an integral b with e*b atomic, the model's
    `quasi_complement` or else the product of e's `_atom_multiplier`, and
    the verdict is Inconclusive where neither works.  The window is taken as
    given: distinct elements in label order."""
    obstruction = model.quasi_obstruction(window)
    if obstruction is not None:
        return fails(obstruction, "analytic")
    desc = atom_subgroup(model)
    certificates: dict[str, str | None] = {}
    unresolved: list[str] = []
    for e in window:
        if model.is_atomic_element(e):
            certificates[e.label] = None  # already atomic, multiplier is a unit
            continue
        b = model.quasi_complement(e)
        if not _makes_atomic(model, e, b):
            mult = _atom_multiplier(model, desc, e)
            b = reduce(model.multiply, mult) if mult else None
            if not _makes_atomic(model, e, b):
                unresolved.append(e.label)
                continue
        certificates[e.label] = b.label
    if unresolved:
        return inconclusive({"unresolved": unresolved})
    return holds({"certificates": certificates})
