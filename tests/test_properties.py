"""Property-based tests over randomly generated inputs."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from divgraph.connectivity import component_map, quotient_of_atomics, weak_components
from divgraph.graph import build_graph, classify, topological_order, window_analysis
from divgraph.lattices import SubgroupDescriptor
from divgraph.models import D2Model, DVRModel, NumericalMonoidModel
from divgraph.models.base import WindowSpec
from divgraph.topology import (
    FinitePoset,
    chain_connected,
    connected_components_topology,
    is_T0,
    poset_to_space,
    space_to_poset,
)
from divgraph.values import Ambient, Vec, vec
from divgraph.verdicts import Status


def win(model, **bounds):
    return model.enumerate_window(WindowSpec(model.id, bounds))


# -- random posets -----------------------------------------------------------

@st.composite
def random_posets(draw, max_points=12):
    n = draw(st.integers(min_value=1, max_value=max_points))
    points = tuple(f"p{i}" for i in range(n))
    rel = {(p, p) for p in points}
    # draw a random sub-diagonal relation on indices, then transitively close;
    # i < j keeps it antisymmetric
    for j in range(n):
        for i in range(j):
            if draw(st.booleans()):
                rel.add((points[i], points[j]))
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return FinitePoset(points, frozenset(rel))


@given(random_posets())
@settings(max_examples=60, deadline=None)
def test_poset_space_round_trip(p):
    p.check_axioms()
    s = poset_to_space(p)
    s.check_basis()
    assert is_T0(s)
    q = space_to_poset(s)
    assert q.relation == p.relation
    assert set(q.elements) == set(p.elements)


@given(random_posets())
@settings(max_examples=40, deadline=None)
def test_topology_components_match_comparability_graph(p):
    s = poset_to_space(p)
    comps = connected_components_topology(s)
    # reference: union-find over the strict comparability pairs
    parent = {x: x for x in p.elements}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in p.relation:
        if a != b:
            parent[find(a)] = find(b)
    ref = {}
    for x in p.elements:
        ref.setdefault(find(x), set()).add(x)
    assert {frozenset(c) for c in comps} == {frozenset(g) for g in ref.values()}
    # reference: closure of the literal definition, U_x and U_y intersect
    pairwise = {x: {x} for x in s.points}
    changed = True
    while changed:
        changed = False
        for x in s.points:
            for y in s.points:
                if s.min_open[x] & s.min_open[y] and not pairwise[y] <= pairwise[x]:
                    pairwise[x] |= pairwise[y]
                    changed = True
    assert {frozenset(g) for g in pairwise.values()} == {frozenset(c) for c in comps}
    comp_of = {x: c for c in comps for x in c}
    for x in s.points:
        for y in s.points:
            assert chain_connected(s, x, y) == (comp_of[x] is comp_of[y])


# -- subgroups ---------------------------------------------------------------

small_vecs = st.builds(
    lambda a, b, num, den: Vec((a, b), Fraction(num, den)),
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.integers(-6, 6),
    st.integers(1, 4),
)


@given(st.lists(small_vecs, min_size=1, max_size=3), small_vecs)
@settings(max_examples=80, deadline=None)
def test_subgroup_membership_sound_and_closed(gens, target):
    desc = SubgroupDescriptor(Ambient(2, with_rat=True), tuple(gens))
    ok, coeffs = desc.membership(target)
    if ok:
        acc = Vec((0, 0))
        for c, g in zip(coeffs, gens):
            acc = acc + g.scaled(c)
        assert acc == target
    # every small integer combination must be accepted
    for c0 in (-2, 0, 1, 3):
        acc = Vec((0, 0))
        for g in gens:
            acc = acc + g.scaled(c0)
        assert acc in desc


@given(st.lists(small_vecs, min_size=1, max_size=3), small_vecs, small_vecs)
@settings(max_examples=60, deadline=None)
def test_coset_rep_is_canonical(gens, g, h):
    desc = SubgroupDescriptor(Ambient(2, with_rat=True), tuple(gens))
    same = (g - h) in desc
    assert same == (desc.coset_rep(g) == desc.coset_rep(h))


# -- graphs over random numerical monoids ------------------------------------

monoid_gens = st.sets(st.integers(2, 9), min_size=2, max_size=3).map(tuple)


@given(monoid_gens, st.integers(8, 24))
@settings(max_examples=30, deadline=None)
def test_graph_invariants_numerical(gens, max_value):
    m = NumericalMonoidModel(gens)
    g = build_graph(m, win(m, max_value=max_value))
    # acyclicity plus divisors-first order
    order = topological_order(g)
    pos = {l: i for i, l in enumerate(order)}
    for a, b in g.edges:
        assert pos[b.label] < pos[a.label]
        # every edge shrinks the value by an atom's value
        assert m.is_atom(m.quotient(a, b))
    # downward-closed window: nothing escapes
    assert g.boundary == frozenset()


@given(monoid_gens, st.integers(8, 20))
@settings(max_examples=20, deadline=None)
def test_path_lengths_match_oracle_numerical(gens, max_value):
    m = NumericalMonoidModel(gens)
    g = build_graph(m, win(m, max_value=max_value))
    info = window_analysis(g)
    for v in g.vertices:
        search = m.factorizations(v, max_value)  # value bounds the length
        assert not search.bound_too_small
        oracle = {tuple(sorted(e.label for e in f.atoms)) for f in search.found}
        assert oracle == set(info[v.label].factorizations), v.label


@given(monoid_gens, st.integers(8, 20))
@settings(max_examples=20, deadline=None)
def test_classify_chain_never_contradicted(gens, max_value):
    m = NumericalMonoidModel(gens)
    g = build_graph(m, win(m, max_value=max_value))
    report = classify(m, g)  # internal assertion enforces the chain
    order = ["Atomic", "ACCP", "BFD", "FFD", "HFD"]
    assert set(report.verdicts) == set(order)


# -- components against the quotient route -----------------------------------

@given(st.integers(2, 3), st.integers(1, 2))
@settings(max_examples=10, deadline=None)
def test_d2_components_agree_with_quotients(k_max, j_max):
    m = D2Model()
    g = build_graph(m, win(m, k_max=k_max, j_max=j_max))
    cmap = component_map(g)
    comps = weak_components(g)
    reps = [g.by_label(c[0]) for c in comps]
    for rep in reps:
        for v in g.vertices:
            verdict = quotient_of_atomics(m, v, rep)
            assert verdict.status is not Status.INCONCLUSIVE
            same = cmap[v.label] == cmap[rep.label]
            assert same == (verdict.status is Status.HOLDS)


@given(st.integers(2, 12))
@settings(max_examples=15, deadline=None)
def test_dvr_sink_is_the_atom(n):
    m = DVRModel()
    g = build_graph(m, win(m, max_exponent=n))
    from divgraph.graph import sinks

    assert {s.label for s in sinks(g)} == {"pi"}
