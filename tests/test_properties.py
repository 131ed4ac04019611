"""Property-based tests over randomly generated inputs."""

from fractions import Fraction
from functools import reduce
from itertools import product
from math import floor, gcd
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from divgraph.config import load_config
from divgraph.connectivity import (
    is_almost_atomic,
    is_quasi_atomic,
    quotient_of_atomics,
    weak_components,
)
from divgraph.graph import build_graph, classify, topological_order, window_analysis
from divgraph.lattices import SubgroupDescriptor
from divgraph.models import (
    AntimatterModel,
    D1Model,
    D2Model,
    DVRModel,
    NumericalMonoidModel,
    ZxQModel,
)
from divgraph.models.base import WindowSpec
from divgraph.topology import (
    chain_connected,
    connected_components_topology,
    is_T0,
    poset_to_space,
    window_poset,
)
from divgraph.values import Ambient, Vec
from divgraph.verdicts import Status
from helpers import (
    all_pairs_edges,
    all_pairs_order,
    element_of_label,
    ladder_window,
    poset_from_pairs,
    space_to_poset,
    spelled_multisets,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def win(model, **bounds):
    return model.enumerate_window(WindowSpec(bounds))


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
    return poset_from_pairs(points, rel)


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
        for x, u in zip(s.points, s.opens):
            for y, v in zip(s.points, s.opens):
                if u & v and not pairwise[y] <= pairwise[x]:
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
# generators of an atom subgroup have rational part 0
small_int_vecs = st.builds(lambda a, b: Vec((a, b)), st.integers(-4, 4), st.integers(-4, 4))


@given(st.lists(small_int_vecs, min_size=1, max_size=3), small_vecs)
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
        assert desc.membership(acc)[0]


@given(st.lists(small_int_vecs, min_size=1, max_size=3), small_vecs, small_vecs)
@settings(max_examples=60, deadline=None)
def test_coset_rep_is_canonical(gens, g, h):
    desc = SubgroupDescriptor(Ambient(2, with_rat=True), tuple(gens))
    same = desc.membership(g - h)[0]
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
    pos = {n: i for i, n in enumerate(order)}
    for a, b in g.edges:
        assert pos[b] < pos[a]
        # every edge shrinks the value by an atom's value
        assert m.is_atom(m.quotient(g.vertices[a], g.vertices[b]))
    # downward-closed window: nothing escapes
    assert g.boundary == frozenset()
    # an atom is a member that is not a sum of two nonzero members
    members = {0}
    for n in range(1, max_value + 1):
        if any(n - k in members for k in gens):
            members.add(n)
    for v in g.vertices:
        n = v.value.ints[0]
        indecomposable = not any(h in members and n - h in members for h in range(1, n))
        assert m.is_atom(v) == indecomposable, v.label


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
    assert set(report["verdicts"]) == set(order)


# -- graph edges against the all-pairs definition ------------------------------

value_windows = st.one_of(
    st.builds(lambda n: (DVRModel(), {"max_exponent": n}), st.integers(1, 8)),
    st.builds(
        lambda v, d: (AntimatterModel(), {"max_value": v, "max_den": d}),
        st.integers(1, 3),
        st.integers(1, 3),
    ),
    st.builds(
        lambda gens, v: (NumericalMonoidModel(gens), {"max_value": v}),
        monoid_gens,
        st.integers(9, 24),
    ),
    st.builds(
        lambda k, d, a: (D1Model(), {"k_max": k, "den_max": d, "alpha_max": a}),
        st.integers(1, 2),
        st.integers(1, 2),
        st.integers(1, 2),
    ),
    st.builds(
        lambda k, j: (D2Model(), {"k_max": k, "j_max": j}),
        st.integers(1, 3),
        st.integers(1, 3),
    ),
)


@given(value_windows)
@example((NumericalMonoidModel((4, 6)), {"max_value": 12}))
@example((NumericalMonoidModel((6, 10, 15)), {"max_value": 30}))
@settings(max_examples=40, deadline=None)
def test_fractional_window_gets_the_verdicts_of_its_integral_part(model_bounds):
    # the verdicts judge the integral non-units; a path through the unit or
    # a non-integral class never completes, so the extra vertices of a
    # fractional window change no verdict
    m, bounds = model_bounds
    integral = m.enumerate_window(WindowSpec(bounds))
    fractional = m.enumerate_window(WindowSpec(bounds, include_fractional=True))
    assert set(integral) < set(fractional)
    expected = classify(m, build_graph(m, integral))["verdicts"]
    assert classify(m, build_graph(m, fractional))["verdicts"] == expected


@given(value_windows, st.booleans())
@settings(max_examples=60, deadline=None)
def test_graph_edges_match_all_pairs(model_bounds, fractional):
    m, bounds = model_bounds
    w = m.enumerate_window(WindowSpec(bounds, include_fractional=fractional))
    g = build_graph(m, w)
    assert g.edges == all_pairs_edges(m, w)
    assert g.atoms == tuple(m.quotient(w[i], w[j]) for i, j in g.edges)


@given(value_windows, st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_counts_match_the_spelled_multisets(model_bounds, fractional, data):
    # the classifier counts canonical paths and lists multisets only where a
    # sorted path can be missing; a sub-window (some elements dropped) makes
    # such places
    m, bounds = model_bounds
    w = m.enumerate_window(WindowSpec(bounds, include_fractional=fractional))
    if data.draw(st.booleans()):
        keep = data.draw(st.lists(st.booleans(), min_size=len(w), max_size=len(w)))
        w = tuple(e for e, k in zip(w, keep) if k) or w
    g = build_graph(m, w)
    reference = spelled_multisets(g)
    info = window_analysis(g)
    report = classify(m, g)
    for label, expected in reference.items():
        assert len(info[label].factorizations) == len(expected), label
        assert report["factorization_counts"][label] == len(expected), label
        lengths = tuple(sorted({len(f) for f in expected}))
        assert report["factorization_lengths"][label] == lengths, label
        assert set(info[label].factorizations) == expected, label


def popoviciu(a: int, b: int, n: int) -> int:
    """The number of ways to write n as x*a + y*b with x, y >= 0, for coprime
    a and b (Popoviciu, 1953): n/(ab) - {b'n/a} - {a'n/b} + 1, where
    b'b = 1 mod a, a'a = 1 mod b and {q} is the fractional part of q."""

    def frac(q: Fraction) -> Fraction:
        return q - floor(q)

    count = Fraction(n, a * b) - frac(Fraction(pow(b, -1, a) * n, a))
    count -= frac(Fraction(pow(a, -1, b) * n, b)) - 1
    assert count.denominator == 1
    return int(count)


@given(st.integers(2, 9), st.integers(3, 13), st.integers(9, 80))
@settings(max_examples=40, deadline=None)
def test_counts_match_popoviciu(a, b, max_value):
    assume(a < b and gcd(a, b) == 1)
    m = NumericalMonoidModel((a, b))
    g = build_graph(m, win(m, max_value=max_value))
    counts = classify(m, g)["factorization_counts"]
    assert counts == {v.label: popoviciu(a, b, v.value.ints[0]) for v in g.vertices}


def test_counts_match_popoviciu_on_ladder_windows():
    # the numerical windows of the benchmark's value ladder are this size
    for a, b, max_value in ((2, 3, 200), (2, 5, 182), (3, 7, 150)):
        m = NumericalMonoidModel((a, b))
        g = build_graph(m, win(m, max_value=max_value))
        counts = classify(m, g)["factorization_counts"]
        assert counts == {v.label: popoviciu(a, b, v.value.ints[0]) for v in g.vertices}


def test_d2_counts_match_the_closed_form():
    # the atomic d2 values are the (k, j) with k, j >= 0, not both 0, and
    # y^k x^j is their one factorization, of k + j atoms; the other values
    # have none
    m, w = ladder_window("d2")
    report = classify(m, build_graph(m, w))
    for v in w:
        k, j = v.value.ints
        atomic = k >= 0 and j >= 0
        assert report["factorization_counts"][v.label] == int(atomic), v.label
        assert report["factorization_lengths"][v.label] == ((k + j,) if atomic else ()), v.label


@given(value_windows, st.booleans())
@settings(max_examples=60, deadline=None)
def test_labels_name_classes_one_to_one(model_bounds, fractional):
    # elements compare by value and print by label, so label_for must be
    # injective on every value a window or its quotients reach, the unit's
    # label included
    m, bounds = model_bounds
    w = m.enumerate_window(WindowSpec(bounds, include_fractional=fractional))
    labels = [e.label for e in w]
    assert labels == sorted(set(labels))  # distinct, in label order
    pool = [*w, m.element(Vec((0,) * m.ambient.dim)), *(m.quotient(a, b) for a in w for b in w)]
    by_value = {}
    for e in pool:
        assert by_value.setdefault(e, e.label) == e.label
    assert len(set(by_value.values())) == len(by_value)


def test_zxq_graph_edges_match_all_pairs():
    for path in sorted(CONFIG_DIR.glob("zxq*.cfg")):
        m, spec = load_config(path).build()
        w = m.enumerate_window(spec)
        g = build_graph(m, w)
        assert g.edges and g.edges == all_pairs_edges(m, w), path.name
        assert g.atoms == tuple(m.quotient(w[i], w[j]) for i, j in g.edges), path.name


# -- the factorization order against the all-pairs definition -----------------

@given(value_windows, st.booleans())
@settings(max_examples=60, deadline=None)
def test_order_rows_match_all_pairs(model_bounds, fractional):
    m, bounds = model_bounds
    # value models compare only values of equal rational part, which is
    # exact because every atom value has rational part 0
    assert all(v.rat == 0 for v in m.atom_values)
    w = m.enumerate_window(WindowSpec(bounds, include_fractional=fractional))
    assert window_poset(m, w).rows == all_pairs_order(m, w)


def test_zxq_order_rows_match_all_pairs():
    for path in sorted(CONFIG_DIR.glob("zxq*.cfg")):
        m, spec = load_config(path).build()
        w = m.enumerate_window(spec)
        assert window_poset(m, w).rows == all_pairs_order(m, w), path.name


# -- almost and quasi atomicity ------------------------------------------------

@given(value_windows, st.booleans())
@settings(max_examples=60, deadline=None)
def test_atomicity_verdicts_are_decided_and_certified(model_bounds, fractional):
    m, bounds = model_bounds
    w = m.enumerate_window(WindowSpec(bounds, include_fractional=fractional))
    by_label = {e.label: e for e in w}
    atoms = {p.label: p for p in m.certificate_atoms()}
    almost, quasi = is_almost_atomic(m, w), is_quasi_atomic(m, w)
    assert Status.INCONCLUSIVE not in (almost.status, quasi.status)
    if almost.status is Status.HOLDS:
        assert quasi.status is Status.HOLDS
        for label, mult in almost.evidence["certificates"].items():
            product = reduce(m.multiply, (atoms[a] for a in mult), by_label[label])
            assert m.is_atomic_element(product), label
    if quasi.status is Status.HOLDS:
        for label, b_label in quasi.evidence["certificates"].items():
            e = by_label[label]
            if b_label is None:
                assert m.is_atomic_element(e), label
                continue
            b = element_of_label(m, b_label)
            assert m.in_domain(b) and m.is_atomic_element(m.multiply(e, b)), label


# -- components against the quotient route -----------------------------------

@given(st.integers(2, 3), st.integers(1, 2))
@settings(max_examples=10, deadline=None)
def test_d2_components_agree_with_quotients(k_max, j_max):
    m = D2Model()
    g = build_graph(m, win(m, k_max=k_max, j_max=j_max))
    comps = weak_components(g)
    cmap = {label: comp[0] for comp in comps for label in comp}
    vertex = {v.label: v for v in g.vertices}
    for rep in (vertex[c[0]] for c in comps):
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

    assert {g.vertices[n].label for n in sinks(g)[0]} == {"pi"}


# -- zxq: one split behind factorizations and is_atom --------------------------

ZXQ_PRIMES = ((2,), (3,), (5,), (7,))
ZXQ_POLY_ATOMS = ((1, 1), (1, -1), (1, 2), (1, 0, 1), (1, 1, 1), (1, 1, 0, 1))


@given(
    st.lists(st.sampled_from(ZXQ_PRIMES), max_size=4),
    st.lists(st.sampled_from(ZXQ_POLY_ATOMS), max_size=3).filter(
        lambda fs: sum(len(f) - 1 for f in fs) <= 3
    ),
)
@settings(max_examples=60, deadline=None)
def test_zxq_factorizations_recover_atom_products(primes, polys):
    factors = primes + polys
    assume(factors)
    m = ZxQModel()
    atoms = [m.from_coeffs(f) for f in factors]
    e = atoms[0]
    for a in atoms[1:]:
        e = m.multiply(e, a)
    search = m.factorizations(e, 10)
    assert not search.bound_too_small
    assert [sorted(a.label for a in f.atoms) for f in search.found] == [
        sorted(a.label for a in atoms)
    ]
    assert m.is_atom(e) == (len(factors) == 1)


# -- zxq: graphs, orders and boundaries against their definitions ---------------

# what multiplies the atoms of a window top: 1, x, x/2 or x^2
ZXQ_MONOMIALS = ((1,), (0, 1), (0, Fraction(1, 2)), (0, 0, 1))


def poly_mul(p, q) -> tuple:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


zxq_tops = st.tuples(
    st.sampled_from(ZXQ_MONOMIALS),
    st.lists(st.sampled_from(ZXQ_PRIMES), max_size=2),
    st.lists(st.sampled_from(ZXQ_POLY_ATOMS), max_size=2).filter(
        lambda fs: sum(len(f) - 1 for f in fs) <= 3
    ),
)


@given(st.lists(zxq_tops, min_size=1, max_size=2), st.data())
@settings(max_examples=40, deadline=None)
def test_zxq_graph_order_and_boundary_match_their_definitions(tops, data):
    # each top with every sub-product of its atoms, then a random
    # sub-window, so that some atom quotients escape
    rows = set()
    for monomial, primes, polys in tops:
        factors = primes + polys
        for keep in product((False, True), repeat=len(factors)):
            chosen = (f for f, k in zip(factors, keep) if k)
            rows.add(reduce(poly_mul, chosen, tuple(map(Fraction, monomial))))
    rows = sorted(rows)
    keep = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    rows = [r for r, k in zip(rows, keep) if k and r != (1,)]
    assume(rows)
    m = ZxQModel()
    w = m.enumerate_window(WindowSpec({"elements": rows}))
    g = build_graph(m, w)
    assert g.edges == all_pairs_edges(m, w)
    assert g.atoms == tuple(m.quotient(w[i], w[j]) for i, j in g.edges)
    assert window_poset(m, w).rows == all_pairs_order(m, w)

    def escapes(v) -> bool:
        # boundary_probe's rule: some atom p has v/p integral, not a unit
        # and outside the window; every prime divides a positive order
        if v.value.order >= 1:
            return True
        search = m.factorizations(v, 64)
        assert not search.bound_too_small
        (f,) = search.found
        quotients = (m.quotient(v, p) for p in f.atoms)
        return any(not m.is_unit(q) and q not in w for q in quotients)

    assert g.boundary == {n for n, v in enumerate(w) if escapes(v)}
