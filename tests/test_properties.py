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
    atom_subgroup,
    is_almost_atomic,
    is_quasi_atomic,
    quotient_of_atomics,
    weak_components,
)
from divgraph.graph import DivGraph, build_graph, classify, topological_order, window_analysis
from divgraph.lattices import SubgroupDescriptor
from divgraph.models import (
    AntimatterModel,
    D1Model,
    D2Model,
    DVRModel,
    NumericalMonoidModel,
    ZxQModel,
)
from divgraph.models import zxq as zxq_module
from divgraph.models.base import WindowSpec
from divgraph.reports import crosscheck_graph, graph_report
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
    graphlib_order,
    ladder_window,
    order_from_values,
    poset_from_pairs,
    space_to_poset,
    spelled_multisets,
    vec,
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

# rational parts of denominator up to 4, on the grid 1/12
GRID_12 = Ambient(2, with_rat=True, grid=12)
small_vecs = st.builds(
    lambda a, b, num, den: vec(a, b, rat=Fraction(num, den), on=GRID_12),
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
    desc = SubgroupDescriptor(GRID_12, tuple(gens))
    coeffs = desc.membership(target)
    if coeffs is not None:
        acc = Vec((0, 0))
        for c, g in zip(coeffs, gens):
            acc = acc + g.scaled(c)
        assert acc == target
    # every small integer combination must be accepted
    for c0 in (-2, 0, 1, 3):
        acc = Vec((0, 0))
        for g in gens:
            acc = acc + g.scaled(c0)
        assert desc.membership(acc) is not None


def vec_membership(desc, g):
    """`SubgroupDescriptor.membership` as it was on `Vec`s: the pivot solve,
    then the certificate rebuilt as a sum of scaled generators."""
    if g.rat != 0:
        return None
    n, dim = len(desc.generators), desc.ambient.dim
    residual, y = list(g.ints), [0] * n
    for row, col in desc._pivots:
        h = desc._H[row][col]
        if residual[row] % h != 0:
            return None
        t = y[col] = residual[row] // h
        for i in range(dim):
            residual[i] -= t * desc._H[i][col]
    if any(residual):
        return None
    coeffs = [sum(desc._U[i][j] * y[j] for j in range(n)) for i in range(n)]
    acc = Vec((0,) * dim)
    for c, gen in zip(coeffs, desc.generators):
        acc = acc + gen.scaled(c)
    assert acc == g
    return coeffs


@st.composite
def lattices_and_targets(draw):
    dim = draw(st.integers(1, 3))
    entry = st.integers(-6, 6)
    ints = st.lists(entry, min_size=dim, max_size=dim).map(tuple)
    gens = draw(st.lists(ints.map(Vec), max_size=4))
    rat = draw(st.sampled_from([0, 0, 0, Fraction(1, 3)]))
    # a combination of the generators, so members are drawn as well
    coeffs = draw(st.lists(entry, min_size=len(gens), max_size=len(gens)))
    member = tuple(sum(c * v.ints[i] for c, v in zip(coeffs, gens)) for i in range(dim))
    target = member if draw(st.booleans()) else draw(ints)
    ambient = Ambient(dim, with_rat=True, grid=3)
    return ambient, tuple(gens), vec(*target, rat=rat, on=ambient)


@given(lattices_and_targets())
@settings(max_examples=300, deadline=None)
def test_membership_matches_the_vec_certificate(case):
    ambient, gens, target = case
    desc = SubgroupDescriptor(ambient, gens)
    assert desc.membership(target) == vec_membership(desc, target)


@given(st.lists(small_int_vecs, min_size=1, max_size=3), small_vecs, small_vecs)
@settings(max_examples=60, deadline=None)
def test_coset_rep_is_canonical(gens, g, h):
    desc = SubgroupDescriptor(GRID_12, tuple(gens))
    same = desc.membership(g - h) is not None
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
        lambda v, d: (AntimatterModel(max_den=d), {"max_value": v}),
        st.integers(1, 3),
        st.integers(1, 3),
    ),
    st.builds(
        lambda gens, v: (NumericalMonoidModel(gens), {"max_value": v}),
        monoid_gens,
        st.integers(9, 24),
    ),
    st.builds(
        lambda k, d, a: (D1Model(den_max=d), {"k_max": k, "alpha_max": a}),
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
    # the verdicts and the sinks judge the integral non-units; a path
    # through the unit or a non-integral class never completes, so the extra
    # vertices of a fractional window change no verdict and no sink
    m, bounds = model_bounds
    integral = m.enumerate_window(WindowSpec(bounds))
    fractional = m.enumerate_window(WindowSpec(bounds, include_fractional=True))
    assert set(integral) < set(fractional)
    g_int, g_frac = build_graph(m, integral), build_graph(m, fractional)
    assert classify(m, g_frac)["verdicts"] == classify(m, g_int)["verdicts"]
    r_int, r_frac = graph_report(g_int), graph_report(g_frac)
    for key in ("sinks", "sink_artifacts"):
        assert r_frac[key] == r_int[key], key


@given(value_windows, st.booleans())
@settings(max_examples=60, deadline=None)
def test_graph_edges_match_all_pairs(model_bounds, fractional):
    m, bounds = model_bounds
    w = m.enumerate_window(WindowSpec(bounds, include_fractional=fractional))
    g = build_graph(m, w)
    assert g.edges == all_pairs_edges(m, w)
    assert g.atoms == tuple(m.quotient(w[i], w[j]) for i, j in g.edges)


@given(value_windows, st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_value_graph_edges_and_boundary_match_their_definitions(model_bounds, fractional, data):
    # a random sub-window is no box, so some atom quotients fall outside it
    # and atoms may be wider than it
    m, bounds = model_bounds
    full = m.enumerate_window(WindowSpec(bounds, include_fractional=fractional))
    keep = data.draw(st.lists(st.booleans(), min_size=len(full), max_size=len(full)))
    w = tuple(e for e, k in zip(full, keep) if k) or full
    g = build_graph(m, w)
    assert g.edges == all_pairs_edges(m, w)
    assert g.atoms == tuple(m.quotient(w[i], w[j]) for i, j in g.edges)

    def escapes(v) -> bool:
        # boundary_probe's rule: some atom p has v/p integral, not a unit
        # and outside the window
        quotients = (m.quotient(v, p) for p in m.atoms())
        return any(m.in_domain(q) and not m.is_unit(q) and q not in w for q in quotients)

    assert g.boundary == {n for n, v in enumerate(w) if escapes(v)}
    # asked directly, also about an element that is not in the window: the
    # index of the window with it added, as a/p is never a
    probes = [m.boundary_probe(v, m.window_index(w if v in w else (*w, v))) for v in full]
    assert probes == [escapes(v) for v in full]


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


def assert_the_window_bounds_each_closed_search(m, w):
    # the check's oracle runs with the window size as its bound: at a vertex
    # that does not escape, every atom quotient that is an integral non-unit
    # lies in the window, and so do its own, so a search never needs more
    info = window_analysis(build_graph(m, w))
    closed = [v for v in w if not info[v.label].escapes]
    for v in closed:
        assert not m.factorizations(v, len(w)).bound_too_small, v.label
    return closed


@given(value_windows, st.booleans(), st.integers(0, 2**64 - 1))
@example((NumericalMonoidModel((4, 6)), {"max_value": 12}), True, 0b1011)
@example((NumericalMonoidModel((6, 10, 15)), {"max_value": 30}), False, 0b1101)
@settings(max_examples=60, deadline=None)
def test_window_size_bounds_the_oracle_where_nothing_escapes(model_bounds, fractional, keep):
    m, bounds = model_bounds
    w = m.enumerate_window(WindowSpec(bounds, include_fractional=fractional))
    assert_the_window_bounds_each_closed_search(m, w)
    # and on the sub-window of the elements whose bit is set in keep
    sub = tuple(e for n, e in enumerate(w) if keep >> n & 1) or w
    assert_the_window_bounds_each_closed_search(m, sub)


def test_window_size_bounds_the_zxq_oracle_where_nothing_escapes():
    m, w = ladder_window("zxq")
    assert assert_the_window_bounds_each_closed_search(m, w)


def assert_reach_rows_are_the_order_rows(m, w):
    # an edge a -> b has a <= b, so each reach row lies inside its order
    # row; from a vertex that does not escape, a chain of edges inside the
    # window leads to each b >= a, so there the two rows are equal
    info = window_analysis(build_graph(m, w))
    rows = window_poset(m, w).rows
    for n, (v, row) in enumerate(zip(w, rows)):
        reach = info[v.label].reach
        assert reach >> n & 1 and not reach & ~row, v.label
        assert info[v.label].escapes or reach == row, v.label


@given(value_windows, st.booleans())
@settings(max_examples=60, deadline=None)
def test_reach_rows_are_the_order_rows_where_nothing_escapes(model_bounds, fractional):
    m, bounds = model_bounds
    w = m.enumerate_window(WindowSpec(bounds, include_fractional=fractional))
    assert_reach_rows_are_the_order_rows(m, w)


def test_zxq_reach_rows_are_the_order_rows_where_nothing_escapes():
    for path in sorted(CONFIG_DIR.glob("zxq*.cfg")):
        m, spec = load_config(path).build()
        assert_reach_rows_are_the_order_rows(m, m.enumerate_window(spec))


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


# -- labels against an oracle of one renderer per kind ---------------------------
#
# Each value kind's labels spelled out apart, with its unit label, as an
# oracle for the one `label_for` every kind but numerical-monoid shares.


def oracle_exponent(q):
    if q.denominator == 1:
        return str(q.numerator)
    return f"({q})"


def oracle_power(sym, q):
    if q == 1:
        return sym
    return f"{sym}^{oracle_exponent(q)}"


def oracle_dvr(ints):
    k = ints[0]
    if k >= 1:
        return "pi" if k == 1 else f"pi^{k}"
    return "1/pi" if k == -1 else f"1/pi^{-k}"


def oracle_antimatter(q):
    if q > 0:
        return "x" if q == 1 else f"x^{oracle_exponent(q)}"
    return "1/x" if q == -1 else f"1/x^{oracle_exponent(-q)}"


def oracle_two_generator(k, e):
    num, den = [], []
    if k > 0:
        num.append(oracle_power("y", k))
    elif k < 0:
        den.append(oracle_power("y", -k))
    if e > 0:
        num.append(oracle_power("x", e))
    elif e < 0:
        den.append(oracle_power("x", -e))
    num_s = "*".join(num) if num else "1"
    if not den:
        return num_s
    den_s = den[0] if len(den) == 1 else "(" + "*".join(den) + ")"
    return f"{num_s}/{den_s}"


def oracle_label(m, ints, q):
    """The label of the value with integer coordinates ints and the exact
    rational part q."""
    if isinstance(m, NumericalMonoidModel):
        return str(ints[0])
    if not any(ints) and q == 0:
        return "1"
    if isinstance(m, DVRModel):
        return oracle_dvr(ints)
    if isinstance(m, AntimatterModel):
        return oracle_antimatter(q)
    return oracle_two_generator(ints[0], q if isinstance(m, D1Model) else ints[1])


label_ints = st.integers(-12, 12)
label_exponents = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))
# (model, ints, exact rational part); den_max 6 puts every label exponent on the grid
labelled_values = st.one_of(
    st.builds(lambda k: (DVRModel(), (k,), 0), label_ints),
    st.builds(lambda q: (AntimatterModel(max_den=6), (), q), label_exponents),
    st.builds(lambda gens, n: (NumericalMonoidModel(gens), (n,), 0), monoid_gens, label_ints),
    st.builds(lambda k, q: (D1Model(den_max=6), (k,), q), label_ints, label_exponents),
    st.builds(lambda k, j: (D2Model(), (k, j), 0), label_ints, label_ints),
)


@given(labelled_values)
@example((D1Model(den_max=6), (-2,), Fraction(-1, 3)))  # y^2*x^(1/3) in the denominator
@example((D2Model(), (-1, -4), 0))
@example((AntimatterModel(max_den=6), (), Fraction(-5, 2)))
@example((AntimatterModel(max_den=6), (), 0))
@example((NumericalMonoidModel((2, 3)), (0,), 0))
@settings(max_examples=300, deadline=None)
def test_labels_match_a_renderer_per_kind(model_value):
    m, ints, q = model_value
    assert m.element(vec(*ints, rat=q, on=m)).label == oracle_label(m, ints, q)


# -- d1 and antimatter strings against the exact Fraction ------------------------


def oracle_value_string(ints, q):
    """A value as the reports print it: its integer coordinates, then the
    exact rational part where it is nonzero or alone."""
    shown = [*ints, q] if q != 0 or not ints else list(ints)
    return "(" + ", ".join(str(x) for x in shown) + ")"


@st.composite
def rational_models_and_values(draw):
    """A d1 or antimatter model of a random denominator bound, and two
    exact values whose rational parts lie on its grid."""
    den = draw(st.integers(1, 7))
    d1 = draw(st.booleans())
    m = D1Model(den_max=den) if d1 else AntimatterModel(max_den=den)

    def value():
        ints = (draw(st.integers(-6, 6)),) if d1 else ()
        return ints, Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, den)))

    return m, value(), value()


@given(rational_models_and_values())
@example((D1Model(den_max=3), ((3,), Fraction(-1, 3)), ((0,), Fraction(1, 2))))
@example((AntimatterModel(max_den=6), ((), Fraction(5, 6)), ((), Fraction(0))))
@settings(max_examples=200, deadline=None)
def test_rational_strings_render_the_exact_fraction(case):
    m, (a_ints, a_q), (b_ints, b_q) = case
    a, b = (m.element(vec(*ints, rat=q, on=m)) for ints, q in ((a_ints, a_q), (b_ints, b_q)))
    diff_ints = tuple(x - y for x, y in zip(a_ints, b_ints))
    assert a.label == oracle_label(m, a_ints, a_q)
    assert m.quotient(a, b).label == oracle_label(m, diff_ints, a_q - b_q)
    # the atoms of d1 have values (k, 0), so a coset is named by (0, q); antimatter has none
    desc = atom_subgroup(m)
    assert desc.coset_label(m.conn_value(a)) == oracle_value_string((0,) * len(a_ints), a_q)
    verdict = quotient_of_atomics(m, a, b, desc)
    assert (verdict.status is Status.HOLDS) == (a_q == b_q)
    if a_q != b_q:
        assert verdict.evidence["value_difference"] == oracle_value_string(diff_ints, a_q - b_q)


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


@given(value_windows, st.booleans())
@example((NumericalMonoidModel((4, 6)), {"max_value": 12}), False)
@example((NumericalMonoidModel((4, 6)), {"max_value": 12}), True)
@example((NumericalMonoidModel((6, 10, 15)), {"max_value": 30}), False)
@example((NumericalMonoidModel((6, 10, 15)), {"max_value": 30}), True)
@settings(max_examples=60, deadline=None)
def test_order_rows_match_the_order_from_values(model_bounds, fractional):
    m, bounds = model_bounds
    w = m.enumerate_window(WindowSpec(bounds, include_fractional=fractional))
    assert window_poset(m, w).rows == order_from_values(m, w)


# every other element, from the first
ALTERNATE = (1 << 128) // 3


@given(value_windows, st.booleans(), st.integers(0, 2**128 - 1))
@example((NumericalMonoidModel((2, 3)), {"max_value": 9}), False, 1)  # one element
@example((AntimatterModel(max_den=3), {"max_value": 3}), True, ALTERNATE)
@example((D2Model(), {"k_max": 3, "j_max": 2}), True, ALTERNATE)  # k from -3 to 3
@example((D1Model(den_max=2), {"k_max": 2, "alpha_max": 2}), True, ALTERNATE)
@example((D1Model(den_max=2), {"k_max": 2, "alpha_max": 2}), False, 0b1101_0110_1011_0101)
@settings(max_examples=60, deadline=None)
def test_order_rows_of_a_sub_window_match_both_orders(model_bounds, fractional, keep):
    # the elements whose bit is set in keep, in label order: a window with
    # holes, whose values need not fill a box
    m, bounds = model_bounds
    w = m.enumerate_window(WindowSpec(bounds, include_fractional=fractional))
    sub = tuple(e for n, e in enumerate(w) if keep >> n & 1) or w[:1]
    rows = window_poset(m, sub).rows
    assert rows == all_pairs_order(m, sub)
    assert rows == order_from_values(m, sub)


def test_order_from_values_catches_what_all_pairs_order_misses(monkeypatch):
    # with the difference 5 = 2 + 3 dropped from is_atomic_value, the rows
    # and all_pairs_order, which asks the same predicate, still agree; the
    # order from the values alone does not
    m = NumericalMonoidModel((2, 3))
    w = win(m, max_value=12)
    atomic = m.is_atomic_value
    monkeypatch.setattr(m, "is_atomic_value", lambda v: v != Vec((5,)) and atomic(v))
    rows = window_poset(m, w).rows
    assert rows == all_pairs_order(m, w)
    assert rows != order_from_values(m, w)


def test_zxq_order_rows_match_all_pairs():
    for path in sorted(CONFIG_DIR.glob("zxq*.cfg")):
        m, spec = load_config(path).build()
        w = m.enumerate_window(spec)
        order = zxq_order_from_coefficients(m, w, spec.bounds["elements"])
        assert window_poset(m, w).rows == all_pairs_order(m, w) == order, path.name


def test_zxq_order_from_coefficients_catches_what_all_pairs_order_misses(monkeypatch):
    # with the integer constant term dropped from the atomic-class test,
    # x/(2x) = 1/2 makes x <= 2x; the rows and all_pairs_order, which asks the
    # same test through is_atomic_element, still agree, and the order from the
    # coefficient rows does not
    def polynomial(rf):
        return rf.order == 0 and len(rf.den) == 1 and not rf.is_unit_class

    m, spec = load_config(CONFIG_DIR / "zxq_orders.cfg").build()
    w = m.enumerate_window(spec)
    monkeypatch.setattr(zxq_module, "_atomic", polynomial)
    rows = window_poset(m, w).rows
    assert rows == all_pairs_order(m, w)
    assert rows != zxq_order_from_coefficients(m, w, spec.bounds["elements"])


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


def assert_witnesses_are_the_escaping_elements(m, w):
    # an atomic element is an atom product, so its value lies in the atom
    # subgroup, which is why is_almost_atomic never asks about it; the
    # witnesses are then exactly the elements whose value escapes
    desc = atom_subgroup(m)
    atomic = [m.is_atomic_element(e) for e in w]
    escapes = [desc.membership(m.conn_value(e)) is None for e in w]
    assert not any(a and x for a, x in zip(atomic, escapes))
    almost = is_almost_atomic(m, w)
    found = almost.evidence["value_outside_atom_subgroup"] if almost.status is Status.FAILS else []
    assert found == [e.label for e, x in zip(w, escapes) if x]


@given(value_windows, st.booleans())
@example((AntimatterModel(max_den=2), {"max_value": 2}), True)
@example((D1Model(den_max=2), {"k_max": 2, "alpha_max": 2}), True)
@settings(max_examples=60, deadline=None)
def test_almost_atomic_witnesses_are_the_escaping_elements(model_bounds, fractional):
    m, bounds = model_bounds
    assert_witnesses_are_the_escaping_elements(
        m, m.enumerate_window(WindowSpec(bounds, include_fractional=fractional))
    )


def test_zxq_almost_atomic_witnesses_are_the_escaping_elements():
    for path in sorted(CONFIG_DIR.glob("zxq*.cfg")):
        m, spec = load_config(path).build()
        assert_witnesses_are_the_escaping_elements(m, m.enumerate_window(spec))


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


@st.composite
def zxq_rows(draw):
    """The coefficient rows of a random zxq window: each top with every
    sub-product of its atoms, then a random sub-window, so that some atom
    quotients escape."""
    rows = set()
    for monomial, primes, polys in draw(st.lists(zxq_tops, min_size=1, max_size=2)):
        factors = primes + polys
        for keep in product((False, True), repeat=len(factors)):
            chosen = (f for f, k in zip(factors, keep) if k)
            rows.add(reduce(poly_mul, chosen, tuple(map(Fraction, monomial))))
    rows = sorted(rows)
    keep = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    rows = [r for r, k in zip(rows, keep) if k and r != (1,)]
    assume(rows)
    return rows


@given(zxq_rows())
@settings(max_examples=40, deadline=None)
def test_zxq_graph_order_and_boundary_match_their_definitions(rows):
    m = ZxQModel()
    w = m.enumerate_window(WindowSpec({"elements": rows}))
    g = build_graph(m, w)
    assert g.edges == all_pairs_edges(m, w)
    assert g.atoms == tuple(m.quotient(w[i], w[j]) for i, j in g.edges)
    order = zxq_order_from_coefficients(m, w, rows)
    assert window_poset(m, w).rows == all_pairs_order(m, w) == order

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
    assert_reach_rows_are_the_order_rows(m, w)
    # an untampered graph passes its check, the pairs left undecided aside
    assert crosscheck_graph(g)["ok"]


# -- zxq: the order from the coefficient rows alone ----------------------------

def trimmed(p) -> list:
    p = list(map(Fraction, p))
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def poly_quotient(p, d) -> list | None:
    """p/d when d divides p in Q[x], by long division, else None."""
    r, d = trimmed(p), trimmed(d)
    q = [Fraction(0)] * max(len(r) - len(d) + 1, 1)
    while len(r) >= len(d) and any(r):
        k = len(r) - len(d)
        q[k] = c = r[-1] / d[-1]
        for i, a in enumerate(d):
            r[k + i] -= c * a
        r.pop()
    return None if any(r) else trimmed(q)


def zxq_order_from_coefficients(m, w, rows) -> tuple:
    """The order on the window w of these rows, as bit rows in window order,
    from Fraction arithmetic on the rows alone: a <= b iff a/b is a
    polynomial whose constant term is a nonzero integer (+-1 when a and b
    name one class).  The model only says which element each row names."""
    named = [(r, w.index(m.from_coeffs(r))) for r in rows if trimmed(r) not in ([1], [-1])]
    assert {i for _, i in named} == set(range(len(w)))
    order = [0] * len(w)
    for a, i in named:
        for b, j in named:
            q = poly_quotient(a, b)
            if q is not None and q[0] != 0 and q[0].denominator == 1:
                order[i] |= 1 << j
    return tuple(order)


@st.composite
def dags(draw):
    """A hand-built `DivGraph` of a random DAG: the edges (a, b), in
    increasing order, go down a random ranking of the vertices."""
    n = draw(st.integers(0, 12))
    rank = draw(st.permutations(range(n)))
    pairs = [(a, b) for a in range(n) for b in range(n) if rank[b] < rank[a]]
    edges = sorted(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else []
    return DivGraph(None, tuple(range(n)), tuple(edges), (), frozenset())


@given(dags())
@settings(max_examples=200, deadline=None)
def test_topological_order_matches_graphlib(g):
    assert topological_order(g) == graphlib_order(g)
