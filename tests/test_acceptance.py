"""Acceptance suite: one criterion per test, one printed pass/fail line each.

The factorization comparisons here use a test-local exhaustive enumerator,
kept independent of both the path-based classifier and the model-level
search, so the routes cross-validate each other.
"""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

from divgraph.config import load_config
from divgraph.connectivity import (
    atom_subgroup,
    is_almost_atomic,
    is_quasi_atomic,
    quotient_of_atomics,
    weak_components,
)
from divgraph.graph import (
    build_graph,
    classify,
    cover_edge,
    sinks,
    window_analysis,
)
from divgraph.models import D1Model, D2Model, NumericalMonoidModel
from divgraph.topology import (
    chain_connected,
    connected_components_topology,
    is_T0,
    poset_to_space,
    window_poset,
)
from divgraph.values import Vec
from divgraph.verdicts import Status
from helpers import (
    interval,
    poset_from_pairs,
    prime_witness_check_zxq,
    space_to_poset,
    vec,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def load(name):
    model, spec = load_config(CONFIG_DIR / name).build()
    window = model.enumerate_window(spec)
    return model, window, build_graph(model, window)


def emit(capsys, name, body):
    """Run the criterion body and print exactly one PASS/FAIL line."""
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"[{name}] FAIL")
        raise
    with capsys.disabled():
        print(f"[{name}] PASS")


def test_criterion_01_dvr_chain(capsys):
    def body():
        start = time.monotonic()
        model, window, graph = load("dvr_chain.cfg")
        report = classify(model, graph)
        elapsed = time.monotonic() - start
        assert len(graph.vertices) == 10
        assert len(graph.edges) == 9
        labels = [v.label for v in graph.vertices]
        assert {labels[n] for n in sinks(graph)[0]} == {"pi"}
        # the graph is one descending chain
        succ = {label: [] for label in labels}
        for a, b in graph.edges:
            succ[labels[a]].append(labels[b])
        for k in range(2, 11):
            label = "pi" if k - 1 == 1 else f"pi^{k - 1}"
            assert succ[f"pi^{k}"] == [label]
        assert all(v.status is Status.HOLDS for v in report["verdicts"].values())
        assert elapsed < 1.0

    emit(capsys, "criterion-01-dvr-chain", body)


def test_criterion_02_antimatter(capsys):
    def body():
        model, window, graph = load("antimatter.cfg")
        assert len(graph.vertices) == 20
        assert graph.edges == ()
        assert len(weak_components(graph)) == 20
        space = poset_to_space(window_poset(model, window))
        assert space.opens == tuple(1 << i for i in range(len(window)))
        assert space.min_open == {x: (x,) for x in space.points}
        report = classify(model, graph)
        assert report["verdicts"]["Atomic"].status is Status.FAILS

    emit(capsys, "criterion-02-antimatter", body)


def test_criterion_03_zxq_orders(capsys):
    def body():
        model, window, graph = load("zxq_orders.cfg")
        comps = weak_components(graph)
        by_order = {}
        for v in graph.vertices:
            by_order.setdefault(v.value.order, set()).add(v.label)
        assert {frozenset(c) for c in comps} == {
            frozenset(s) for s in by_order.values()
        }
        space = poset_to_space(window_poset(model, window))
        assert not chain_connected(space, "x", "x^2")
        witness = prime_witness_check_zxq(model, window)
        assert witness["holds"]
        assert witness["ideal_atoms"] == []

    emit(capsys, "criterion-03-zxq-orders", body)


def test_criterion_04_d1(capsys):
    def body():
        model, window, graph = load("d1.cfg")
        desc = atom_subgroup(model)
        # subgroup is exactly the integer multiples of (1, 0)
        for k in range(-4, 5):
            assert desc.membership(vec(k)) is not None
        assert desc.membership(vec(0, rat=Fraction(1, 2), on=model)) is None
        assert desc.membership(vec(1, rat=Fraction(1, 3), on=model)) is None

        f = model.element(vec(0, rat=Fraction(1, 2), on=model))  # x^(1/2)
        g = model.element(vec(3, rat=Fraction(-1, 3), on=model))  # y^3/x^(1/3)
        assert desc.coset_label(model.conn_value(f)) != desc.coset_label(model.conn_value(g))

        verdict = quotient_of_atomics(model, g, f)
        assert verdict.status is Status.FAILS
        assert verdict.evidence["value_difference"] == "(3, -5/6)"

        assert is_almost_atomic(model, window).status is Status.FAILS

        quasi = is_quasi_atomic(model, window)
        assert quasi.status is Status.HOLDS
        certs = quasi.evidence["certificates"]
        by_label = {e.label: e for e in window}
        for label, mult in certs.items():
            if mult is None:
                continue
            alpha = by_label[label].value.rat  # in steps of the model's grid
            if alpha != 0:
                # the named multiplier has value (2, -alpha)
                assert by_label[mult].value == Vec((2,), -alpha)

    emit(capsys, "criterion-04-d1", body)


def test_criterion_05_d2(capsys):
    def body():
        model, window, graph = load("d2.cfg")
        desc = atom_subgroup(model)
        for a in range(-3, 4):
            for b in range(-3, 4):
                assert desc.membership(vec(a, b)) is not None
        assert len(weak_components(graph)) == 1
        assert is_almost_atomic(model, window).status is Status.HOLDS
        report = classify(model, graph)
        atomic = report["verdicts"]["Atomic"]
        assert atomic.status is Status.FAILS
        witness = model.element(vec(2, -1))
        assert witness.label in atomic.evidence["non_atomic"]

    emit(capsys, "criterion-05-d2", body)


def local_multisets(generators, target, max_len):
    """Test-local exhaustive reference, independent of the package oracle."""
    out = set()
    for size in range(1, max_len + 1):
        for combo in combinations_with_replacement(sorted(generators), size):
            if sum(combo) == target:
                out.add(combo)
    return out


def test_criterion_06_numerical_oracle(capsys):
    def body():
        for name, gens in (
            ("numerical_2_3.cfg", (2, 3)),
            ("numerical_3_5_7.cfg", (3, 5, 7)),
        ):
            model, window, graph = load(name)
            assert max(v.value.ints[0] for v in graph.vertices) <= 40
            info = window_analysis(graph)
            for v in graph.vertices:
                n = v.value.ints[0]
                reference = local_multisets(gens, n, n // min(gens))
                got = {
                    tuple(int(label) for label in f)
                    for f in info[v.label].factorizations
                }
                assert got == reference, (name, v.label)
        m23, _, g23 = load("numerical_2_3.cfg")
        report = classify(m23, g23)
        hfd = report["verdicts"]["HFD"]
        assert hfd.status is Status.FAILS
        assert hfd.evidence["unequal_lengths"]["6"] == [2, 3]

    emit(capsys, "criterion-06-numerical-oracle", body)


DIVISOR_CLOSED = (
    "dvr_chain.cfg",
    "antimatter.cfg",
    "numerical_2_3.cfg",
    "numerical_3_5_7.cfg",
    "zxq_orders.cfg",
    "d1.cfg",
    "d2.cfg",
)


def test_criterion_07_three_way_equivalence(capsys):
    def body():
        for name in DIVISOR_CLOSED:
            model, window, graph = load(name)
            assert len(graph.vertices) <= 200, name
            cmap = {label: comp[0] for comp in weak_components(graph) for label in comp}

            # topological components coincide with the weak components
            space = poset_to_space(window_poset(model, window))
            topo = {x: min(c) for c in connected_components_topology(space) for x in c}
            assert topo == cmap, name

            # the weak components coincide with the coset partition
            desc = atom_subgroup(model)
            cosets = {v.label: desc.coset_label(model.conn_value(v)) for v in graph.vertices}
            pairs_by_comp = {}
            for label, comp in cmap.items():
                pairs_by_comp.setdefault(comp, set()).add(cosets[label])
            assert all(len(s) == 1 for s in pairs_by_comp.values()), name
            assert len(pairs_by_comp) == len(set(cosets.values())), name

            # quotient-of-atomics agrees with component membership
            vertex = {v.label: v for v in graph.vertices}
            for rep in (vertex[c[0]] for c in weak_components(graph)):
                for v in graph.vertices:
                    verdict = quotient_of_atomics(model, v, rep)
                    assert verdict.status is not Status.INCONCLUSIVE, (name, v.label)
                    same = cmap[v.label] == cmap[rep.label]
                    assert same == (verdict.status is Status.HOLDS), (name, v.label)

    emit(capsys, "criterion-07-three-way-equivalence", body)


def test_criterion_08_cover_edges(capsys):
    def body():
        for name in ("numerical_2_3.cfg", "numerical_3_5_7.cfg", "d2.cfg", "dvr_chain.cfg"):
            model, window, graph = load(name)
            universe = list(window)
            for a in universe:
                for b in universe:
                    if a == b:
                        continue
                    strictly_above = model.is_atomic_element(model.quotient(a, b))
                    two_point = strictly_above and interval(model, a, b, universe) == {a, b}
                    assert cover_edge(model, a, b) == two_point, (name, a.label, b.label)

    emit(capsys, "criterion-08-cover-edges", body)


def random_poset(rng, max_points=30):
    n = rng.randint(1, max_points)
    points = tuple(f"p{i}" for i in range(n))
    rel = {(p, p) for p in points}
    for j in range(n):
        for i in range(j):
            if rng.random() < 0.15:
                rel.add((points[i], points[j]))
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c in points:
                if (b, c) in rel and (a, c) not in rel:
                    rel.add((a, c))
                    changed = True
    return poset_from_pairs(points, rel)


def test_criterion_09_random_posets(capsys):
    def body():
        rng = random.Random(20260826)
        for _ in range(100):
            p = random_poset(rng)
            p.check_axioms()
            s = poset_to_space(p)
            s.check_basis()
            assert is_T0(s)
            q = space_to_poset(s)
            assert q.relation == p.relation and set(q.elements) == set(p.elements)

            comps = connected_components_topology(s)
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

    emit(capsys, "criterion-09-random-posets", body)


ALL_CONFIGS = DIVISOR_CLOSED + ("zxq_prime_witness.cfg",)

RANK = {"Atomic": 0, "ACCP": 1, "BFD": 2, "FFD": 3, "HFD": 3}


def test_criterion_10_implication_chains(capsys):
    def body():
        for name in ALL_CONFIGS:
            model, window, graph = load(name)
            verdicts = classify(model, graph)["verdicts"]
            for stronger, weaker in (
                ("ACCP", "Atomic"),
                ("BFD", "ACCP"),
                ("FFD", "BFD"),
                ("HFD", "BFD"),
            ):
                if verdicts[stronger].status is Status.HOLDS:
                    assert verdicts[weaker].status is not Status.FAILS, name

            almost = is_almost_atomic(model, window)
            quasi = is_quasi_atomic(model, window)
            # atomic => almost atomic => quasi atomic, never contradicted
            if verdicts["Atomic"].status is Status.HOLDS:
                assert almost.status is not Status.FAILS, name
            if almost.status is Status.HOLDS:
                assert quasi.status is not Status.FAILS, name

    emit(capsys, "criterion-10-implication-chains", body)
