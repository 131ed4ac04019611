"""Both component partitions against networkx, which shares no code with
the package: the weak components against the connected components of the
undirected edge graph, the topological ones against those of the
comparability graph of the order."""

import pytest

from divgraph.config import load_config
from divgraph.connectivity import weak_components
from divgraph.graph import build_graph
from divgraph.topology import connected_components_topology, poset_to_space, window_poset
from helpers import CONFIG_DIR, LADDER, ladder_window

nx = pytest.importorskip("networkx")

CONFIGS = sorted(p.name for p in CONFIG_DIR.glob("*.cfg"))
WINDOWS = [f"ladder:{kind}" for kind in LADDER] + [f"config:{name}" for name in CONFIGS]


def load(case):
    source, name = case.split(":")
    if source == "ladder":
        return ladder_window(name)
    m, spec = load_config(CONFIG_DIR / name).build()
    return m, m.enumerate_window(spec)


def components_of(points, pairs) -> list[tuple]:
    """networkx's connected components, each sorted, in order of their
    smallest point: the order both package partitions promise."""
    g = nx.Graph()
    g.add_nodes_from(points)
    g.add_edges_from(pairs)
    return sorted(tuple(sorted(c)) for c in nx.connected_components(g))


@pytest.mark.parametrize("case", WINDOWS)
def test_weak_components_match_networkx(case):
    m, w = load(case)
    g = build_graph(m, w)
    labels = [v.label for v in w]
    expected = components_of(labels, ((labels[a], labels[b]) for a, b in g.edges))
    assert weak_components(g) == expected


@pytest.mark.parametrize("case", WINDOWS)
def test_topology_components_match_networkx(case):
    m, w = load(case)
    poset = window_poset(m, w)
    expected = components_of(poset.elements, poset.relation)
    assert connected_components_topology(poset_to_space(poset)) == expected
