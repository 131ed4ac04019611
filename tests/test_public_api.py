"""The package surface: what `divgraph` exports, the names the per-layer
benchmark tracer wraps by name, and the private names modules share."""

import ast
import importlib
from pathlib import Path

import pytest

import divgraph
from divgraph.graph import build_graph, classify, window_analysis
from divgraph.models import (
    AntimatterModel,
    D1Model,
    D2Model,
    DVRModel,
    NumericalMonoidModel,
    ZxQModel,
)
from divgraph.reports import graph_report, topology_report
from divgraph.topology import window_poset
from helpers import LADDER, ladder_window

PUBLIC = [
    "AlexandrovSpace",
    "Ambient",
    "AntimatterModel",
    "D1Model",
    "D2Model",
    "DVRModel",
    "DivGraph",
    "DivGraphError",
    "DivisibilityModel",
    "Element",
    "FinitePoset",
    "NumericalMonoidModel",
    "RunConfig",
    "Status",
    "SubgroupDescriptor",
    "Vec",
    "Verdict",
    "WindowSpec",
    "ZxQModel",
    "atom_subgroup",
    "build_graph",
    "build_model",
    "chain_connected",
    "classify",
    "connected_components_topology",
    "cover_edge",
    "is_T0",
    "is_almost_atomic",
    "is_quasi_atomic",
    "load_config",
    "parse_config",
    "poset_to_space",
    "quotient_of_atomics",
    "sinks",
    "topological_order",
    "weak_components",
    "window_poset",
]

# module -> names the tracer times; a rename drops that layer's metric
TRACED = {
    "divgraph.graph": ["cover_edge", "build_graph", "window_analysis"],
    "divgraph.topology": [
        "window_poset",
        "FinitePoset.check_axioms",
        "poset_to_space",
        "connected_components_topology",
        "chain_connected",
    ],
    "divgraph.connectivity": [
        "weak_components",
        "atom_subgroup",
        "quotient_of_atomics",
        "is_almost_atomic",
        "is_quasi_atomic",
    ],
    "divgraph.reports": ["crosscheck_graph", "to_json", "dot_export"],
    "divgraph.polynomials": ["factor_monic"],
}
TRACED_MODEL_METHODS = [
    "enumerate_window",
    "quotient",
    "is_atom",
    "is_atomic_element",
    "boundary_probe",
    "factorizations",
]
# (module, underscore name, importing module): the only private names that
# cross a module boundary inside the package
SHARED_PRIVATE = {
    ("models.base", "_walk", "graph"),
    ("polynomials", "_MR_EXACT_BELOW", "models.zxq"),
    ("polynomials", "_RHO_STEPS", "models.zxq"),
    ("polynomials", "_prime_factors", "models.zxq"),
    ("values", "_Box", "models.valuebased"),
    ("values", "_place", "models.valuebased"),
}
PACKAGE = Path(divgraph.__file__).parent

MODELS = [AntimatterModel, D1Model, D2Model, DVRModel, NumericalMonoidModel, ZxQModel]


def test_all_is_pinned_and_resolves():
    assert sorted(divgraph.__all__) == PUBLIC
    for name in divgraph.__all__:
        assert getattr(divgraph, name) is not None, name


@pytest.mark.parametrize("module", sorted(TRACED))
def test_traced_names_exist(module):
    mod = importlib.import_module(module)
    for dotted in TRACED[module]:
        obj = mod
        for part in dotted.split("."):
            obj = getattr(obj, part)
        assert callable(obj), dotted


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.__name__)
def test_traced_model_methods_are_concrete(model):
    assert not model.__abstractmethods__
    for name in TRACED_MODEL_METHODS:
        assert callable(getattr(model, name)), name


@pytest.mark.parametrize("kind", LADDER)
def test_traced_return_values_mean_what_the_reports_say(kind):
    # the tracer reads these expressions off the return values of
    # build_graph, window_poset and window_analysis
    m, w = ladder_window(kind)
    g = build_graph(m, w)
    report = graph_report(g)
    assert len(g.edges) == report["edge_count"] == len(report["edges"])
    relation = len(window_poset(m, w).relation)
    assert relation == topology_report(m, w)["strict_relation_size"] + len(w)
    counted = sum(len(i.factorizations) for i in window_analysis(g).values())
    assert counted == sum(classify(m, g)["factorization_counts"].values())


def test_private_names_cross_modules_only_where_listed():
    shared = set()
    for path in PACKAGE.rglob("*.py"):
        parts = path.relative_to(PACKAGE).with_suffix("").parts
        package = parts[:-1]  # what a relative import starts from
        importer = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                base = package[: len(package) - node.level + 1]
                source = ".".join((*base, node.module) if node.module else base)
            elif (node.module or "").split(".")[0] == "divgraph":
                source = node.module.removeprefix("divgraph").lstrip(".")
            else:
                continue  # outside the package
            shared |= {(source, a.name, importer) for a in node.names if a.name[0] == "_"}
    assert shared == SHARED_PRIVATE
