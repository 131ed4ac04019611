"""Finite-window analysis of the graph of divisibility of an integral domain.

The package provides pluggable divisibility models, window graphs with a
path-based factorization classifier, an Alexandrov-topology view, and
connectivity/coset analysis with almost/quasi atomicity verdicts.
"""

from .config import RunConfig, load_config, parse_config
from .connectivity import (
    atom_subgroup,
    is_almost_atomic,
    is_quasi_atomic,
    quotient_of_atomics,
    weak_components,
)
from .elements import Element
from .errors import DivGraphError
from .graph import (
    DivGraph,
    build_graph,
    classify,
    cover_edge,
    sinks,
    topological_order,
)
from .lattices import SubgroupDescriptor
from .models import (
    AntimatterModel,
    D1Model,
    D2Model,
    DVRModel,
    DivisibilityModel,
    NumericalMonoidModel,
    WindowSpec,
    ZxQModel,
    build_model,
)
from .topology import (
    AlexandrovSpace,
    FinitePoset,
    chain_connected,
    connected_components_topology,
    is_T0,
    poset_to_space,
    window_poset,
)
from .values import Ambient, Vec
from .verdicts import Status, Verdict

__version__ = "0.1.0"

__all__ = [
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
