"""Per-layer tracing driven from outside the divgraph package.

`Tracer.install()` wraps the public functions of each layer module by
rebinding the same function object wherever a `divgraph.*` module namespace
holds it, and wraps the public methods of the classes those modules define
(the model classes among them).  `uninstall()` restores every original.

Each wrapped call keeps a frame on a stack so that self time (duration
minus the time covered by wrapped callees) is charged to the callee's
layer.  Calls that happen up to a million times per op (model predicates,
polynomial arithmetic, lattice membership, the pairwise edge test) are
aggregated into counts and times; every other call is also recorded as a
span (id, name, start, end, parent id, op id), kept in memory and written
out at the end of the run.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "cli": ("divgraph.cli",),
    "config": ("divgraph.config",),
    "models": ("divgraph.models", "divgraph.models.base", "divgraph.models.valuebased",
               "divgraph.models.zxq"),
    "polynomials": ("divgraph.polynomials",),
    "graph": ("divgraph.graph",),
    "topology": ("divgraph.topology",),
    "connectivity": ("divgraph.connectivity",),
    "lattices": ("divgraph.lattices",),
    "reports": ("divgraph.reports",),
}

# Value-level helpers that only the models themselves call.  Wrapping them
# would add nothing but tracer cost to models.self_s.
UNWRAPPED_METHODS = frozenset({
    "check_owned", "require_positive", "element", "label_for",
    "contains_value", "is_atom_value", "is_atomic_value",
})

# Hot names whose calls are counted and timed but not stored as spans.
AGGREGATED_LAYERS = frozenset({"models", "polynomials", "lattices"})
SPANNED_IN_AGGREGATED = frozenset({
    "models.enumerate_window", "models.factorizations", "models.boundary_probe",
    "models.build_model", "polynomials.factor_monic",
})
AGGREGATED_NAMES = frozenset({"graph.cover_edge", "topology.leq", "connectivity.component_label",
                              "connectivity.atom_subgroup"})


class PassStats:
    """Counts and times of the wrapped calls made during one traced pass."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)  # outermost calls only, so recursion is not double counted
        self.self_by_name = defaultdict(float)
        self.self_by_layer = defaultdict(float)
        self.extra = defaultdict(float)  # values read off return values


class Tracer:
    def __init__(self):
        self.originals: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()
        self.spans: list[tuple] = []
        self.op_checks: list[dict] = []
        self.stats = PassStats()
        self.broken_hooks: set[str] = set()
        # the bottom frame takes calls made outside any op
        self._stack: list[list] = [["outside", 0.0, 0.0, None]]
        self._active = defaultdict(int)
        self._next_id = 0
        self._op_id = None

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items()
                   if n == "divgraph" or n.startswith("divgraph.")}
        for layer, names in LAYERS.items():
            for mod_name in names:
                module = modules.get(mod_name)
                if module is None:
                    continue  # a removed module drops its metrics
                for attr, obj in list(vars(module).items()):
                    if attr.startswith("_") or getattr(obj, "__module__", None) != mod_name:
                        continue
                    if inspect.isfunction(obj):
                        self._rebind_function(modules, obj, f"{layer}.{attr}", layer)
                    elif inspect.isclass(obj):
                        self._wrap_class(obj, layer)

    def _rebind_function(self, modules, fn, name, layer) -> None:
        wrapper = self._wrap(fn, name, layer)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.originals.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def _wrap_class(self, cls, layer) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") or attr in UNWRAPPED_METHODS:
                continue
            name = f"{layer}.{attr}"
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name, layer))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, layer))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name, layer)
            else:
                continue  # properties and data stay as they are
            self.originals.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self.originals):
            setattr(holder, attr, original)
        self.originals.clear()

    # -- recording ---------------------------------------------------------------

    def _wrap(self, fn, name, layer):
        self.wrapped.add(name)
        spanned = name not in AGGREGATED_NAMES and (
            layer not in AGGREGATED_LAYERS or name in SPANNED_IN_AGGREGATED)
        post = POST_HOOKS.get(name)
        stack = self._stack
        active = self._active
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = tracer._new_id() if spanned else parent[3]
            frame = [name, perf_counter(), 0.0, span_id]
            stack.append(frame)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                dur = end - frame[1]
                parent[2] += dur
                own = dur - frame[2]
                stats = tracer.stats
                stats.calls[name] += 1
                stats.self_by_name[name] += own
                stats.self_by_layer[layer] += own
                if not active[name]:
                    stats.incl[name] += dur
                if spanned:
                    tracer.spans.append((span_id, name, frame[1], end, parent[3], tracer._op_id))
            if post is not None:
                try:
                    post(tracer, result, dur)
                except (AttributeError, TypeError):
                    # the return value changed shape: drop the metric, keep the run
                    tracer.broken_hooks.add(name)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def begin_pass(self) -> None:
        self.stats = PassStats()

    def run_op(self, op_id: str, call):
        """Run call() as the root span of one op and check that the self
        times of everything nested in it sum to no more than its duration."""
        self._op_id = op_id
        root = ["op", perf_counter(), 0.0, self._new_id()]
        self._stack.append(root)
        before = sum(self.stats.self_by_layer.values())
        try:
            return call()
        finally:
            end = perf_counter()
            self._stack.pop()
            nested = sum(self.stats.self_by_layer.values()) - before
            dur = end - root[1]
            self.spans.append((root[3], "op", root[1], end, None, op_id))
            self.op_checks.append({"op": op_id, "span_s": dur, "nested_self_s": nested,
                                   "ok": nested <= dur + 1e-9})
            self._op_id = None

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


# -- values read off return values ------------------------------------------------

def _post_build_graph(tracer, graph, dur):
    tracer.stats.extra["graph.edges"] += len(graph.edges)


def _post_window_analysis(tracer, info, dur):
    tracer.stats.extra["graph.factorizations_materialised"] += sum(
        len(i.factorizations) for i in info.values())


def _post_window_poset(tracer, poset, dur):
    tracer.stats.extra["topology.relation_size"] += len(poset.relation)


def _post_factorizations(tracer, search, dur):
    tracer.stats.extra["models.factorizations_bound_hits"] += bool(search.bound_too_small)


def _post_boundary_probe(tracer, result, dur):
    if tracer._active["graph.build_graph"]:
        tracer.stats.extra["graph.boundary_probe_in_build_s"] += dur


POST_HOOKS = {
    "graph.build_graph": _post_build_graph,
    "graph.window_analysis": _post_window_analysis,
    "topology.window_poset": _post_window_poset,
    "models.factorizations": _post_factorizations,
    "models.boundary_probe": _post_boundary_probe,
}


# -- per-layer metrics ------------------------------------------------------------

def _calls(name):
    return lambda s: s.calls[name]


def _incl(name):
    return lambda s: s.incl[name]


def _extra(key):
    return lambda s: s.extra[key]


def _edge_yield(s):
    tests = s.calls["graph.cover_edge"]
    return s.extra["graph.edges"] / tests if tests else None


def _oracle_useful(s):
    calls = s.calls["models.factorizations"]
    if not calls:
        return None
    return (calls - s.extra["models.factorizations_bound_hits"]) / calls


# name -> (unit, wrapped names the metric needs, function of one pass's stats)
PER_LAYER = {
    "models.enumerate_window_s": ("s", ("models.enumerate_window",), _incl("models.enumerate_window")),
    "models.quotient_calls": ("count", ("models.quotient",), _calls("models.quotient")),
    "models.quotient_s": ("s", ("models.quotient",), _incl("models.quotient")),
    "models.is_atom_calls": ("count", ("models.is_atom",), _calls("models.is_atom")),
    "models.is_atom_s": ("s", ("models.is_atom",), _incl("models.is_atom")),
    "models.is_atomic_element_calls": ("count", ("models.is_atomic_element",),
                                       _calls("models.is_atomic_element")),
    "models.is_atomic_element_s": ("s", ("models.is_atomic_element",),
                                   _incl("models.is_atomic_element")),
    "models.boundary_probe_calls": ("count", ("models.boundary_probe",), _calls("models.boundary_probe")),
    "models.boundary_probe_s": ("s", ("models.boundary_probe",), _incl("models.boundary_probe")),
    "models.factorizations_calls": ("count", ("models.factorizations",), _calls("models.factorizations")),
    "models.factorizations_s": ("s", ("models.factorizations",), _incl("models.factorizations")),
    "models.factorizations_bound_hits": ("count", ("models.factorizations",),
                                         _extra("models.factorizations_bound_hits")),
    "reports.oracle_useful_ratio": ("ratio", ("models.factorizations",), _oracle_useful),
    "graph.builds": ("count", ("graph.build_graph",), _calls("graph.build_graph")),
    "graph.build_graph_s": ("s", ("graph.build_graph",), _incl("graph.build_graph")),
    "graph.edges_s": ("s", ("graph.build_graph", "models.boundary_probe"),
                      lambda s: s.incl["graph.build_graph"] - s.extra["graph.boundary_probe_in_build_s"]),
    "graph.pair_tests": ("count", ("graph.cover_edge",), _calls("graph.cover_edge")),
    "graph.edges": ("count", ("graph.build_graph",), _extra("graph.edges")),
    "graph.edge_yield": ("ratio", ("graph.build_graph", "graph.cover_edge"), _edge_yield),
    "graph.window_analysis_s": ("s", ("graph.window_analysis",), _incl("graph.window_analysis")),
    "graph.factorizations_materialised": ("count", ("graph.window_analysis",),
                                          _extra("graph.factorizations_materialised")),
    "topology.window_poset_s": ("s", ("topology.window_poset",), _incl("topology.window_poset")),
    "topology.relation_size": ("count", ("topology.window_poset",), _extra("topology.relation_size")),
    "topology.check_axioms_s": ("s", ("topology.check_axioms",), _incl("topology.check_axioms")),
    "topology.poset_to_space_s": ("s", ("topology.poset_to_space",), _incl("topology.poset_to_space")),
    "topology.components_s": ("s", ("topology.connected_components_topology",),
                              _incl("topology.connected_components_topology")),
    "topology.chain_connected_s": ("s", ("topology.chain_connected",), _incl("topology.chain_connected")),
    "connectivity.weak_components_s": ("s", ("connectivity.weak_components",),
                                       _incl("connectivity.weak_components")),
    "connectivity.atom_subgroup_calls": ("count", ("connectivity.atom_subgroup",),
                                         _calls("connectivity.atom_subgroup")),
    "connectivity.atom_subgroup_s": ("s", ("connectivity.atom_subgroup",),
                                     _incl("connectivity.atom_subgroup")),
    "connectivity.quotient_of_atomics_calls": ("count", ("connectivity.quotient_of_atomics",),
                                               _calls("connectivity.quotient_of_atomics")),
    "connectivity.quotient_of_atomics_s": ("s", ("connectivity.quotient_of_atomics",),
                                           _incl("connectivity.quotient_of_atomics")),
    "lattices.membership_calls": ("count", ("lattices.membership",), _calls("lattices.membership")),
    "connectivity.almost_atomic_s": ("s", ("connectivity.is_almost_atomic",),
                                     _incl("connectivity.is_almost_atomic")),
    "connectivity.quasi_atomic_s": ("s", ("connectivity.is_quasi_atomic",),
                                    _incl("connectivity.is_quasi_atomic")),
    "polynomials.factor_monic_calls": ("count", ("polynomials.factor_monic",),
                                       _calls("polynomials.factor_monic")),
    "polynomials.factor_monic_s": ("s", ("polynomials.factor_monic",), _incl("polynomials.factor_monic")),
    "reports.crosscheck_self_s": ("s", ("reports.crosscheck_graph",),
                                  lambda s: s.self_by_name["reports.crosscheck_graph"]),
    "reports.to_json_s": ("s", ("reports.to_json",), _incl("reports.to_json")),
    "reports.dot_export_s": ("s", ("reports.dot_export",), _incl("reports.dot_export")),
}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", (), lambda s, _l=_layer: s.self_by_layer[_l])


def layer_metrics(tracer: Tracer, stats: PassStats) -> dict:
    """Per-layer metric values of one traced pass; a metric whose functions
    no longer exist (or whose ratio has no base) is left out."""
    out = {}
    for metric, (_unit, needs, fn) in PER_LAYER.items():
        if metric.endswith(".self_s"):
            layer = metric[: -len(".self_s")]
            needs = [n for n in tracer.wrapped if n.startswith(layer + ".")][:1] or [metric]
        if any(n not in tracer.wrapped or n in tracer.broken_hooks for n in needs):
            continue
        value = fn(stats)
        if value is not None:
            out[metric] = value
    return out
