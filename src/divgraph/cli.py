"""Command-line interface.

Every subcommand reads a run configuration, builds the model and window,
and prints one deterministic JSON document to stdout.  Timing goes to
stderr so stdout stays byte-stable across runs.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

from .config import load_config
from .errors import DivGraphError
from .graph import build_graph
from .reports import (
    atomicity_report,
    classify_report,
    components_report,
    crosscheck_graph,
    dot_export,
    graph_report,
    require_checkable,
    to_json,
    topology_report,
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="divgraph",
        description="Finite-window analysis of divisibility graphs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="run configuration file")
        sp.add_argument("--out", help="directory to write the report into")
        sp.add_argument(
            "--assert",
            dest="assert_mode",
            action="store_true",
            help="exit nonzero if any verdict in the report is Fails",
        )
        sp.add_argument("--dot", action="store_true", help="also emit a Graphviz .dot file")
        return sp

    add("graph", "vertices, edges, sinks and boundary of the window graph")
    add("classify", "Atomic/ACCP/BFD/FFD/HFD verdicts from path analysis")
    add("components", "weak components and atom-subgroup coset labels")
    sp = add("topology", "finite Alexandrov-space view of the window")
    sp.add_argument("--pair", nargs=2, metavar=("A", "B"), help="also test chain connectedness")
    add("atomicity", "almost/quasi atomicity verdicts with certificates")
    add("check", "cross-check path classification against the brute-force oracle")
    return p


def _has_fails(obj) -> bool:
    if isinstance(obj, dict):
        fails = obj.get("status") == "Fails" or obj.get("ok") is False
        return fails or any(_has_fails(v) for v in obj.values())
    if type(obj) in (list, tuple):  # to_json writes both as arrays, and no subclass
        return any(_has_fails(v) for v in obj)
    return False


def _run(args) -> int:
    cfg = load_config(args.config)
    model, spec = cfg.build()
    window = model.enumerate_window(spec)
    # built on first use: topology and atomicity never read the graph
    graph = functools.cache(lambda: build_graph(model, window))

    if args.command == "graph":
        report = graph_report(graph())
    elif args.command == "classify":
        report = classify_report(graph())
    elif args.command == "components":
        report = components_report(graph())
    elif args.command == "topology":
        report = topology_report(model, window, args.pair)
    elif args.command == "atomicity":
        report = atomicity_report(model, window)
    elif args.command == "check":
        require_checkable(window)  # before the graph is built
        report = crosscheck_graph(graph())
    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(args.command)

    text = to_json(report)
    # rendered before anything is written, so a failing build prints nothing
    dot = dot_export(graph()) if args.dot else None
    sys.stdout.write(text)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{args.command}.json").write_text(text)
        if dot is not None:
            (out_dir / "graph.dot").write_text(dot)
    elif dot is not None:
        sys.stdout.write(dot)

    if args.assert_mode and _has_fails(report):
        return 1
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.monotonic()
    try:
        code = _run(args)
    except DivGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        elapsed = time.monotonic() - start
        print(f"[{args.command}] {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
