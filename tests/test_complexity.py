"""Call-count contracts: how much model work a report may do per window.

Each test counts calls through a monkeypatched wrapper, so a change that
makes a layer do more work per vertex fails here even where the timing
noise of a benchmark would hide it.
"""

from pathlib import Path

from divgraph.config import load_config
from divgraph.graph import build_graph
from divgraph.models import D2Model
from divgraph.models.base import WindowSpec
from divgraph.polynomials import RationalFunction
from divgraph.reports import graph_report, topology_report
from divgraph.topology import window_poset

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def counting(fn, calls: list):
    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    return wrapper


def d2_window():
    m = D2Model()
    return m, m.enumerate_window(WindowSpec(m.id, {"k_max": 6, "j_max": 5}))


def test_topology_renders_each_label_at_most_once(monkeypatch):
    m, w = d2_window()
    calls = []
    monkeypatch.setattr(m, "label_for", counting(m.label_for, calls))
    topology_report(m, w)
    # the quotients of the order are never printed, so never rendered
    assert len(w) == 66 and len(calls) <= len(w)


def test_zxq_graph_renders_each_label_at_most_once(monkeypatch):
    model, spec = load_config(CONFIG_DIR / "zxq_orders.cfg").build()
    w = model.enumerate_window(spec)
    calls = []
    monkeypatch.setattr(RationalFunction, "label", counting(RationalFunction.label, calls))
    graph_report(build_graph(model, w))
    assert len(w) == 12 and len(calls) <= len(w)


def test_window_poset_quotients_at_most_every_pair(monkeypatch):
    m, w = d2_window()
    calls = []
    monkeypatch.setattr(m, "quotient", counting(m.quotient, calls))
    window_poset(m, w)
    assert len(calls) <= len(w) ** 2
