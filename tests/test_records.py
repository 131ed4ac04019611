"""The record classes: what their tuple form keeps of a frozen record, and
what the package imports at start-up."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from divgraph.elements import Element
from divgraph.graph import DivGraph, _VertexInfo
from divgraph.models.base import FactorSearch, Factorization, WindowSpec
from divgraph.reports import to_json
from divgraph.topology import AlexandrovSpace, FinitePoset
from divgraph.values import Ambient
from divgraph.verdicts import Status, Verdict

SRC = Path(__file__).resolve().parent.parent / "src"

# one instance of each tuple-based record, with the name of one of its fields
RECORDS = [
    (Element("m", 1, str), "value"),
    (DivGraph(None, (), (), (), frozenset()), "edges"),
    (_VertexInfo(None, 0, False, False, 1), "dead"),
    (FinitePoset(("a",), (1,)), "rows"),
    (AlexandrovSpace(("a",), (1,)), "closures"),
    (Ambient(1), "dim"),
    (Verdict(Status.INCONCLUSIVE, "no room"), "status"),
    (WindowSpec({"max_value": 3}), "bounds"),
    (Factorization(()), "atoms"),
    (FactorSearch((), False), "tree"),
]
IDS = [type(r).__name__ for r, _ in RECORDS]


def test_cli_import_loads_no_dataclass_or_typing_machinery():
    # -S: no site module, which may import typing itself
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import divgraph.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"


def test_element_compares_and_hashes_on_model_and_value_only():
    a, b = Element("m", (1, 2), str), Element("m", (1, 2), repr)
    assert a == b and hash(a) == hash(b) == hash(("m", (1, 2)))
    assert a != Element("n", (1, 2), str)
    assert repr(b) == "Element(model_id='m', value=(1, 2))"
    assert (a.label, b.label, str(b)) == ("(1, 2)", "(1, 2)", "(1, 2)")
    for c in (copy.copy(b), copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
        assert type(c) is Element and c == b and c.render is repr


@pytest.mark.parametrize("record, field", RECORDS, ids=IDS)
def test_fields_are_read_only(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


@pytest.mark.parametrize("status", [Status.HOLDS, Status.FAILS])
def test_a_decided_verdict_needs_evidence(status):
    with pytest.raises(ValueError, match="must carry evidence"):
        Verdict(status)
    assert Verdict(status, {}).provenance == "window"


@pytest.mark.parametrize("record", [r for r, _ in RECORDS], ids=IDS)
def test_a_record_is_not_a_report_type(record):
    for doc in (record, {"a": record}, [record]):
        with pytest.raises(TypeError, match="is not a report type"):
            to_json(doc)
