"""The report writer against json's own indent encoder: `to_json` must write
the bytes that `json.dumps(doc, indent=2, sort_keys=True)` writes."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divgraph.graph import build_graph
from divgraph.models import NumericalMonoidModel
from divgraph.models.base import WindowSpec
from divgraph.reports import classify_report, to_json, topology_report
from divgraph.values import Vec
from divgraph.verdicts import Status


def reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# any character, with lone surrogates and the characters json escapes drawn
# often
text = st.text(
    st.characters()
    | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\ud800\udfffé€ 𐏿😀')
)
labels = st.text("0123456789xy^/()+-", max_size=6)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-3, 3)
    | text
    | st.sampled_from(Status)
)
# the shapes reports hold: label lists, length tuples, label-keyed leaf lists
# (`min_open`, `factorization_lengths`), and ints mixed with bool and None
leaf_lists = (
    st.lists(labels)
    | st.lists(labels).map(tuple)
    | st.lists(st.integers()).map(tuple)
    | st.lists(st.integers(0, 2) | st.booleans() | st.none())
    | st.lists(st.sampled_from(Status))
)
documents = st.recursive(
    scalars | leaf_lists | st.dictionaries(labels, leaf_lists),
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(text | labels, kids, max_size=4),
    max_leaves=30,
)


@given(documents)
@settings(max_examples=400, deadline=None)
@example({})
@example([])
@example(())
@example("")
@example(0)
@example(True)
@example(None)
@example([[], {}, ()])
def test_writes_what_json_writes(doc):
    assert to_json(doc) == reference(doc)


@given(st.integers(0, 60), documents)
@settings(max_examples=60, deadline=None)
def test_deep_nesting(depth, doc):
    for level in range(depth):
        doc = [doc] if level % 3 == 0 else (doc, level) if level % 3 == 1 else {"k": doc}
    assert to_json(doc) == reference(doc)


def test_real_reports():
    m = NumericalMonoidModel((2, 3))
    window = m.enumerate_window(WindowSpec({"max_value": 400}))
    for doc in (topology_report(m, window), classify_report(build_graph(m, window))):
        assert to_json(doc) == reference(doc)


@pytest.mark.parametrize(
    "doc",
    [1.5, {1, 2}, [1, 2.0], ["a", 1.5], {"a": {"b"}}, {"a": [[1], 0.5]}, {"a": Vec((1,))}],
)
def test_other_types_raise(doc):
    with pytest.raises(TypeError):
        to_json(doc)
