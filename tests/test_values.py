"""The value-type contract of ChordLabel, GraphNode, GraphEdge and ChordGraph.

They behave as frozen dataclasses did: the same repr, equality only with
their own class, hashing as the tuple of their fields, no assignment.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from chordgroups.classify import ChordLabel, SeventhFamily, TriadFamily
from chordgroups.graph import ChordGraph, GraphEdge, GraphNode, build_chord_graph
from chordgroups.transform import Operator

LABEL = ChordLabel(SeventhFamily.MM, 0)
NODE = GraphNode((0, 4, 7, 11), LABEL)
EDGE = GraphEdge("MM0", "MM1", Operator.INVERSION)
GRAPH = ChordGraph((NODE,), (EDGE,))

LABEL_REPR = "ChordLabel(family=<SeventhFamily.MM: 'MM'>, inversion=0)"
NODE_REPR = f"GraphNode(chord=(0, 4, 7, 11), label={LABEL_REPR})"
EDGE_REPR = "GraphEdge(source='MM0', target='MM1', op=<Operator.INVERSION: 'i'>)"

VALUES = [
    pytest.param(LABEL, LABEL_REPR, id="ChordLabel"),
    pytest.param(NODE, NODE_REPR, id="GraphNode"),
    pytest.param(EDGE, EDGE_REPR, id="GraphEdge"),
    pytest.param(GRAPH, f"ChordGraph(nodes=({NODE_REPR},), edges=({EDGE_REPR},))", id="ChordGraph"),
]


@pytest.mark.parametrize("value, text", VALUES)
def test_repr_is_pinned(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, _", VALUES)
def test_equality_and_hash_read_the_fields(value, _):
    fields = tuple(getattr(value, name) for name in type(value).__match_args__)
    twin = type(value)(*fields)
    assert twin is not value
    assert twin == value
    assert hash(twin) == hash(value) == hash(fields)
    assert value != fields
    assert fields != value


@pytest.mark.parametrize("value, _", VALUES)
def test_fields_cannot_be_assigned_or_deleted(value, _):
    for name in (*type(value).__match_args__, "anything"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


@pytest.mark.parametrize("value, _", VALUES)
@pytest.mark.parametrize(
    "round_trip",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_round_trips(value, _, round_trip):
    twin = round_trip(value)
    assert twin == value
    assert repr(twin) == repr(value)
    assert str(twin) == str(value)


def test_label_never_equals_its_tuple():
    assert ChordLabel(TriadFamily.MAJOR, 2) != (TriadFamily.MAJOR, 2)
    assert ChordLabel(TriadFamily.MAJOR, 2) != ChordLabel(TriadFamily.MAJOR, 1)


def test_match_args_destructure():
    match NODE:
        case GraphNode(chord, ChordLabel(family, inversion)):
            assert (chord, family, inversion) == ((0, 4, 7, 11), SeventhFamily.MM, 0)
        case _:
            pytest.fail("GraphNode did not match its positional pattern")


def test_derived_values_survive_a_round_trip():
    graph = pickle.loads(pickle.dumps(build_chord_graph(include_dd=True)))
    assert graph.node("dd0").id == "dd0"
    assert str(graph.node("MM3").label) == "MM3"
