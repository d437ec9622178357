"""The value-type contract of ChordLabel, GraphNode, GraphEdge and ChordGraph.

They behave as frozen dataclasses did: the same repr, equality only with
their own class, hashing as the tuple of their fields, no assignment.  Each
constructor checks its fields, so a value that exists is valid.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from chordgroups.classify import ChordLabel, SeventhFamily, TriadFamily
from chordgroups.core import InvalidChordError
from chordgroups.graph import ChordGraph, GraphEdge, GraphNode, build_chord_graph
from chordgroups.transform import Operator

LABEL = ChordLabel(SeventhFamily.MM, 0)
NODE = GraphNode((0, 4, 7, 11), LABEL)
NEXT = GraphNode((0, 3, 7, 8), ChordLabel(SeventhFamily.MM, 1))
EDGE = GraphEdge("MM0", "MM1", Operator.INVERSION)
GRAPH = ChordGraph((NODE, NEXT), (EDGE,))

LABEL_REPR = "ChordLabel(family=<SeventhFamily.MM: 'MM'>, inversion=0)"
NODE_REPR = f"GraphNode(chord=(0, 4, 7, 11), label={LABEL_REPR})"
NEXT_REPR = (
    "GraphNode(chord=(0, 3, 7, 8), label=ChordLabel(family=<SeventhFamily.MM: 'MM'>, inversion=1))"
)
EDGE_REPR = "GraphEdge(source='MM0', target='MM1', op=<Operator.INVERSION: 'i'>)"
GRAPH_REPR = f"ChordGraph(nodes=({NODE_REPR}, {NEXT_REPR}), edges=({EDGE_REPR},))"

VALUES = [
    pytest.param(LABEL, LABEL_REPR, id="ChordLabel"),
    pytest.param(NODE, NODE_REPR, id="GraphNode"),
    pytest.param(EDGE, EDGE_REPR, id="GraphEdge"),
    pytest.param(GRAPH, GRAPH_REPR, id="ChordGraph"),
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


@pytest.mark.parametrize("value, _", VALUES)
def test_a_constructor_sets_every_slot(value, _):
    # derived slots included: a constructor that forgets one leaves it unset
    unset = [name for name in type(value).__slots__ if not hasattr(value, name)]
    assert unset == []


# Each constructor's valid arguments; the hostile battery replaces one at a time.
VALID_ARGUMENTS = {
    ChordLabel: (SeventhFamily.MM, 0),
    GraphNode: ((0, 4, 7, 11), LABEL),
    GraphEdge: ("MM0", "MM1", Operator.INVERSION),
    ChordGraph: ((NODE, NEXT), (EDGE,)),
}
# an int is an inversion and a str an edge end, so these replacements are valid
# and left out of the battery
ACCEPTED = [(ChordLabel, 1, 5), (GraphEdge, 0, "x"), (GraphEdge, 1, "x")]


def _replaced(constructor, position, value):
    arguments = list(VALID_ARGUMENTS[constructor])
    arguments[position] = value
    return pytest.param(
        constructor, tuple(arguments), id=f"{constructor.__name__}-{position}-{value!r}"
    )


def _hostile_cases():
    for constructor, arguments in VALID_ARGUMENTS.items():
        for position in range(len(arguments)):
            for value in (None, 5, "x"):
                if (constructor, position, value) not in ACCEPTED:
                    yield _replaced(constructor, position, value)
    for chord in ([0, 4, 7], (), (0, 4, 4)):
        yield _replaced(GraphNode, 0, chord)
    for inversion in (True, 1.0):
        yield _replaced(ChordLabel, 1, inversion)
    yield _replaced(ChordLabel, 0, "Major")
    for position in (0, 1):
        yield _replaced(GraphEdge, position, ["MM0"])
    yield pytest.param(ChordGraph, ((NODE, NEXT, NODE), (EDGE,)), id="ChordGraph-repeated-node")
    for ends in (("MM0", "XX0"), ("XX0", "MM1")):
        stray = GraphEdge(*ends, Operator.DUALITY)
        yield pytest.param(ChordGraph, ((NODE, NEXT), (EDGE, stray)), id="ChordGraph-%s-%s" % ends)


@pytest.mark.parametrize("constructor, arguments", _hostile_cases())
def test_a_constructor_raises_its_documented_error(constructor, arguments):
    # a GraphNode's chord raises as core.chord_row does; every other field, ValueError
    chord_at_fault = constructor is GraphNode and arguments[0] != VALID_ARGUMENTS[GraphNode][0]
    with pytest.raises(InvalidChordError if chord_at_fault else ValueError) as excinfo:
        constructor(*arguments)
    if not chord_at_fault:
        assert excinfo.type is ValueError
    error = excinfo.value
    # no stray TypeError or AttributeError shown as its cause or context
    assert error.__cause__ is None
    assert error.__context__ is None or error.__suppress_context__

