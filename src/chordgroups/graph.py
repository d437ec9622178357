"""The transformation graph on the labeled harmonic four-tone chords.

Each edge is one operator's action on one node.  Inversion edges are
directed; duality and augmented-diminished edges are undirected, because
both operators are involutions, and each is stored once, from the endpoint
that sorts first (self-loops allowed).  Without the fully fixed dd chord the
graph splits into two 12-node components, one per gap multiset, which the
gap relabelling 1->2, 3->4, 4->3 maps onto each other: it commutes with the
operators, which permute gap positions.  The relabelling 1->4, 3->2, 4->3
is a second isomorphism that shifts the inversion index; it is not returned.
``_PARTNER`` holds the first one as a chord-to-chord table.

Each value is checked once, by its constructor, so the functions that read
a graph check only that they were given one.  The graph is a constant of
the twelve-tone domain, so both variants are built once, at import: one
walk over the labeled tetrads in id order maps each operator over their
chords.  An operator is a function on the nodes, so a node is the source of
at most one edge per operator: the walk emits each operator's edges already
sorted by source, then target, and needs no sort.  ``_NODES`` and
``_EDGES`` hold the ``GraphNode`` and ``GraphEdge`` Records per
``include_dd``, the variant without dd less dd's node and three self-loops,
and ``_GRAPHS`` the two ``ChordGraph`` values, immutable and shared, as
``classify`` shares its labels: ``build_chord_graph`` constructs nothing.
Each graph derives its four read-only answers (components, isomorphism,
DOT and JSON text) once each: the first call stores one in the
graph's ``_memo`` and later calls answer from there, with new lists and
dicts, so a caller who changes one changes no later answer.  The memo is a
cache: dropping it changes no answer, and a call that raises stores nothing.

``export_json`` writes its two-space, sorted-key layout itself: the bytes
are exactly ``json.dumps(document, indent=2, sort_keys=True) + "\n"``,
without the pure-Python encoder that ``indent`` selects.  A node id is a
family's value and an int, so no string needs escaping and ``json`` never
loads.  The hot loops read enum members through module aliases, because
reading one off its class costs a Python-level lookup on every pass.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from types import MappingProxyType

from .classify import ROOT_CHORDS, ChordLabel, SeventhFamily, seventh_table
from .core import (
    Chord,
    Record,
    chord_row,
    chord_to_composition,
    chords_of_partition,
    composition_to_chord,
)
from .transform import Operator, augdim, dual, invert

_INVERSION, _DUALITY, _AUGDIM = Operator.INVERSION, Operator.DUALITY, Operator.AUGDIM
_DD = SeventhFamily.dd


class IsomorphismViolationError(Exception):
    """The component map failed to preserve an edge (an implementation bug)."""


class GraphNode(Record):
    """A labeled chord, its ``id`` the label's text.

    A chord that ``core.chord_row`` rejects raises its InvalidChordError, and
    a label that is not a ChordLabel raises ValueError.
    """

    __slots__ = ("chord", "label", "id")
    __match_args__ = ("chord", "label")

    chord: Chord
    label: ChordLabel
    id: str

    def __init__(self, chord: Chord, label: ChordLabel) -> None:
        chord = chord_row(chord)[0]
        if not isinstance(label, ChordLabel):
            raise ValueError(f"not a chord label: {label!r}")
        object.__setattr__(self, "chord", chord)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "id", str(label))


class GraphEdge(Record):
    """``op`` from node id ``source`` to ``target``; other kinds of value raise ValueError."""

    __slots__ = ("source", "target", "op")
    __match_args__ = ("source", "target", "op")

    source: str
    target: str
    op: Operator

    def __init__(self, source: str, target: str, op: Operator) -> None:
        if type(source) is not str or type(target) is not str or not isinstance(op, Operator):
            raise ValueError(f"not a graph edge: {source!r}, {target!r}, {op!r}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "op", op)

    @property
    def directed(self) -> bool:
        """Only inversion edges have a direction; d and a are involutions."""
        return self.op is _INVERSION


class ChordGraph(Record):
    """Nodes and edges, kept as tuples whatever iterables they come in, indexed by node id.

    Anything but GraphNodes with distinct ids and GraphEdges between them raises ValueError.
    ``_memo`` holds the graph functions' answers once each is derived; it is
    not a field, so equality, hashing, ``repr`` and pickling ignore it.
    """

    __slots__ = ("nodes", "edges", "_by_id", "_memo")
    __match_args__ = ("nodes", "edges")

    nodes: tuple[GraphNode, ...]
    edges: tuple[GraphEdge, ...]

    def __init__(self, nodes: Iterable[GraphNode], edges: Iterable[GraphEdge]) -> None:
        try:
            nodes, edges = tuple(nodes), tuple(edges)
        except TypeError:  # a value that is not iterable
            raise ValueError(f"not nodes and edges: {nodes!r}, {edges!r}") from None
        by_id: dict[str, GraphNode] = {}
        for node in nodes:
            if not isinstance(node, GraphNode) or node.id in by_id:
                raise ValueError(f"not a graph node, or a repeated id: {node!r}")
            by_id[node.id] = node
        for edge in edges:
            if not isinstance(edge, GraphEdge):
                raise ValueError(f"not a graph edge: {edge!r}")
            for end in (edge.source, edge.target):
                if end not in by_id:
                    raise ValueError(f"{edge!r} ends at {end!r}, which is not a node")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_by_id", MappingProxyType(by_id))
        object.__setattr__(self, "_memo", {})

    def node(self, node_id: str) -> GraphNode:
        """The node whose id is ``node_id``; raises KeyError(node_id) if there is none.

        An id that cannot be hashed, such as a list, is no node's id either.
        """
        try:
            return self._by_id[node_id]
        except (KeyError, TypeError):
            raise KeyError(node_id) from None


_FAMILY_ORDER = {family: index for index, family in enumerate(ROOT_CHORDS)}
_OP_ORDER = {op: index for index, op in enumerate(Operator)}


def _graph_parts() -> tuple[dict[bool, tuple], dict[bool, tuple]]:
    """The graph's node and edge Records, per ``include_dd``."""
    nodes = tuple([GraphNode(chord, label) for chord, label in seventh_table().items()])
    # An involution edge is stored from the endpoint whose key sorts first:
    # case-insensitive first so output order is stable across families like
    # dm/Mm; the case-sensitive tiebreak resolves pairs such as MM3/mM3.
    endpoint = {
        node.chord: (node.id.lower(), node.id) for node in sorted(nodes, key=lambda n: n.id)
    }
    chords, keys = list(endpoint), list(endpoint.values())
    edges = []
    for op, image_of in ((_INVERSION, invert), (_DUALITY, dual), (_AUGDIM, augdim)):
        for key, image in zip(keys, map(endpoint.__getitem__, map(image_of, chords))):
            if op is _INVERSION or key <= image:
                edges.append(GraphEdge(key[1], image[1], op))
    without_dd = tuple([node for node in nodes if node.label.family is not _DD])
    # dd is fixed by all three operators, so its only edges are its three self-loops
    ids = {node.id for node in without_dd}
    return (
        {True: nodes, False: without_dd},
        {True: tuple(edges), False: tuple([edge for edge in edges if edge.source in ids])},
    )


_NODES, _EDGES = _graph_parts()
_GRAPHS = {dd: ChordGraph(_NODES[dd], _EDGES[dd]) for dd in (False, True)}


def build_chord_graph(include_dd: bool = False) -> ChordGraph:
    """The labeled graph over the harmonic four-tone chords.

    The dd chord is fixed by all three operators, so by default it is left
    out; with any true ``include_dd`` it appears as an isolated node with
    three self-loops.  Nodes come in the label table's family, then
    inversion order.  Edges come grouped by operator (i, d, a), each group
    sorted by source, then target.  Both graphs are built once, at import:
    every call returns the same immutable ChordGraph for its variant.
    """
    return _GRAPHS[bool(include_dd)]


def _derived(graph: ChordGraph, derive: Callable[[ChordGraph], object]) -> object:
    """``derive(graph)``, computed on the first call for this graph and kept in its memo.

    A value that is not a ChordGraph raises the documented ValueError first.
    A derivation that raises stores nothing, so the next call raises again.
    Two threads that derive at once keep one answer (``setdefault``).
    """
    if not isinstance(graph, ChordGraph):
        raise ValueError(f"not a chord graph: {graph!r}")
    memo = graph._memo
    try:
        return memo[derive]
    except KeyError:
        return memo.setdefault(derive, derive(graph))


def connected_components(graph: ChordGraph) -> list[list[GraphNode]]:
    """Components of the underlying undirected graph, largest first.

    Each component lists its nodes in family, then inversion order.  A
    value that is not a ChordGraph raises ValueError.  The components are
    derived once per graph; each call returns new lists, so changing one
    changes no later answer.
    """
    return [list(component) for component in _derived(graph, _components)]


def _components(graph: ChordGraph) -> tuple[tuple[GraphNode, ...], ...]:
    # node ids in (family, inversion) order, ranked through the family table
    ranked = sorted(
        [(_FAMILY_ORDER[node.label.family], node.label.inversion, node.id) for node in graph.nodes]
    )
    # node id -> the ids of its component so far, one list shared by its members
    group = {key[2]: [key[2]] for key in ranked}
    for edge in graph.edges:
        first, second = group[edge.source], group[edge.target]
        if first is not second:
            if len(first) < len(second):
                first, second = second, first
            first += second
            for node_id in second:
                group[node_id] = first

    # walked in rank order, each component collects its members in order and
    # the components come in the order of their first members
    found: dict[int, list[GraphNode]] = {}
    by_id = graph._by_id
    for node_id, members in group.items():
        found.setdefault(id(members), []).append(by_id[node_id])
    # stable: ties keep that order
    return tuple(map(tuple, sorted(found.values(), key=len, reverse=True)))


# Operators permute gap positions, so they commute with a relabelling of gap values.
_GAP_RELABELLING = {1: 2, 3: 4, 4: 3}
# each chord whose gaps are 1, 3, 4, 4 in some order -> the chord with its gaps relabelled
_PARTNER = {
    chord: composition_to_chord(
        tuple([_GAP_RELABELLING[gap] for gap in chord_to_composition(chord)])
    )
    for chord in chords_of_partition((1, 3, 4, 4))
}


def component_isomorphism(graph: ChordGraph) -> dict[str, str]:
    """The gap-relabelling map between the two 12-node components.

    Raises IsomorphismViolationError unless it preserves every edge, operator
    included.  An edge from a component to a node outside it breaks it too.
    A value that is not a ChordGraph raises ValueError.  The map is derived
    once per graph, and each call returns a new dict; a graph that breaks it
    raises on every call.
    """
    return dict(_derived(graph, _isomorphism))


def _isomorphism(graph: ChordGraph) -> dict[str, str]:
    id_of = {node.chord: node.id for node in graph.nodes}
    mapping: dict[str, str] = {}
    for chord, node_id in id_of.items():
        if chord in _PARTNER:
            image = _PARTNER[chord]
            if image not in id_of:
                gaps = chord_to_composition(image)
                raise IsomorphismViolationError(f"{node_id} has no image: no node has gaps {gaps}")
            mapping[node_id] = id_of[image]
    lower = set(mapping.values())

    mapped_keys, lower_keys = set(), set()
    for edge in graph.edges:
        source, target, op = edge.source, edge.target, edge.op
        if source in mapping and target in mapping:
            source, target, keys = mapping[source], mapping[target], mapped_keys
        elif source in lower and target in lower:
            keys = lower_keys
        elif source in mapping or target in mapping or source in lower or target in lower:
            raise IsomorphismViolationError(f"edge leaves its component: {(source, target, op)}")
        else:
            continue  # in neither component: the dd chord's self-loops
        if op is not _INVERSION and target < source:
            source, target = target, source
        keys.add((source, target, op))

    if mapped_keys != lower_keys:
        unmatched = sorted(mapped_keys ^ lower_keys, key=lambda k: (k[0], k[1], _OP_ORDER[k[2]]))
        raise IsomorphismViolationError(f"unmatched edges: {unmatched}")
    return mapping


_DOT_ATTRS = {
    _INVERSION: f'label="{_INVERSION.value}"',
    _DUALITY: f'label="{_DUALITY.value}", dir=both',
    _AUGDIM: f'label="{_AUGDIM.value}", dir=both, style=dashed',
}


def export_dot(graph: ChordGraph) -> str:
    """Graphviz DOT text: i solid directed, d solid bidirectional, a dashed bidirectional.

    A value that is not a ChordGraph raises ValueError.  The text is written
    once per graph.
    """
    return _derived(graph, _dot_text)


def _dot_text(graph: ChordGraph) -> str:
    lines = ["digraph chord_graph {"]
    lines += [f"  {node.id}" for node in graph.nodes]
    lines += [f"  {edge.source} -> {edge.target} [{_DOT_ATTRS[edge.op]}]" for edge in graph.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


# One node and one edge as json.dumps(indent=2, sort_keys=True) lays them out
# at depth 2, inside the document's "nodes" and "edges" arrays.  A node's
# tones fill its "chord" array.  Ids are ASCII letters, digits and "-", so
# quoting one escapes nothing.
_NODE_JSON = """{
      "chord": [
        %s
      ],
      "family": %s,
      "id": "%s",
      "inversion": %d
    }"""
_TONE_SEPARATOR = ",\n        "
_EDGE_JSON = """{
      "from": "%s",
      "op": "%s",
      "to": "%s"
    }"""
# Each family's value as a JSON string, read once: it is ASCII letters, so
# quoting it escapes nothing.
_FAMILY_JSON = {family: f'"{family.value}"' for family in ROOT_CHORDS}


def export_json(graph: ChordGraph) -> str:
    """One JSON document with sorted keys and deterministically ordered arrays.

    The text is ``json.dumps({"nodes": [...], "edges": [...]}, indent=2,
    sort_keys=True) + "\\n"``, byte for byte: two-space indent, keys sorted,
    an empty array written ``[]``.  A value that is not a ChordGraph raises
    ValueError.  The text is written once per graph.
    """
    return _derived(graph, _json_text)


def _json_text(graph: ChordGraph) -> str:
    nodes = [
        _NODE_JSON
        % (
            _TONE_SEPARATOR.join(map(str, node.chord)),
            _FAMILY_JSON[node.label.family],
            node.id,
            node.label.inversion,
        )
        for node in graph.nodes
    ]
    edges = [_EDGE_JSON % (edge.source, edge.op.value, edge.target) for edge in graph.edges]
    return '{\n  "edges": %s,\n  "nodes": %s\n}\n' % (
        _json_array(edges, "  "),
        _json_array(nodes, "  "),
    )


def _json_array(items: list[str], indent: str) -> str:
    """Encoded items as json.dumps(indent=2) lays out an array whose brackets sit at ``indent``."""
    if not items:
        return "[]"
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
