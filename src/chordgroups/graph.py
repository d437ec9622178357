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

``build_chord_graph`` walks the nodes once, in id order, and maps each
operator over their chords.  An operator is a function on the nodes, so a
node is the source of at most one edge per operator: the walk emits each
operator's edges already sorted by source, then target, and needs no sort.

``export_json`` writes its two-space, sorted-key layout itself, escaping
strings to ASCII: the bytes are exactly ``json.dumps(document, indent=2,
sort_keys=True) + "\n"``, without the pure-Python encoder that ``indent``
selects.  It imports its string escaper from ``json.encoder`` on its first
call, so ``json`` loads only for a JSON export: building, searching and
DOT-exporting the graph, and ``verify``, run without it.  The hot loops
read enum members through module aliases, because reading one off its
class costs a Python-level lookup on every pass.
"""

from __future__ import annotations

from operator import attrgetter

from .classify import ROOT_CHORDS, ChordLabel, SeventhFamily, seventh_table
from .core import (
    Chord,
    Record,
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
    """A labeled harmonic tetrad; its ``id`` is the label's text."""

    __slots__ = ("chord", "label", "id")
    __match_args__ = ("chord", "label")

    chord: Chord
    label: ChordLabel
    id: str

    def __init__(self, chord: Chord, label: ChordLabel) -> None:
        _node_chord(self, chord)
        _node_label(self, label)
        _node_id(self, str(label))


_node_chord, _node_label, _node_id = (
    GraphNode.chord.__set__,
    GraphNode.label.__set__,
    GraphNode.id.__set__,
)


class GraphEdge(Record):
    __slots__ = ("source", "target", "op")
    __match_args__ = ("source", "target", "op")

    source: str
    target: str
    op: Operator

    def __init__(self, source: str, target: str, op: Operator) -> None:
        _edge_source(self, source)
        _edge_target(self, target)
        _edge_op(self, op)

    @property
    def directed(self) -> bool:
        """Only inversion edges have a direction; d and a are involutions."""
        return self.op is _INVERSION


_edge_source, _edge_target, _edge_op = (
    GraphEdge.source.__set__,
    GraphEdge.target.__set__,
    GraphEdge.op.__set__,
)


class ChordGraph(Record):
    __slots__ = ("nodes", "edges", "_by_id")
    __match_args__ = ("nodes", "edges")

    nodes: tuple[GraphNode, ...]
    edges: tuple[GraphEdge, ...]

    def __init__(self, nodes: tuple[GraphNode, ...], edges: tuple[GraphEdge, ...]) -> None:
        _graph_nodes(self, nodes)
        _graph_edges(self, edges)
        _graph_by_id(self, {node.id: node for node in nodes})

    def node(self, node_id: str) -> GraphNode:
        """The node whose id is ``node_id``; raises KeyError(node_id) if there is none.

        An id that cannot be hashed, such as a list, is no node's id either.
        """
        try:
            return self._by_id[node_id]
        except (KeyError, TypeError):
            raise KeyError(node_id) from None


_graph_nodes, _graph_edges, _graph_by_id = (
    ChordGraph.nodes.__set__,
    ChordGraph.edges.__set__,
    ChordGraph._by_id.__set__,
)


_FAMILY_ORDER = {family: index for index, family in enumerate(ROOT_CHORDS)}
_OP_ORDER = {op: index for index, op in enumerate(Operator)}
_ID = attrgetter("id")


def build_chord_graph(include_dd: bool = False) -> ChordGraph:
    """Build the labeled graph over the harmonic four-tone chords.

    The dd chord is fixed by all three operators, so by default it is left
    out; with ``include_dd`` it appears as an isolated node with three
    self-loops.  Nodes come in the label table's family, then inversion
    order.  Edges come grouped by operator (i, d, a), each group sorted by
    source, then target.
    """
    nodes = [
        GraphNode(chord, label)
        for chord, label in seventh_table().items()
        if include_dd or label.family is not _DD
    ]
    # An involution edge is stored from the endpoint whose key sorts first:
    # case-insensitive first so output order is stable across families like
    # dm/Mm; the case-sensitive tiebreak resolves pairs such as MM3/mM3.
    endpoint = {node.chord: (node.id.lower(), node.id) for node in sorted(nodes, key=_ID)}
    chords, keys = list(endpoint), list(endpoint.values())
    edges: list[GraphEdge] = []
    for op, image_of in ((_INVERSION, invert), (_DUALITY, dual), (_AUGDIM, augdim)):
        for key, image in zip(keys, map(endpoint.__getitem__, map(image_of, chords))):
            if op is _INVERSION or key <= image:
                edges.append(GraphEdge(key[1], image[1], op))
    return ChordGraph(tuple(nodes), tuple(edges))


def connected_components(graph: ChordGraph) -> list[list[GraphNode]]:
    """Components of the underlying undirected graph, largest first.

    Each component lists its nodes in family, then inversion order.

    Raises ValueError, naming the edge, if an edge has an endpoint that is
    not one of the graph's nodes.
    """
    # node ids in (family, inversion) order, ranked through the family table
    ranked = sorted(
        [(_FAMILY_ORDER[node.label.family], node.label.inversion, node.id) for node in graph.nodes]
    )
    # node id -> the ids of its component so far, one list shared by its members
    group = {key[2]: [key[2]] for key in ranked}
    for edge in graph.edges:
        try:
            first, second = group[edge.source], group[edge.target]
        except (KeyError, TypeError):  # TypeError: an endpoint that cannot be hashed
            raise _not_a_node(edge, group) from None
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
    return sorted(found.values(), key=len, reverse=True)  # stable: ties keep that order


def _not_a_node(edge: GraphEdge, ids: dict) -> ValueError:
    """The error for an edge with an endpoint outside ``ids``, the source checked first."""
    end = edge.target
    try:
        if edge.source not in ids:
            end = edge.source
    except TypeError:
        end = edge.source
    return ValueError(f"{edge!r} ends at {end!r}, which is not a node")


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
    included.  An edge from a component to any value outside it, or to a
    value that cannot be hashed, breaks it too.
    """
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
        try:
            if source in mapping and target in mapping:
                source, target, keys = mapping[source], mapping[target], mapped_keys
            elif source in lower and target in lower:
                keys = lower_keys
            elif source in mapping or target in mapping or source in lower or target in lower:
                raise IsomorphismViolationError(
                    f"edge leaves its component: {(source, target, op)}"
                )
            else:
                continue  # no end in either component, such as the dd chord's self-loops
        except TypeError:  # an end that cannot be hashed
            raise IsomorphismViolationError(
                f"edge ends at no node: {(source, target, op)}"
            ) from None
        if op is not _INVERSION and target < source:
            source, target = target, source
        keys.add((source, target, op))

    if mapped_keys != lower_keys:
        unmatched = sorted(mapped_keys ^ lower_keys, key=lambda k: (k[0], k[1], _OP_ORDER[k[2]]))
        raise IsomorphismViolationError(f"unmatched edges: {unmatched}")
    return mapping


_OP_LABEL = {op: op.value for op in Operator}  # Enum's .value is a Python-level property
_DOT_ATTRS = {
    _INVERSION: f'label="{_OP_LABEL[_INVERSION]}"',
    _DUALITY: f'label="{_OP_LABEL[_DUALITY]}", dir=both',
    _AUGDIM: f'label="{_OP_LABEL[_AUGDIM]}", dir=both, style=dashed',
}


def export_dot(graph: ChordGraph) -> str:
    """Graphviz DOT text: i solid directed, d solid bidirectional, a dashed bidirectional."""
    lines = ["digraph chord_graph {"]
    lines += [f"  {node.id}" for node in graph.nodes]
    lines += [f"  {edge.source} -> {edge.target} [{_DOT_ATTRS[edge.op]}]" for edge in graph.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


# One node and one edge as json.dumps(indent=2, sort_keys=True) lays them out
# at depth 2, inside the document's "nodes" and "edges" arrays.  A node's
# tones fill its "chord" array; a node without tones takes the second
# template, whose empty array takes the empty join.
_NODE_JSON = """{
      "chord": [
        %s
      ],
      "family": %s,
      "id": %s,
      "inversion": %d
    }"""
_NODE_JSON_NO_TONES = _NODE_JSON.replace("[\n        %s\n      ]", "[]%s")
_TONE_SEPARATOR = ",\n        "
_EDGE_JSON = """{
      "from": %s,
      "op": "%s",
      "to": %s
    }"""
# Each family's value as a JSON string, read once: it is ASCII letters, so
# quoting it escapes nothing.
_FAMILY_JSON = {family: f'"{family.value}"' for family in ROOT_CHORDS}


def export_json(graph: ChordGraph) -> str:
    """One JSON document with sorted keys and deterministically ordered arrays.

    The text is ``json.dumps({"nodes": [...], "edges": [...]}, indent=2,
    sort_keys=True) + "\\n"``, byte for byte: two-space indent, keys sorted,
    strings ASCII-escaped, an empty array written ``[]``.
    """
    from json.encoder import encode_basestring_ascii as quote

    nodes = [
        (_NODE_JSON if node.chord else _NODE_JSON_NO_TONES)
        % (
            _TONE_SEPARATOR.join(map(str, node.chord)),
            _FAMILY_JSON[node.label.family],
            quote(node.id),
            node.label.inversion,
        )
        for node in graph.nodes
    ]
    edges = [
        _EDGE_JSON % (quote(edge.source), _OP_LABEL[edge.op], quote(edge.target))
        for edge in graph.edges
    ]
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
