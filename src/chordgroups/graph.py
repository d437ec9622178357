"""The transformation graph on the labeled harmonic four-tone chords.

Each edge is one operator's action on one node.  Inversion edges are
directed; duality and augmented-diminished edges are undirected, because
both operators are involutions, and each is stored once, from the endpoint
that sorts first (self-loops allowed).  Without the fully fixed dd chord the
graph splits into two 12-node components, one per gap multiset, which the
gap relabelling 1->2, 3->4, 4->3 maps onto each other: it commutes with the
operators, which permute gap positions.  The relabelling 1->4, 3->2, 4->3
is a second isomorphism that shifts the inversion index; it is not returned.

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

from functools import cache

from .classify import ROOT_CHORDS, ChordLabel, SeventhFamily, seventh_table
from .core import Chord, Record, chord_to_composition
from .transform import Operator, augdim, dual, invert

_INVERSION, _DUALITY, _AUGDIM = Operator.INVERSION, Operator.DUALITY, Operator.AUGDIM
_DD = SeventhFamily.dd
_set = object.__setattr__  # Record forbids assignment; constructors set slots through this


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
        _set(self, "chord", chord)
        _set(self, "label", label)
        _set(self, "id", str(label))


class GraphEdge(Record):
    __slots__ = ("source", "target", "op")
    __match_args__ = ("source", "target", "op")

    source: str
    target: str
    op: Operator

    def __init__(self, source: str, target: str, op: Operator) -> None:
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "op", op)

    @property
    def directed(self) -> bool:
        """Only inversion edges have a direction; d and a are involutions."""
        return self.op is _INVERSION


class ChordGraph(Record):
    __slots__ = ("nodes", "edges", "_by_id")
    __match_args__ = ("nodes", "edges")

    nodes: tuple[GraphNode, ...]
    edges: tuple[GraphEdge, ...]

    def __init__(self, nodes: tuple[GraphNode, ...], edges: tuple[GraphEdge, ...]) -> None:
        _set(self, "nodes", nodes)
        _set(self, "edges", edges)
        _set(self, "_by_id", {node.id: node for node in nodes})

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


def _node_key(node: GraphNode) -> tuple[int, int]:
    return (_FAMILY_ORDER[node.label.family], node.label.inversion)


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
    endpoint = {node.chord: (node.id.lower(), node.id) for node in nodes}
    edges: list[GraphEdge] = []
    for op, image_of in ((_INVERSION, invert), (_DUALITY, dual), (_AUGDIM, augdim)):
        pairs = []
        for chord, key in endpoint.items():
            image = endpoint[image_of(chord)]
            if op is _INVERSION or key <= image:
                pairs.append((key[1], image[1]))
        edges += [GraphEdge(source, target, op) for source, target in sorted(pairs)]
    return ChordGraph(tuple(nodes), tuple(edges))


def connected_components(graph: ChordGraph) -> list[list[GraphNode]]:
    """Components of the underlying undirected graph, largest first.

    Each component lists its nodes in family, then inversion order.

    Raises ValueError, naming the edge, if an edge has an endpoint that is
    not one of the graph's nodes.
    """
    neighbours: dict[str, set[str]] = {node.id: set() for node in graph.nodes}
    for edge in graph.edges:
        try:
            neighbours[edge.source].add(edge.target)
            neighbours[edge.target].add(edge.source)
        except KeyError as exc:
            raise ValueError(f"{edge!r} ends at {exc.args[0]!r}, which is not a node") from None

    # each node's place in (family, inversion) order, computed once
    rank = {node.id: n for n, node in enumerate(sorted(graph.nodes, key=_node_key))}
    seen: set[str] = set()
    found: list[list[str]] = []
    for start in neighbours:
        if start in seen:
            continue
        members, stack = {start}, [start]
        while stack:
            new = neighbours[stack.pop()] - members
            members |= new
            stack.extend(new)
        seen |= members
        found.append(sorted(members, key=rank.__getitem__))

    found.sort(key=lambda ids: (-len(ids), [rank[i] for i in ids]))
    by_id = graph._by_id
    return [[by_id[i] for i in ids] for ids in found]


# Operators permute gap positions, so they commute with a relabelling of gap values.
_GAP_RELABELLING = {1: 2, 3: 4, 4: 3}
_gaps = cache(chord_to_composition)  # the same 25 chords come back on every call


def component_isomorphism(graph: ChordGraph) -> dict[str, str]:
    """The gap-relabelling map between the two 12-node components.

    Raises IsomorphismViolationError unless it preserves every edge, operator included.
    """
    id_of = {_gaps(node.chord): node.id for node in graph.nodes}
    mapping: dict[str, str] = {}
    for gaps, node_id in id_of.items():
        if sorted(gaps) == [1, 3, 4, 4]:
            image = tuple([_GAP_RELABELLING[gap] for gap in gaps])
            if image not in id_of:
                raise IsomorphismViolationError(f"{node_id} has no image: no node has gaps {image}")
            mapping[node_id] = id_of[image]
    lower = set(mapping.values())

    mapped_keys, lower_keys = set(), set()
    for edge in graph.edges:
        source, target, op = edge.source, edge.target, edge.op
        keys = lower_keys
        if source in mapping and target in mapping:
            source, target, keys = mapping[source], mapping[target], mapped_keys
        elif source in mapping or target in mapping:
            raise IsomorphismViolationError(f"edge leaves its component: {(source, target, op)}")
        elif source not in lower and target not in lower:
            continue
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
# at depth 2, inside the document's "nodes" and "edges" arrays.
_NODE_JSON = """{
      "chord": %s,
      "family": %s,
      "id": %s,
      "inversion": %d
    }"""
_EDGE_JSON = """{
      "from": %s,
      "op": "%s",
      "to": %s
    }"""


def export_json(graph: ChordGraph) -> str:
    """One JSON document with sorted keys and deterministically ordered arrays.

    The text is ``json.dumps({"nodes": [...], "edges": [...]}, indent=2,
    sort_keys=True) + "\\n"``, byte for byte: two-space indent, keys sorted,
    strings ASCII-escaped, an empty array written ``[]``.
    """
    from json.encoder import encode_basestring_ascii as quote

    nodes = [
        _NODE_JSON
        % (
            _json_array(list(map(str, node.chord)), "      "),
            quote(node.label.family.value),
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
