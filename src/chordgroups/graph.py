"""The transformation graph on the labeled harmonic four-tone chords.

Each edge is one operator's action on one node.  Inversion edges are
directed; duality and augmented-diminished edges are undirected, because
both operators are involutions, and each is stored once, from the endpoint
that sorts first (self-loops allowed).  Without the fully fixed dd chord
the graph splits into two 12-node components that are isomorphic via the
label map MM->mm, mM->Mm, AM->dm.

The node, edge and graph types are ``core.Record`` values.  They are not
dataclasses, because importing ``dataclasses`` pulls in ``inspect`` and
``ast``, and not NamedTuples, which compare equal to plain tuples.  Each
derived value (a node's id, the graph's id index) is computed once, when
the value is built.
"""

from __future__ import annotations

import json

from .classify import ChordLabel, SeventhFamily, seventh_table
from .core import Chord, Record
from .transform import Operator, apply_operator


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
        self._init(chord, label, str(label))


class GraphEdge(Record):
    __slots__ = ("source", "target", "op")
    __match_args__ = ("source", "target", "op")

    source: str
    target: str
    op: Operator

    def __init__(self, source: str, target: str, op: Operator) -> None:
        self._init(source, target, op)

    @property
    def directed(self) -> bool:
        """Only inversion edges have a direction; d and a are involutions."""
        return self.op is Operator.INVERSION


class ChordGraph(Record):
    __slots__ = ("nodes", "edges", "_by_id")
    __match_args__ = ("nodes", "edges")

    nodes: tuple[GraphNode, ...]
    edges: tuple[GraphEdge, ...]

    def __init__(self, nodes: tuple[GraphNode, ...], edges: tuple[GraphEdge, ...]) -> None:
        self._init(nodes, edges, {node.id: node for node in nodes})

    def node(self, node_id: str) -> GraphNode:
        return self._by_id[node_id]


_FAMILY_ORDER = {family: index for index, family in enumerate(SeventhFamily)}
_OP_ORDER = {op: index for index, op in enumerate(Operator)}


def _node_key(node: GraphNode) -> tuple[int, int]:
    return (_FAMILY_ORDER[node.label.family], node.label.inversion)


def _endpoint_key(node: GraphNode) -> tuple[str, str]:
    # Case-insensitive first so output order is stable across families like
    # dm/Mm; the case-sensitive tiebreak resolves pairs such as MM3/mM3.
    return (node.id.lower(), node.id)


def build_chord_graph(include_dd: bool = False) -> ChordGraph:
    """Build the labeled graph over the harmonic four-tone chords.

    The dd chord is fixed by all three operators, so by default it is left
    out; with ``include_dd`` it appears as an isolated node with three
    self-loops.
    """
    table = seventh_table()
    nodes = sorted(
        (
            GraphNode(chord, label)
            for chord, label in table.items()
            if include_dd or label.family is not SeventhFamily.dd
        ),
        key=_node_key,
    )
    by_chord = {node.chord: node for node in nodes}

    edges: list[GraphEdge] = []
    for node in nodes:
        for op in Operator:
            image = by_chord[apply_operator(op, node.chord)]
            if op is Operator.INVERSION or _endpoint_key(node) <= _endpoint_key(image):
                edges.append(GraphEdge(node.id, image.id, op))

    edges.sort(key=lambda e: (_OP_ORDER[e.op], e.source, e.target))
    return ChordGraph(tuple(nodes), tuple(edges))


def connected_components(graph: ChordGraph) -> list[list[GraphNode]]:
    """Components of the underlying undirected graph, largest first."""
    neighbours: dict[str, set[str]] = {node.id: set() for node in graph.nodes}
    for edge in graph.edges:
        neighbours[edge.source].add(edge.target)
        neighbours[edge.target].add(edge.source)

    by_id = graph._by_id
    remaining = dict.fromkeys(neighbours)
    components: list[list[GraphNode]] = []
    while remaining:
        start = next(iter(remaining))
        stack = [start]
        members: set[str] = set()
        while stack:
            current = stack.pop()
            if current in members:
                continue
            members.add(current)
            del remaining[current]
            stack.extend(n for n in neighbours[current] if n not in members)
        components.append(sorted((by_id[m] for m in members), key=_node_key))

    components.sort(key=lambda comp: (-len(comp), [_node_key(n) for n in comp]))
    return components


_COMPONENT_MAP = {
    SeventhFamily.MM: SeventhFamily.mm,
    SeventhFamily.mM: SeventhFamily.Mm,
    SeventhFamily.AM: SeventhFamily.dm,
}


def component_isomorphism(graph: ChordGraph) -> dict[str, str]:
    """The label map between the two 12-node components, edge-checked.

    Maps each upper-component node (F, n) to (F', n) with F' given by
    MM->mm, mM->Mm, AM->dm, and verifies that every operator-labeled edge
    is preserved in both directions.  A failure raises
    IsomorphismViolationError; dd nodes, if present, are ignored.
    """
    mapping: dict[str, str] = {}
    for node in graph.nodes:
        partner_family = _COMPONENT_MAP.get(node.label.family)
        if partner_family is not None:
            mapping[node.id] = str(ChordLabel(partner_family, node.label.inversion))
    inverse = {lower: upper for upper, lower in mapping.items()}

    def edge_key(source: str, target: str, op: Operator):
        if op is Operator.INVERSION:
            return (source, target, op)
        return (*sorted((source, target)), op)

    lower_keys = set()
    mapped_keys = set()
    for edge in graph.edges:
        if edge.source in mapping:
            mapped_keys.add(
                edge_key(mapping[edge.source], mapping[edge.target], edge.op)
            )
        elif edge.source in inverse:
            lower_keys.add(edge_key(edge.source, edge.target, edge.op))

    if mapped_keys != lower_keys:
        raise IsomorphismViolationError(
            f"unmatched edges: {sorted(mapped_keys ^ lower_keys)}"
        )
    return mapping


def export_dot(graph: ChordGraph) -> str:
    """Graphviz DOT text: i solid directed, d solid bidirectional, a dashed bidirectional."""
    lines = ["digraph chord_graph {"]
    for node in graph.nodes:
        lines.append(f"  {node.id}")
    for edge in graph.edges:
        attrs = [f'label="{edge.op.value}"']
        if not edge.directed:
            attrs.append("dir=both")
        if edge.op is Operator.AUGDIM:
            attrs.append("style=dashed")
        lines.append(f'  {edge.source} -> {edge.target} [{", ".join(attrs)}]')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(graph: ChordGraph) -> str:
    """One JSON document with sorted keys and deterministically ordered arrays."""
    document = {
        "nodes": [
            {
                "id": node.id,
                "chord": list(node.chord),
                "family": node.label.family.value,
                "inversion": node.label.inversion,
            }
            for node in graph.nodes
        ],
        "edges": [
            {"from": edge.source, "to": edge.target, "op": edge.op.value}
            for edge in graph.edges
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
