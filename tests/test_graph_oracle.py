"""The graph's components and isomorphism checked against networkx.

VF2 (Cordella et al., 2004) lists every operator-preserving isomorphism
between the two 12-node components, so these tests can say how many there
are and which one ``component_isomorphism`` returns.  networkx's own
``connected_components`` checks ours on random edge subsets, and its
diameters and eccentricities give each component's distances, the
paper's "concept of distance", as literal data.  networkx is a test-only
dependency; without it the module is skipped.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordgroups.graph import (
    ChordGraph,
    Operator,
    build_chord_graph,
    component_isomorphism,
    connected_components,
)
from oracle import gaps

nx = pytest.importorskip("networkx")
iso = pytest.importorskip("networkx.algorithms.isomorphism")

# The isomorphism the library does not return: gap relabelling 1->4, 3->2, 4->3,
# i.e. MM n -> mm n+2, mM n -> dm n-1, AM n -> Mm n+1.
SHIFTED = {
    "MM0": "mm2", "MM1": "mm3", "MM2": "mm0", "MM3": "mm1",
    "mM0": "dm3", "mM1": "dm0", "mM2": "dm1", "mM3": "dm2",
    "AM0": "Mm1", "AM1": "Mm2", "AM2": "Mm3", "AM3": "Mm0",
}

# The non-identity automorphism of each component: gap relabelling 1<->3 on
# the upper one, 2<->4 on the lower one.
UPPER_SWAP = {
    "MM0": "MM2", "MM1": "MM3", "MM2": "MM0", "MM3": "MM1",
    "mM0": "AM3", "mM1": "AM0", "mM2": "AM1", "mM3": "AM2",
    "AM0": "mM1", "AM1": "mM2", "AM2": "mM3", "AM3": "mM0",
}
LOWER_SWAP = {
    "mm0": "mm2", "mm1": "mm3", "mm2": "mm0", "mm3": "mm1",
    "Mm0": "dm3", "Mm1": "dm0", "Mm2": "dm1", "Mm3": "dm2",
    "dm0": "Mm1", "dm1": "Mm2", "dm2": "Mm3", "dm3": "Mm0",
}


def _arcs(graph, component):
    """The component as a multigraph: one arc per i edge, two per d or a edge."""
    ids = {node.id for node in component}
    arcs = nx.MultiDiGraph()
    arcs.add_nodes_from(ids)
    for edge in graph.edges:
        if edge.source in ids:
            arcs.add_edge(edge.source, edge.target, op=edge.op)
            if edge.op is not Operator.INVERSION and edge.source != edge.target:
                arcs.add_edge(edge.target, edge.source, op=edge.op)
    return arcs


def _isomorphisms(first, second):
    matcher = iso.MultiDiGraphMatcher(
        first, second, edge_match=iso.categorical_multiedge_match("op", None)
    )
    return {frozenset(m.items()) for m in matcher.isomorphisms_iter()}


@pytest.fixture(params=[False, True], ids=["without-dd", "with-dd"])
def graph(request):
    return build_chord_graph(include_dd=request.param)


def test_library_map_is_one_of_exactly_two_isomorphisms(graph):
    upper, lower, *_ = (_arcs(graph, c) for c in connected_components(graph))
    assert _isomorphisms(upper, lower) == {
        frozenset(component_isomorphism(graph).items()),
        frozenset(SHIFTED.items()),
    }


def test_each_component_has_exactly_two_automorphisms(graph):
    upper, lower, *_ = (_arcs(graph, c) for c in connected_components(graph))
    for arcs, swap in ((upper, UPPER_SWAP), (lower, LOWER_SWAP)):
        identity = {(node, node) for node in arcs}
        assert _isomorphisms(arcs, arcs) == {frozenset(identity), frozenset(swap.items())}


@pytest.mark.parametrize(
    "table, relabel",
    [(SHIFTED, {1: 4, 3: 2, 4: 3}), (UPPER_SWAP, {1: 3, 3: 1, 4: 4}), (LOWER_SWAP, {2: 4, 4: 2, 3: 3})],
    ids=["shifted", "upper-swap", "lower-swap"],
)
def test_tables_are_gap_relabellings(table, relabel):
    chord_of = {node.id: node.chord for node in build_chord_graph().nodes}
    for source, target in table.items():
        assert gaps(chord_of[target]) == tuple(relabel[g] for g in gaps(chord_of[source]))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), include_dd=st.booleans())
def test_components_match_networkx_on_any_edge_subset(data, include_dd):
    built = build_chord_graph(include_dd=include_dd)
    edges = data.draw(st.lists(st.sampled_from(built.edges), unique=True), label="edges")
    nodes = data.draw(st.permutations(built.nodes), label="node order")
    components = connected_components(ChordGraph(tuple(nodes), tuple(edges)))

    undirected = nx.Graph()
    undirected.add_nodes_from(node.id for node in nodes)
    undirected.add_edges_from((edge.source, edge.target) for edge in edges)
    expected = list(nx.connected_components(undirected))
    assert sorted(map(frozenset, expected), key=sorted) == sorted(
        (frozenset(node.id for node in component) for component in components), key=sorted
    )
    # largest first; members, and components of equal size by their first
    # member, in family, then inversion order, which is the built order
    rank = {node.id: n for n, node in enumerate(built.nodes)}
    ranks = [[rank[node.id] for node in component] for component in components]
    assert all(r == sorted(r) for r in ranks)
    assert ranks == sorted(ranks, key=lambda r: (-len(r), r[0]))


# The paper's distance on each 12-node component, measured with networkx:
# directed, an i edge runs one way and a d or a edge both ways; undirected,
# every edge runs both ways.  Listed upper component first.
DIRECTED_DIAMETER = 4
UNDIRECTED_DIAMETER = 3
DIRECTED_ECCENTRICITIES = {3, 4}
UNDIRECTED_ECCENTRICITIES = {3}
# the nodes of directed eccentricity 4; every other node's is 3
FARTHEST = [{"MM1", "MM3", "mM2", "AM1"}, {"Mm2", "dm1", "mm1", "mm3"}]


def test_component_distances_match_networkx(graph):
    components = [c for c in connected_components(graph) if len(c) == 12]
    assert len(components) == len(FARTHEST)
    for component, farthest in zip(components, FARTHEST):
        directed = _arcs(graph, component)
        undirected = nx.Graph(directed)  # a d or a edge's two arcs become one edge
        assert nx.diameter(directed) == DIRECTED_DIAMETER
        assert nx.diameter(undirected) == UNDIRECTED_DIAMETER
        eccentricity = nx.eccentricity(directed)
        assert set(eccentricity.values()) == DIRECTED_ECCENTRICITIES
        assert {node for node, e in eccentricity.items() if e == 4} == farthest
        assert set(nx.eccentricity(undirected).values()) == UNDIRECTED_ECCENTRICITIES
