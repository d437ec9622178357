from __future__ import annotations

import json
import pickle
import re

import pytest

from chordgroups.classify import ChordLabel, SeventhFamily, TriadFamily, seventh_table
from chordgroups.core import EmptyChordError
from chordgroups.graph import (
    ChordGraph,
    GraphEdge,
    GraphNode,
    IsomorphismViolationError,
    Operator,
    build_chord_graph,
    component_isomorphism,
    connected_components,
    export_dot,
    export_json,
)
from chordgroups.transform import augdim, dual, invert
from chordgroups.verify import SEVENTH_ROWS
import oracle
from oracle import GAP_ACTION, chord_of, gaps


@pytest.fixture(scope="module")
def graph():
    return build_chord_graph(include_dd=False)


@pytest.fixture(scope="module")
def graph_with_dd():
    return build_chord_graph(include_dd=True)


def _in_family_order(components):
    """Each component's ids by family, in the paper's order, then by inversion."""
    families = list(oracle.SEVENTH_ROWS)

    def rank(label):
        return families.index(label[:2]), int(label[2:])

    return [sorted(ids, key=rank) for ids in components]


def _edges(graph, op):
    return [e for e in graph.edges if e.op is op]


class TestBuild:
    def test_node_counts(self, graph, graph_with_dd):
        assert len(graph.nodes) == 24
        assert len(graph_with_dd.nodes) == 25

    def test_every_node_is_a_labeled_harmonic_tetrad(self, graph_with_dd):
        table = seventh_table()
        assert {n.chord for n in graph_with_dd.nodes} == set(table)
        for node in graph_with_dd.nodes:
            assert node.label == table[node.chord]

    def test_edge_semantics(self, graph):
        by_id = {n.id: n for n in graph.nodes}
        for edge in graph.edges:
            source, target = by_id[edge.source], by_id[edge.target]
            if edge.op is Operator.INVERSION:
                assert invert(source.chord) == target.chord
            else:
                fn = dual if edge.op is Operator.DUALITY else augdim
                assert fn(source.chord) == target.chord
                assert fn(target.chord) == source.chord

    def test_edge_counts(self, graph):
        # independent recount: involution edges pair up the non-fixed nodes
        chords = [n.chord for n in graph.nodes]
        a_fixed = sum(1 for c in chords if augdim(c) == c)
        d_fixed = sum(1 for c in chords if dual(c) == c)
        assert len(_edges(graph, Operator.INVERSION)) == 24
        assert len(_edges(graph, Operator.DUALITY)) == (24 - d_fixed) // 2 + d_fixed == 12
        assert len(_edges(graph, Operator.AUGDIM)) == (24 - a_fixed) // 2 + a_fixed == 14

    def test_a_self_loops(self, graph):
        loops = {e.source for e in _edges(graph, Operator.AUGDIM) if e.source == e.target}
        assert loops == {"mM0", "AM3", "Mm0", "dm3"}

    def test_no_duality_self_loops_without_dd(self, graph):
        assert all(e.source != e.target for e in _edges(graph, Operator.DUALITY))

    def test_dd_is_fixed_by_all_three_operators(self, graph_with_dd):
        dd_edges = [
            e for e in graph_with_dd.edges if "dd0" in (e.source, e.target)
        ]
        assert len(dd_edges) == 3
        assert all(e.source == e.target == "dd0" for e in dd_edges)

    def test_inversion_edges_cycle_through_each_family_row(self, graph):
        successor = {
            e.source: e.target for e in _edges(graph, Operator.INVERSION)
        }
        for family, row in SEVENTH_ROWS.items():
            if family is SeventhFamily.dd:
                continue
            for n in range(len(row)):
                assert successor[f"{family.value}{n}"] == f"{family.value}{(n + 1) % len(row)}"

    def test_nodes_come_in_reference_row_order(self, graph_with_dd):
        expected = [
            f"{family.value}{n}" for family, row in SEVENTH_ROWS.items() for n in range(len(row))
        ]
        assert [n.id for n in graph_with_dd.nodes] == expected

    @pytest.mark.parametrize("include_dd", [False, True])
    def test_every_call_returns_the_shared_graph(self, include_dd):
        # one graph per variant, built at import; its id index cannot be written
        graph = build_chord_graph(include_dd)
        assert build_chord_graph(include_dd) is graph
        with pytest.raises(TypeError):
            graph._by_id["X"] = graph.nodes[0]
        with pytest.raises(AttributeError):
            graph._by_id.clear()
        assert build_chord_graph(include_dd).node("MM0").id == "MM0"

    # ChordGraph keeps its nodes and edges as tuples, whatever iterables it is given
    def test_a_graph_built_from_a_generator_keeps_its_nodes(self, graph):
        rebuilt = ChordGraph((node for node in graph.nodes), (edge for edge in graph.edges))
        assert rebuilt == graph
        assert export_dot(rebuilt) == export_dot(graph)

    def test_a_graph_built_from_lists_equals_and_hashes_as_from_tuples(self, graph):
        rebuilt = ChordGraph(list(graph.nodes), list(graph.edges))
        assert rebuilt == graph
        assert hash(rebuilt) == hash(graph)

    # any true value includes dd and any false one leaves it out, as a bool does
    @pytest.mark.parametrize(
        "include_dd, dd",
        [(1, True), ("yes", True), ([1], True), (0, False), ("", False), (None, False), ([], False)],
        ids=repr,
    )
    def test_include_dd_is_read_by_truthiness(self, include_dd, dd):
        assert build_chord_graph(include_dd) == build_chord_graph(dd)

    # dd0 is a label, but not a node without include_dd; a list cannot be hashed
    @pytest.mark.parametrize("node_id", ["dd0", "XX0", 0, ["MM0"]], ids=repr)
    def test_an_unknown_node_id_is_a_key_error(self, graph, node_id):
        with pytest.raises(KeyError) as excinfo:
            graph.node(node_id)
        assert excinfo.value.args == (node_id,)


# a value that is not a ChordGraph, a tuple of its nodes included
@pytest.mark.parametrize(
    "function", [connected_components, component_isomorphism, export_dot, export_json]
)
@pytest.mark.parametrize(
    "value", [None, 5, "graph", build_chord_graph().nodes], ids=["None", "5", "str", "nodes"]
)
def test_a_value_that_is_no_graph_is_a_value_error(function, value):
    with pytest.raises(ValueError, match=re.escape(f"not a chord graph: {value!r}")) as excinfo:
        function(value)
    assert excinfo.type is ValueError


class TestMemo:
    """Each graph derives its components, isomorphism and exports once and keeps them."""

    @pytest.mark.parametrize("include_dd", [False, True])
    @pytest.mark.parametrize("fresh", [False, True], ids=["shared", "fresh"])
    def test_changing_an_answer_changes_no_later_answer(self, include_dd, fresh):
        graph = build_chord_graph(include_dd)
        if fresh:  # an empty memo, so the first answer is the one derived
            graph = ChordGraph(graph.nodes, graph.edges)
        components, mapping = connected_components(graph), component_isomorphism(graph)
        expected = ([list(c) for c in components], dict(mapping))
        components[0].reverse()
        components[-1].clear()
        components.append(components.pop(0))
        mapping["MM0"] = "XX0"
        del mapping["mM1"]
        assert connected_components(graph) == expected[0]
        assert component_isomorphism(graph) == expected[1]

    @pytest.mark.parametrize("include_dd", [False, True])
    @pytest.mark.parametrize("export", [export_dot, export_json])
    def test_a_second_export_is_the_same_text(self, include_dd, export):
        graph = build_chord_graph(include_dd)
        fresh = ChordGraph(graph.nodes, graph.edges)
        first = export(fresh)
        assert export(fresh) == first == export(graph)

    def test_a_failed_isomorphism_stores_nothing_and_raises_again(self, graph):
        edges = tuple(e for e in graph.edges if {e.source, e.target} != {"MM1", "MM2"})
        broken = ChordGraph(graph.nodes, edges)
        for _ in range(2):
            with pytest.raises(IsomorphismViolationError, match="unmatched edges"):
                component_isomorphism(broken)
        assert broken._memo == {}

    @pytest.mark.parametrize("include_dd", [False, True])
    def test_a_filled_memo_changes_no_equality_hash_or_pickle(self, include_dd):
        graph = build_chord_graph(include_dd)
        for function in (connected_components, component_isomorphism, export_dot, export_json):
            function(graph)
        fresh = ChordGraph(graph.nodes, graph.edges)
        assert graph._memo and not fresh._memo
        assert graph == fresh
        assert hash(graph) == hash(fresh)
        assert repr(graph) == repr(fresh)
        assert pickle.dumps(graph) == pickle.dumps(fresh)
        unpickled = pickle.loads(pickle.dumps(graph))
        assert unpickled == fresh and unpickled._memo == {}


class TestEdgeOrder:
    @pytest.mark.parametrize("include_dd", [False, True])
    def test_groups_come_in_the_order_i_d_a(self, include_dd):
        ops = [e.op for e in build_chord_graph(include_dd).edges]
        order = (Operator.INVERSION, Operator.DUALITY, Operator.AUGDIM)
        assert ops == [op for op in order for _ in range(ops.count(op))]

    @pytest.mark.parametrize("include_dd", [False, True])
    def test_each_group_is_sorted_by_source_then_target(self, include_dd):
        graph = build_chord_graph(include_dd)
        for op in Operator:
            pairs = [(e.source, e.target) for e in _edges(graph, op)]
            assert pairs == sorted(pairs)

    @pytest.mark.parametrize("include_dd", [False, True])
    def test_an_involution_edge_is_stored_once_from_its_first_key(self, include_dd):
        # every edge, derived from the gap actions: i from each node, d and a
        # from the endpoint whose (id.lower(), id) sorts first, self-loops kept
        graph = build_chord_graph(include_dd)
        id_of = {node.chord: node.id for node in graph.nodes}

        def key(node_id):
            return node_id.lower(), node_id

        expected = []
        for op in Operator:
            pairs = set()
            for node in graph.nodes:
                pair = (node.id, id_of[chord_of(GAP_ACTION[op.value](gaps(node.chord)))])
                pairs.add(pair if op is Operator.INVERSION else tuple(sorted(pair, key=key)))
            expected += [(source, target, op) for source, target in sorted(pairs)]
        assert [(e.source, e.target, e.op) for e in graph.edges] == expected

    def test_duality_group(self, graph):
        # dm/Mm pairs go from dm, which sorts first case-insensitively, not by code point
        assert [(e.source, e.target) for e in _edges(graph, Operator.DUALITY)] == [
            ("AM0", "mM3"), ("AM1", "mM2"), ("AM2", "mM1"), ("AM3", "mM0"),
            ("MM0", "MM3"), ("MM1", "MM2"),
            ("dm0", "Mm3"), ("dm1", "Mm2"), ("dm2", "Mm1"), ("dm3", "Mm0"),
            ("mm0", "mm3"), ("mm1", "mm2"),
        ]  # fmt: skip

    def test_dd_adds_one_self_loop_to_each_group(self, graph, graph_with_dd):
        extra = [e for e in graph_with_dd.edges if e not in graph.edges]
        assert [(e.source, e.target, e.op) for e in extra] == [
            ("dd0", "dd0", op) for op in Operator
        ]


class TestComponents:
    def test_dd_forms_its_own_component(self, graph_with_dd):
        components = connected_components(graph_with_dd)
        assert [len(c) for c in components] == [12, 12, 1]
        assert components[-1][0].id == "dd0"

    def test_upper_component_families(self, graph):
        upper, lower = connected_components(graph)
        assert {n.label.family for n in upper} == set(map(SeventhFamily, oracle.UPPER_FAMILIES))
        assert {n.label.family for n in lower} == set(map(SeventhFamily, oracle.LOWER_FAMILIES))

    def test_components_split_by_partition_class(self, graph):
        from chordgroups.core import chord_to_partition

        upper, lower = connected_components(graph)
        assert {chord_to_partition(n.chord) for n in upper} == {(1, 3, 4, 4)}
        assert {chord_to_partition(n.chord) for n in lower} == {(2, 3, 3, 4)}

    @pytest.mark.parametrize("node_order", [1, -1], ids=["built", "reversed"])
    def test_members_come_in_family_then_inversion_order(self, graph_with_dd, node_order):
        shuffled = ChordGraph(graph_with_dd.nodes[::node_order], graph_with_dd.edges)
        components = connected_components(shuffled)
        assert [[n.id for n in c] for c in components] == _in_family_order(oracle.components(True))

    # mm0 and MM0 are the source of the first edge to reach them, dm3 its target
    @pytest.mark.parametrize("dropped", ["mm0", "MM0", "dm3"])
    def test_an_edge_to_a_missing_node_is_a_value_error(self, graph, dropped):
        # the node goes, its edges stay: no such graph is built, and the
        # first edge to reach the node is named
        nodes = tuple(n for n in graph.nodes if n.id != dropped)
        edge = next(e for e in graph.edges if dropped in (e.source, e.target))
        message = f"{edge!r} ends at {dropped!r}, which is not a node"
        with pytest.raises(ValueError, match=re.escape(message)) as excinfo:
            ChordGraph(nodes, graph.edges)
        assert excinfo.type is ValueError


class TestIsomorphism:
    def test_label_map(self, graph):
        mapping = component_isomorphism(graph)
        assert len(mapping) == 12
        assert mapping["MM0"] == "mm0"
        assert mapping["mM2"] == "Mm2"
        assert mapping["AM3"] == "dm3"

    def test_missing_edge_is_a_violation(self, graph):
        edges = tuple(
            e for e in graph.edges if (e.source, e.target, e.op) != ("dm0", "mm0", Operator.AUGDIM)
        )
        assert len(edges) == len(graph.edges) - 1
        unmatched = "[('dm0', 'mm0', <Operator.AUGDIM: 'a'>)]"
        with pytest.raises(IsomorphismViolationError, match=re.escape(unmatched)):
            component_isomorphism(ChordGraph(graph.nodes, edges))

    @pytest.mark.parametrize(
        "pair, unmatched",
        [
            (
                {"MM1", "MM2"},
                "[('mm1', 'mm2', <Operator.INVERSION: 'i'>), ('mm1', 'mm2', <Operator.DUALITY: 'd'>)]",
            ),
            (
                {"AM1", "mM2"},
                "[('Mm2', 'dm1', <Operator.DUALITY: 'd'>), ('Mm2', 'dm1', <Operator.AUGDIM: 'a'>)]",
            ),
        ],
        ids=["MM1-MM2", "AM1-mM2"],
    )
    def test_two_missing_edges_on_one_pair_are_a_violation(self, graph, pair, unmatched):
        # the two unmatched keys differ only in their operator
        edges = tuple(e for e in graph.edges if {e.source, e.target} != pair)
        assert len(edges) == len(graph.edges) - 2
        with pytest.raises(IsomorphismViolationError, match=re.escape(unmatched)):
            component_isomorphism(ChordGraph(graph.nodes, edges))

    @pytest.mark.parametrize("include_dd, target", [(False, "mm1"), (True, "dd0")])
    def test_edge_leaving_the_component_is_a_violation(self, include_dd, target):
        # mapping mm1 to itself would alias the real mm0 -> mm1 edge and pass
        graph = build_chord_graph(include_dd=include_dd)
        edges = tuple(
            GraphEdge(e.source, target, e.op)
            if (e.source, e.op) == ("MM0", Operator.INVERSION)
            else e
            for e in graph.edges
        )
        named = f"('MM0', '{target}', <Operator.INVERSION: 'i'>)"
        with pytest.raises(IsomorphismViolationError, match=re.escape(named)):
            component_isomorphism(ChordGraph(graph.nodes, edges))

    def test_missing_partner_node_is_a_violation(self, graph):
        nodes = tuple(n for n in graph.nodes if n.id != "mm0")
        edges = tuple(e for e in graph.edges if "mm0" not in (e.source, e.target))
        with pytest.raises(IsomorphismViolationError):
            component_isomorphism(ChordGraph(nodes, edges))

    def test_example_edges_map_across_components(self, graph):
        # a sends MM0 to AM0 upstairs and its partner mm0 to dm0 downstairs
        assert augdim((0, 4, 7, 11)) == (0, 4, 8, 11)
        assert augdim((0, 3, 7, 10)) == (0, 3, 6, 10)
        # d sends mM0 to AM3 upstairs and its partner Mm0 to dm3 downstairs
        assert dual((0, 3, 7, 11)) == (0, 1, 5, 9)
        assert dual((0, 4, 7, 10)) == (0, 2, 5, 8)


class TestDotExport:
    def test_starts_with_digraph(self, graph):
        assert export_dot(graph).startswith("digraph")

    def test_contains_directed_inversion_edge(self, graph):
        assert 'MM0 -> MM1 [label="i"]' in export_dot(graph)

    def test_contains_dashed_a_self_loop(self, graph):
        assert 'mM0 -> mM0 [label="a", dir=both, style=dashed]' in export_dot(graph)

    def test_duality_edges_are_bidirectional_solid(self, graph):
        dot = export_dot(graph)
        assert '[label="d", dir=both]' in dot
        assert '[label="d", dir=both, style=dashed]' not in dot

    def test_declares_24_nodes(self, graph):
        node_lines = [
            line
            for line in export_dot(graph).splitlines()
            if line.startswith("  ") and "->" not in line
        ]
        assert len(node_lines) == 24


class TestJsonExport:
    def test_round_trips_as_json(self, graph):
        document = json.loads(export_json(graph))
        assert set(document) == {"nodes", "edges"}
        assert len(document["nodes"]) == 24

    def test_dd_node_entry(self, graph_with_dd):
        document = json.loads(export_json(graph_with_dd))
        assert {
            "id": "dd0",
            "chord": [0, 3, 6, 9],
            "family": "dd",
            "inversion": 0,
        } in document["nodes"]

    def test_known_a_edge(self, graph):
        document = json.loads(export_json(graph))
        assert {"from": "dm1", "to": "Mm2", "op": "a"} in document["edges"]

    def test_edge_counts_by_operator(self, graph):
        document = json.loads(export_json(graph))
        counts = {"i": 0, "d": 0, "a": 0}
        for edge in document["edges"]:
            counts[edge["op"]] += 1
        assert counts == {"i": 24, "d": 12, "a": 14}


def _json_dumps_export(graph):
    """The document export_json describes, encoded by json.dumps."""
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


class TestJsonExportIsJsonDumps:
    @pytest.mark.parametrize("include_dd", [False, True])
    def test_built_graphs(self, include_dd):
        graph = build_chord_graph(include_dd=include_dd)
        assert export_json(graph) == _json_dumps_export(graph)

    def test_nodes_without_edges(self, graph):
        bare = ChordGraph(graph.nodes, ())
        text = export_json(bare)
        assert text == _json_dumps_export(bare)
        assert '"edges": [],' in text

    def test_empty_graph(self):
        text = export_json(ChordGraph((), ()))
        assert text == _json_dumps_export(ChordGraph((), ()))
        assert text == '{\n  "edges": [],\n  "nodes": []\n}\n'

    # the constructors admit no node with an empty chord and no edge whose
    # ends are not node ids, so every string a graph holds is a label's id
    def test_no_graph_holds_a_string_to_escape_or_an_empty_chord(self):
        with pytest.raises(EmptyChordError):
            GraphNode((), ChordLabel(TriadFamily.MAJOR, 0))
        node = GraphNode((0, 4, 7), ChordLabel(TriadFamily.MAJOR, 0))
        edge = GraphEdge('a "quoted"\\path', "\u00e9\t\U0001d11e", Operator.DUALITY)
        with pytest.raises(ValueError, match="which is not a node"):
            ChordGraph((node,), (edge,))
