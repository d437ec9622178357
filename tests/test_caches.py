"""The lazily filled state is a cache: dropping it at any time changes no answer.

A hypothesis state machine calls the operators, ``apply_word``, ``orbit``,
the two gap converters, ``parse_chord`` and ``format_chord``,
``chords_of_partition``, ``classify``, ``seventh_table``,
``build_chord_graph`` and the four graph functions (components,
isomorphism, DOT and JSON export) in any order, and between calls drops
the chord store (its rows and its size index), the operator slots, the
composition and partition slots or the text slots of its rows, the text
memo, the fiber memo, the orbit memo, the gap-permutation cache or the two
shared graphs' memos.  Every answer is checked against ``conftest``'s tone
formulas and ``oracle``'s gaps, gap actions, chord lists, texts, labels,
component map and export digests, none of which shares code with the
library.  A returned list or dict is changed after its check, and the rule
asks the same question again at once, so an answer that reflects the
change fails within the rule that made it.  One rule parses a chord, drops
the store and parses the chord again, so a text memo hit must answer with
the new store's tuple.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, rule

from chordgroups import core, transform
from chordgroups import graph as graph_module
from chordgroups.classify import classify, seventh_table
from chordgroups.core import WrongArityError
from chordgroups.graph import (
    build_chord_graph,
    component_isomorphism,
    connected_components,
    export_dot,
    export_json,
)
from chordgroups.transform import Operator, apply_word, augdim, dual, invert, orbit

from conftest import (
    TONE_FORMULAS, drop_the_chord_store, restore_caches, run_python, snapshot_caches
)
import oracle

I, D, A = Operator.INVERSION, Operator.DUALITY, Operator.AUGDIM


# chord size -> chord -> label text
GOLDEN = {k: {c: label for c, label in oracle.LABELS.items() if len(c) == k} for k in (3, 4)}

# the seventh families in the paper's order; a label is its family, then its inversion
FAMILIES = list(oracle.SEVENTH_ROWS)


def _components(include_dd: bool) -> list:
    """oracle.components as (id, chord) lists, in family then inversion order."""
    ranked = [sorted(ids, key=_rank) for ids in oracle.components(include_dd)]
    return [[(label, oracle.CHORD_OF_LABEL[label]) for label in ids] for ids in ranked]


def _rank(label: str) -> tuple:
    return FAMILIES.index(label[:2]), int(label[2:])


def _image(op: Operator, chord: tuple) -> tuple:
    """The image by op's tone formula, checked against its gap action."""
    image = TONE_FORMULAS[op](chord)
    assert oracle.gaps(image) == oracle.GAP_ACTION[op.value](oracle.gaps(chord))
    return image


CHORDS = [chord for k in range(2, 13) for chord in oracle.all_chords(k)]
# partition -> its chords, sorted: the chords of its size whose sorted gaps it is
FIBERS: dict = {}
for _chord in [(0,), *CHORDS]:
    FIBERS.setdefault(oracle.partition(_chord), []).append(_chord)
# half the draws are harmonic, so a dropped store meets a labelled chord often
chords = st.one_of(st.sampled_from([*GOLDEN[3], *GOLDEN[4]]), st.sampled_from(CHORDS))
tetrads = st.sampled_from([c for c in CHORDS if len(c) == 4])
# half the draws are the harmonic classes' partitions, so a later call often
# meets a fiber whose earlier answer was changed
HARMONIC_PARTITIONS = [(3, 4, 5), (1, 3, 4, 4), (2, 3, 3, 4), (3, 3, 3, 3)]
partitions = st.one_of(st.sampled_from(HARMONIC_PARTITIONS), st.sampled_from(sorted(FIBERS)))


class ChordTableCaches(RuleBasedStateMachine):
    # a state machine takes no fixtures, so it snapshots and restores itself
    def __init__(self) -> None:
        super().__init__()
        self.caches = snapshot_caches()

    def teardown(self) -> None:
        restore_caches(self.caches)

    @rule()
    def drop_the_chord_store(self) -> None:
        drop_the_chord_store()

    @rule()
    def drop_the_operator_slots(self) -> None:
        for row in core.CHORD_ROWS.values():
            row[1:4] = [None, None, None]  # the i, d and a slots

    @rule()
    def drop_the_gap_slots(self) -> None:
        for row in core.CHORD_ROWS.values():
            row[4:6] = [None, None]  # the composition and partition slots

    @rule()
    def drop_the_text_slots(self) -> None:
        for row in core.CHORD_ROWS.values():
            row[6] = None

    @rule()
    def drop_the_text_memo(self) -> None:
        core._CHORD_TEXTS.clear()

    @rule()
    def drop_the_fiber_memo(self) -> None:
        core._FIBERS.clear()

    @rule()
    def drop_the_orbit_memo(self) -> None:
        transform._ORBITS.clear()

    @rule()
    def drop_the_gap_permutations(self) -> None:
        transform.gap_permutation.cache_clear()

    @rule()
    def drop_the_graph_memos(self) -> None:
        for shared in graph_module._GRAPHS.values():
            shared._memo.clear()

    @rule(chord=chords)
    def call_invert(self, chord) -> None:
        assert invert(chord) == _image(I, chord)

    @rule(chord=chords)
    def call_dual(self, chord) -> None:
        assert dual(chord) == _image(D, chord)

    @rule(chord=tetrads)
    def call_augdim(self, chord) -> None:
        assert augdim(chord) == _image(A, chord)

    @rule(word=st.text("idaIDA", max_size=6), chord=chords)
    def call_apply_word(self, word, chord) -> None:
        if "a" in word.lower() and len(chord) != 4:
            with pytest.raises(WrongArityError):
                apply_word(word, chord)
            return
        expected = chord
        for letter in word.lower():
            expected = _image(Operator(letter), expected)
        assert apply_word(word, chord) == expected

    @rule(generators=st.lists(st.sampled_from([I, D, A]), max_size=3), chord=chords)
    def call_orbit(self, generators, chord) -> None:
        if A in generators and len(chord) != 4:
            with pytest.raises(WrongArityError):
                orbit(chord, generators)
            return
        found = [chord]
        for member in found:
            found += {_image(op, member) for op in generators} - set(found)
        members = orbit(chord, generators)
        assert members == sorted(found)
        members.reverse()
        members.pop()
        assert orbit(chord, generators) == sorted(found)

    @rule(chord=chords, partition_first=st.booleans())
    def call_the_gap_converters(self, chord, partition_first) -> None:
        # a partition's first fill fills the composition slot too, so both orders count
        calls = [
            (core.chord_to_composition, oracle.gaps(chord)),
            (core.chord_to_partition, oracle.partition(chord)),
        ]
        for convert, expected in calls[::-1] if partition_first else calls:
            assert convert(chord) == expected

    parsed = Bundle("parsed")

    # a chord parsed before is drawn again often, so a memo hit meets the drops
    @rule(target=parsed, chord=st.one_of(chords, parsed))
    def call_parse_chord(self, chord) -> tuple:
        text = oracle.text(chord)
        # the canonical text first: it is the one a memo hit answers
        for given in (text, f"({text})", f" {text.replace(',', ' , ')} "):
            # the store's own tuple, even when the memo holds a dropped store's
            answer = core.parse_chord(given)
            assert answer == chord and answer is core.CHORD_ROWS[chord][0]
            assert core._CHORD_TEXTS[text] == chord
        assert core.format_chord(chord) == text
        return chord

    @rule(chord=chords)
    def parse_across_a_store_drop(self, chord) -> None:
        text = oracle.text(chord)
        core.parse_chord(text)
        drop_the_chord_store()
        # a text memo hit, whose tuple the dropped store held
        assert core.parse_chord(text) is core.CHORD_ROWS[chord][0]

    @rule(partition=partitions, reverse=st.booleans())
    def call_chords_of_partition(self, partition, reverse) -> None:
        # the parts in descending order too: both orders name one fiber
        fiber = core.chords_of_partition(partition[::-1] if reverse else partition)
        assert fiber == FIBERS[partition]
        fiber.reverse()
        fiber.pop()
        assert core.chords_of_partition(partition) == FIBERS[partition]

    @rule(chord=chords)
    def call_classify(self, chord) -> None:
        if len(chord) not in GOLDEN:
            with pytest.raises(WrongArityError):
                classify(chord)
            return
        label = classify(chord)
        assert (None if label is None else str(label)) == GOLDEN[len(chord)].get(chord)

    @rule()
    def call_seventh_table(self) -> None:
        assert {chord: str(label) for chord, label in seventh_table().items()} == GOLDEN[4]

    @rule(include_dd=st.booleans())
    def call_build_chord_graph(self, include_dd) -> None:
        labels = {c: text for c, text in GOLDEN[4].items() if include_dd or text != "dd0"}
        graph = build_chord_graph(include_dd=include_dd)
        assert {node.chord: node.id for node in graph.nodes} == labels
        for op in (I, D, A):
            # an involution's edge is stored once per pair of ends
            key = (lambda pair: pair) if op is I else (lambda pair: tuple(sorted(pair)))
            expected = {key((labels[c], labels[_image(op, c)])) for c in labels}
            edges = [key((e.source, e.target)) for e in graph.edges if e.op is op]
            assert sorted(edges) == sorted(expected)

    @rule(include_dd=st.booleans())
    def call_connected_components(self, include_dd) -> None:
        graph = build_chord_graph(include_dd)
        expected = _components(include_dd)
        components = connected_components(graph)
        assert [[(n.id, n.chord) for n in c] for c in components] == expected
        components[0].reverse()
        components.pop()
        assert [[(n.id, n.chord) for n in c] for c in connected_components(graph)] == expected

    @rule(include_dd=st.booleans())
    def call_component_isomorphism(self, include_dd) -> None:
        graph = build_chord_graph(include_dd)
        mapping = component_isomorphism(graph)
        assert mapping == oracle.COMPONENT_MAP
        mapping.clear()
        assert component_isomorphism(graph) == oracle.COMPONENT_MAP

    @rule(include_dd=st.booleans(), export=st.sampled_from([export_dot, export_json]))
    def call_export(self, include_dd, export) -> None:
        text = export(build_chord_graph(include_dd))
        fmt = export.__name__.removeprefix("export_")
        assert hashlib.sha256(text.encode()).hexdigest() == oracle.EXPORT_SHA256[fmt, include_dd]


TestChordTableCaches = ChordTableCaches.TestCase
TestChordTableCaches.settings = settings(max_examples=40, stateful_step_count=20, deadline=None)


def _rebuilt(value):
    """An equal value whose tuples and strs are all new objects."""
    if isinstance(value, str):
        return value.encode().decode()
    items = [_rebuilt(v) if isinstance(v, tuple) else v for v in value]
    return items if isinstance(value, list) else tuple(items)


class _RebuildingRow(list):
    """A chord row that stores a rebuilt copy of each value given to it."""

    def __setitem__(self, index, value):
        super().__setitem__(index, _rebuilt(value))


class _RebuildingMemo(dict):
    """A memo that stores a rebuilt copy of each value given to it."""

    def __setitem__(self, key, value):
        super().__setitem__(key, _rebuilt(value))


@pytest.mark.parametrize(
    "site",
    [
        "operator-slot",
        "composition-slot",
        "partition-slot",
        "text-slot",
        "orbit-memo",
        "fiber-memo",
        "text-memo",
    ],
)
def test_a_fill_answers_with_what_it_stored(monkeypatch, site):
    # each cache stores a copy of what it is given, so the first answer is the
    # stored object, member by member, only if the fill reads it back
    chord = core.make_chord((0, 4, 7, 10))
    row = _RebuildingRow([chord, None, None, None, None, None, None])
    monkeypatch.setitem(core.CHORD_ROWS, chord, row)
    monkeypatch.setattr(transform, "_ORBITS", _RebuildingMemo())
    monkeypatch.setattr(core, "_FIBERS", _RebuildingMemo())
    monkeypatch.setattr(core, "_CHORD_TEXTS", _RebuildingMemo())
    # a walk fills the slots of the rows it meets, so the orbit starts from a
    # chord whose orbit never meets the rebuilding row
    orbit_key = (frozenset([transform._SLOT[I]]), (0, 4, 7, 11))
    answer, stored = {
        "operator-slot": lambda: ([dual(chord)], [row[2][0]]),
        "composition-slot": lambda: ([core.chord_to_composition(chord)], [row[4]]),
        "partition-slot": lambda: ([core.chord_to_partition(chord)], [row[5]]),
        "text-slot": lambda: ([core.format_chord(chord)], [row[6]]),
        "orbit-memo": lambda: (orbit(orbit_key[1], [I]), transform._ORBITS[orbit_key]),
        "fiber-memo": lambda: (core.chords_of_partition((2, 3, 3, 4)), core._FIBERS[2, 3, 3, 4]),
        "text-memo": lambda: ([core.parse_chord(" 0,4,7,10 ")], [core._CHORD_TEXTS["0,4,7,10"]]),
    }[site]()
    assert list(map(id, answer)) == list(map(id, stored))


def test_the_stdlib_checks_pass_without_site():
    # without site (-S), so the checks see the standard library alone, and the
    # one exhaustive check of the converters and fibers
    script = Path(__file__).with_name("stdlib_checks.py")
    assert run_python("-S", "-X", "dev", "-W", "error", str(script)).stdout == (
        "The gap converters equal the tone differences on every chord: PASS\n"
        "Each partition's fiber equals the chords with its gaps: PASS\n"
        "Changing a graph answer changes no later answer: PASS\n"
    )


def test_the_chord_store_builds_a_size_on_first_use_only():
    # a bare import builds sizes 3 and 4 (55 + 165 rows) for classify's label
    # tables; a rejected value of an unbuilt size (5, 12 and 8 tones) adds
    # nothing, a 2-tone chord adds its size alone (11 rows), and a rejected
    # tuple of a built size adds nothing
    code = (
        "import chordgroups\n"
        "from chordgroups import core\n"
        "def show():\n"
        "    print(sorted(core.CHORD_SIZES), len(core.CHORD_ROWS))\n"
        "def reject(value):\n"
        "    try:\n"
        "        chordgroups.make_chord(value)\n"
        "    except chordgroups.InvalidChordError as error:\n"
        "        print(type(error).__name__)\n"
        "show()\n"
        "for value in (0, 4, 4, 4, 4), '0,4,7,9,11,2', [0] * 8:\n"
        "    reject(value)\n"
        "show()\n"
        "chordgroups.make_chord((0, 5))\n"
        "show()\n"
        "reject((0, 4, 4, 7))\n"
        "show()\n"
    )
    assert run_python("-S", "-c", code).stdout == (
        "[3, 4] 220\n"
        "NotStrictlyIncreasingError\nInvalidChordError\nNotStrictlyIncreasingError\n"
        "[3, 4] 220\n"
        "[2, 3, 4] 231\nNotStrictlyIncreasingError\n[2, 3, 4] 231\n"
    )
