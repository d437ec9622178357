"""The lazily filled state is a cache: dropping it at any time changes no answer.

A hypothesis state machine calls the operators, ``apply_word``, ``orbit``,
the two gap converters, ``chords_of_partition``, ``classify``,
``seventh_table``, ``build_chord_graph`` and the four graph functions
(components, isomorphism, DOT and JSON export) in any order, and between
calls drops the chord store (its rows and its size index), the operator
slots or the composition and partition slots of its rows, the fiber memo,
the orbit memo, the gap-permutation cache or the two shared graphs' memos.
Every answer is checked against ``conftest``'s gaps, tone formulas, gap
actions, golden label tables and export digests, none of which shares code
with the library.  A returned list or dict is changed after its check, and
the rule asks the same question again at once, so an answer that reflects
the change fails within the rule that made it.
"""

from __future__ import annotations

import hashlib
from itertools import accumulate, combinations
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

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
    EXPORT_SHA256,
    GAP_ACTIONS,
    GOLDEN_HARMONIC_TETRADS,
    GOLDEN_HARMONIC_TRIADS,
    TONE_FORMULAS,
    gaps,
    run_python,
)

I, D, A = Operator.INVERSION, Operator.DUALITY, Operator.AUGDIM


def _golden(text: str) -> dict:
    return {
        tuple(map(int, tones.split(","))): label
        for tones, label in (line.split() for line in text.splitlines())
    }


# chord size -> chord -> label text
GOLDEN = {3: _golden(GOLDEN_HARMONIC_TRIADS), 4: _golden(GOLDEN_HARMONIC_TETRADS)}

# the seventh families in the paper's order; a label is its family, then its inversion
FAMILIES = ["MM", "mM", "AM", "Mm", "dm", "mm", "dd"]


def _components(include_dd: bool) -> list:
    """The tetrads split by gap multiset, as (id, chord) lists, largest first."""
    split: dict = {}
    for chord, label in sorted(GOLDEN[4].items(), key=lambda item: _rank(item[1])):
        if include_dd or label != "dd0":
            split.setdefault(tuple(sorted(gaps(chord))), []).append((label, chord))
    return sorted(split.values(), key=len, reverse=True)


def _rank(label: str) -> tuple:
    return FAMILIES.index(label[:2]), int(label[2:])


def _relabelled(chord: tuple) -> tuple:
    """The chord whose gaps are chord's under the gap relabelling 1->2, 3->4, 4->3."""
    new_gaps = [{1: 2, 3: 4, 4: 3}[gap] for gap in gaps(chord)]
    return tuple(accumulate([0, *new_gaps[:-1]]))


# each label of the 1, 3, 4, 4 component -> the label of its image
ISOMORPHISM = {
    label: GOLDEN[4][_relabelled(chord)]
    for chord, label in GOLDEN[4].items()
    if sorted(gaps(chord)) == [1, 3, 4, 4]
}


def _image(op: Operator, chord: tuple) -> tuple:
    """The image by op's tone formula, checked against its gap action."""
    image = TONE_FORMULAS[op](chord)
    assert gaps(image) == GAP_ACTIONS[op](gaps(chord))
    return image


CHORDS = [(0, *rest) for k in range(2, 13) for rest in combinations(range(1, 12), k - 1)]
# partition -> its chords, sorted: the chords of its size whose sorted gaps it is
FIBERS: dict = {}
for _chord in [(0,), *CHORDS]:
    FIBERS.setdefault(tuple(sorted(gaps(_chord))), []).append(_chord)
# half the draws are harmonic, so a dropped store meets a labelled chord often
chords = st.one_of(st.sampled_from([*GOLDEN[3], *GOLDEN[4]]), st.sampled_from(CHORDS))
tetrads = st.sampled_from([c for c in CHORDS if len(c) == 4])
# half the draws are the harmonic classes' partitions, so a later call often
# meets a fiber whose earlier answer was changed
HARMONIC_PARTITIONS = [(3, 4, 5), (1, 3, 4, 4), (2, 3, 3, 4), (3, 3, 3, 3)]
partitions = st.one_of(st.sampled_from(HARMONIC_PARTITIONS), st.sampled_from(sorted(FIBERS)))


class ChordTableCaches(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.rows = dict(core.CHORD_ROWS)
        self.sizes = dict(core.CHORD_SIZES)
        self.orbits = dict(transform._ORBITS)
        self.fibers = dict(core._FIBERS)

    def teardown(self) -> None:
        # other tests hold the store's own tuples and compare them by identity
        core.CHORD_ROWS.clear()
        core.CHORD_ROWS.update(self.rows)
        core.CHORD_SIZES.clear()
        core.CHORD_SIZES.update(self.sizes)
        transform._ORBITS.clear()
        transform._ORBITS.update(self.orbits)
        core._FIBERS.clear()
        core._FIBERS.update(self.fibers)

    @rule()
    def drop_the_chord_store(self) -> None:
        core.CHORD_ROWS.clear()
        core.CHORD_SIZES.clear()

    @rule()
    def drop_the_operator_slots(self) -> None:
        for row in core.CHORD_ROWS.values():
            row[1:4] = [None, None, None]  # the i, d and a slots

    @rule()
    def drop_the_gap_slots(self) -> None:
        for row in core.CHORD_ROWS.values():
            row[4:6] = [None, None]  # the composition and partition slots

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
            (core.chord_to_composition, tuple(gaps(chord))),
            (core.chord_to_partition, tuple(sorted(gaps(chord)))),
        ]
        for convert, expected in calls[::-1] if partition_first else calls:
            assert convert(chord) == expected

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
        assert mapping == ISOMORPHISM
        mapping.clear()
        assert component_isomorphism(graph) == ISOMORPHISM

    @rule(include_dd=st.booleans(), export=st.sampled_from([export_dot, export_json]))
    def call_export(self, include_dd, export) -> None:
        text = export(build_chord_graph(include_dd))
        fmt = export.__name__.removeprefix("export_")
        assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_SHA256[fmt, include_dd]


TestChordTableCaches = ChordTableCaches.TestCase
TestChordTableCaches.settings = settings(max_examples=40, stateful_step_count=20, deadline=None)


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
