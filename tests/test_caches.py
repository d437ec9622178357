"""The lazily filled state is a cache: dropping it at any time changes no answer.

A hypothesis state machine calls the operators, ``apply_word``, ``orbit``,
``classify``, ``seventh_table`` and ``build_chord_graph`` in any order, and
between calls drops the per-size chord tables, the operator slots of their
rows, the orbit memo or the gap-permutation cache.  Every answer is checked
against ``conftest``'s tone formulas, gap actions and golden label tables,
none of which shares code with the library.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from chordgroups import core, transform
from chordgroups.classify import classify, seventh_table
from chordgroups.core import WrongArityError
from chordgroups.graph import build_chord_graph
from chordgroups.transform import Operator, apply_word, augdim, dual, invert, orbit

from conftest import (
    GAP_ACTIONS,
    GOLDEN_HARMONIC_TETRADS,
    GOLDEN_HARMONIC_TRIADS,
    TONE_FORMULAS,
    gaps,
)

I, D, A = Operator.INVERSION, Operator.DUALITY, Operator.AUGDIM


def _golden(text: str) -> dict:
    return {
        tuple(map(int, tones.split(","))): label
        for tones, label in (line.split() for line in text.splitlines())
    }


# chord size -> chord -> label text
GOLDEN = {3: _golden(GOLDEN_HARMONIC_TRIADS), 4: _golden(GOLDEN_HARMONIC_TETRADS)}

def _image(op: Operator, chord: tuple) -> tuple:
    """The image by op's tone formula, checked against its gap action."""
    image = TONE_FORMULAS[op](chord)
    assert gaps(image) == GAP_ACTIONS[op](gaps(chord))
    return image


CHORDS = [(0, *rest) for k in range(2, 13) for rest in combinations(range(1, 12), k - 1)]
# half the draws are harmonic, so a dropped table meets a labelled chord often
chords = st.one_of(st.sampled_from([*GOLDEN[3], *GOLDEN[4]]), st.sampled_from(CHORDS))
tetrads = st.sampled_from([c for c in CHORDS if len(c) == 4])


class ChordTableCaches(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.tables = dict(core.CHORD_TABLES)
        self.orbits = dict(transform._ORBITS)

    def teardown(self) -> None:
        # other tests hold the table's own tuples and compare them by identity
        core.CHORD_TABLES.clear()
        core.CHORD_TABLES.update(self.tables)
        transform._ORBITS.clear()
        transform._ORBITS.update(self.orbits)

    @rule()
    def drop_the_chord_tables(self) -> None:
        core.CHORD_TABLES.clear()

    @rule()
    def drop_the_operator_slots(self) -> None:
        for table in core.CHORD_TABLES.values():
            for row in table.values():
                row[1:4] = [None, None, None]  # the i, d and a slots

    @rule()
    def drop_the_orbit_memo(self) -> None:
        transform._ORBITS.clear()

    @rule()
    def drop_the_gap_permutations(self) -> None:
        transform.gap_permutation.cache_clear()

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
        assert orbit(chord, generators) == sorted(found)

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


TestChordTableCaches = ChordTableCaches.TestCase
TestChordTableCaches.settings = settings(max_examples=40, stateful_step_count=20, deadline=None)
