from __future__ import annotations

import re
from collections import Counter

import pytest

from chordgroups.classify import (
    ROOT_CHORDS,
    ChordLabel,
    SeventhFamily,
    TriadFamily,
    classify,
    dual_pairing,
    family_row,
    is_harmonic_seventh,
    is_harmonic_triad,
    seventh_table,
    triad_table,
)
from chordgroups.core import (
    InvalidChordError,
    WrongArityError,
    chord_to_partition,
    enumerate_chords,
    make_chord,
)
from chordgroups.transform import dual, invert
from chordgroups.verify import SEVENTH_ROWS, TRIAD_ROWS

from oracle import all_chords, gaps, partition


def _brute_force_harmonic_triads():
    return [c for c in all_chords(3) if min(gaps(c)) >= 3]


class TestTriadPredicate:
    def test_major_triad_is_harmonic(self):
        assert is_harmonic_triad((0, 4, 7))

    def test_suspended_chord_is_not(self):
        assert not is_harmonic_triad((0, 2, 7))

    def test_exactly_ten_harmonic_triads(self):
        brute = _brute_force_harmonic_triads()
        assert len(brute) == 10
        assert [c for c in enumerate_chords(3) if is_harmonic_triad(c)] == brute

    @pytest.mark.parametrize("chord", [(0, 2), (0, 4, 7, 11)])
    def test_rejects_other_sizes(self, chord):
        with pytest.raises(WrongArityError):
            is_harmonic_triad(chord)


class TestSeventhPredicate:
    def test_major_seventh_is_harmonic(self):
        assert is_harmonic_seventh((0, 4, 7, 11))

    def test_cluster_is_not(self):
        assert not is_harmonic_seventh((0, 1, 2, 7))

    def test_wide_gap_disqualifies(self):
        # one step-sized gap but a fourth-wide gap: (0,3,6,11) -> gaps 3,3,5,1
        assert not is_harmonic_seventh((0, 3, 6, 11))

    def test_exactly_25_harmonic_tetrads(self):
        tetrads = all_chords(4)
        assert len(tetrads) == 165
        harmonic = [c for c in tetrads if is_harmonic_seventh(c)]
        assert len(harmonic) == 25
        assert Counter(partition(c) for c in harmonic) == {
            (1, 3, 4, 4): 12,
            (2, 3, 3, 4): 12,
            (3, 3, 3, 3): 1,
        }

    def test_rejects_other_sizes(self):
        with pytest.raises(WrongArityError):
            is_harmonic_seventh((0, 4, 7))


@pytest.mark.parametrize("predicate", [is_harmonic_triad, is_harmonic_seventh])
@pytest.mark.parametrize(
    "value",
    [(0, 4, 4, 8), (0, 3, 6, 9.0), [0, 4, 7], (5, 8, 12), (0, 4, "x"), 5, None],
    ids=repr,
)
def test_the_harmonic_predicates_reject_a_value_that_is_not_a_chord(predicate, value):
    with pytest.raises(InvalidChordError) as excinfo:
        predicate(value)
    # no stray TypeError in the traceback; (0, 3, 6, 9.0) is rejected outside any handler
    error = excinfo.value
    assert error.__context__ is None or error.__suppress_context__


@pytest.mark.parametrize("predicate", [is_harmonic_triad, is_harmonic_seventh])
def test_the_harmonic_predicates_check_the_chord_before_its_size(predicate):
    # (0, 4, 7.0) has a triad's size, (0, 2, 4, 7, 9.0) neither size
    for value in ((0, 4, 7.0), (0, 2, 4, 7, 9.0)):
        with pytest.raises(InvalidChordError):
            predicate(value)
    with pytest.raises(WrongArityError):
        predicate((0, 2, 4, 7, 9))


class TestTriadTable:
    @pytest.mark.parametrize(
        "chord, family, inversion",
        [
            ((0, 5, 9), TriadFamily.MAJOR, 2),
            ((0, 4, 9), TriadFamily.MINOR, 1),
            ((0, 4, 8), TriadFamily.AUGMENTED, 0),
            ((0, 3, 7), TriadFamily.MINOR, 0),
        ],
    )
    def test_spot_labels(self, chord, family, inversion):
        assert triad_table()[chord] == ChordLabel(family, inversion)

    def test_duality_swaps_diminished_root_and_second_inversion(self):
        table = triad_table()
        dim = TRIAD_ROWS[TriadFamily.DIMINISHED]
        assert table[dual(dim[0])] == ChordLabel(TriadFamily.DIMINISHED, 2)
        assert table[dual(dim[1])] == ChordLabel(TriadFamily.DIMINISHED, 1)
        assert table[dual(dim[2])] == ChordLabel(TriadFamily.DIMINISHED, 0)


class TestSeventhTable:
    @pytest.mark.parametrize(
        "chord, family, inversion",
        [
            ((0, 3, 6, 8), SeventhFamily.Mm, 1),
            ((0, 1, 5, 9), SeventhFamily.AM, 3),
            ((0, 3, 6, 9), SeventhFamily.dd, 0),
        ],
    )
    def test_spot_labels(self, chord, family, inversion):
        assert seventh_table()[chord] == ChordLabel(family, inversion)

    def test_families_group_by_partition(self):
        table = seventh_table()
        by_family = {}
        for chord, label in table.items():
            by_family.setdefault(label.family, set()).add(chord_to_partition(chord))
        expected_classes = {
            SeventhFamily.MM: (1, 3, 4, 4),
            SeventhFamily.mM: (1, 3, 4, 4),
            SeventhFamily.AM: (1, 3, 4, 4),
            SeventhFamily.Mm: (2, 3, 3, 4),
            SeventhFamily.dm: (2, 3, 3, 4),
            SeventhFamily.mm: (2, 3, 3, 4),
            SeventhFamily.dd: (3, 3, 3, 3),
        }
        assert by_family == {f: {p} for f, p in expected_classes.items()}

    def test_triad_families_group_by_partition(self):
        expected = {
            TriadFamily.MAJOR: (3, 4, 5),
            TriadFamily.MINOR: (3, 4, 5),
            TriadFamily.DIMINISHED: (3, 3, 6),
            TriadFamily.AUGMENTED: (4, 4, 4),
        }
        for family, partition in expected.items():
            assert {chord_to_partition(c) for c in family_row(family)} == {partition}

    def test_tables_list_the_reference_rows_in_order(self):
        assert list(triad_table()) == [c for row in TRIAD_ROWS.values() for c in row]
        assert list(seventh_table()) == [c for row in SEVENTH_ROWS.values() for c in row]

    def test_a_returned_table_is_a_copy(self):
        seventh_table().clear()
        assert str(classify((0, 4, 7, 11))) == "MM0"
        assert len(seventh_table()) == 25

    def test_every_key_is_the_chord_tables_own_tuple(self):
        # family roots included: their rows start from the table, not the literals
        for table in (triad_table(), seventh_table()):
            for chord in table:
                assert chord is make_chord(chord)


class TestClassify:
    @pytest.mark.parametrize(
        "chord, text",
        [
            ((0, 3, 7, 9), "dm1"),
            ((0, 3, 7), "Minor0"),
            ((0, 3, 8), "Major1"),
            ((0, 2, 6, 9), "Mm3"),
        ],
    )
    def test_labels(self, chord, text):
        assert str(classify(chord)) == text

    @pytest.mark.parametrize("chord", [(0, 1, 2, 3), (0, 2, 7), (0, 3, 6, 11)])
    def test_not_harmonic_is_none(self, chord):
        assert classify(chord) is None

    @pytest.mark.parametrize("chord", [(0,), (0, 2), (0, 1, 2, 3, 4)])
    def test_other_sizes_raise(self, chord):
        with pytest.raises(WrongArityError):
            classify(chord)

    @pytest.mark.parametrize("chord", [[0, 4, 7], [0, 4, 7, 11], 5, None], ids=repr)
    def test_a_value_that_is_not_a_chord_tuple_is_invalid(self, chord):
        # a list has a length but no hash; an int or None has neither
        with pytest.raises(InvalidChordError, match=r"a chord is a tuple of ints, got ") as excinfo:
            classify(chord)
        assert excinfo.value.__suppress_context__  # no stray TypeError in the traceback

    @pytest.mark.parametrize("chord", [(0, 4, 7.0), (False, 4, 7), "047"], ids=repr)
    def test_a_value_only_equal_to_a_chord_or_sized_like_one_is_invalid(self, chord):
        # (0, 4, 7.0) and (False, 4, 7) hash and compare equal to (0, 4, 7)
        with pytest.raises(InvalidChordError):
            classify(chord)

    def test_a_list_of_the_wrong_size_is_still_an_arity_error(self):
        with pytest.raises(WrongArityError):
            classify([0, 4])


@pytest.mark.parametrize("family", ROOT_CHORDS, ids=str)
def test_a_family_row_is_its_roots_inversion_cycle_in_order(family):
    row = family_row(family)
    assert row[0] == ROOT_CHORDS[family]
    assert [invert(chord) for chord in row] == [*row[1:], row[0]]
    assert len(set(row)) == len(row)
    for chord in row:
        assert chord is make_chord(chord)


@pytest.mark.parametrize("function", [family_row, dual_pairing])
@pytest.mark.parametrize("value", ["Major", 5, [0, 4, 7]], ids=repr)
def test_a_value_that_is_not_a_family_raises_value_error(function, value):
    with pytest.raises(ValueError, match=re.escape(f"not a family: {value!r}")) as excinfo:
        function(value)
    assert excinfo.type is ValueError
    assert excinfo.value.__suppress_context__  # no stray KeyError or TypeError in the traceback


class TestLabelText:
    def test_seventh_label_text(self):
        assert str(ChordLabel(SeventhFamily.mm, 3)) == "mm3"

    def test_triad_label_text(self):
        assert str(ChordLabel(TriadFamily.MAJOR, 2)) == "Major2"
