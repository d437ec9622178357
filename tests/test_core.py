from __future__ import annotations

from itertools import permutations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chordgroups.core import (
    EmptyChordError,
    FirstToneNotZeroError,
    InvalidChordError,
    InvalidSizeError,
    NotStrictlyIncreasingError,
    ToneOutOfRangeError,
    chord_to_composition,
    chord_to_partition,
    chords_of_partition,
    composition_to_chord,
    enumerate_chords,
    enumerate_partitions,
    format_chord,
    format_parts,
    make_chord,
    make_composition,
    make_partition,
    normalize_chord,
    parse_chord,
)

chord_strategy = st.sets(st.integers(min_value=1, max_value=11), max_size=11).map(
    lambda rest: (0, *sorted(rest))
)


class TestMakeChord:
    def test_major_chord(self):
        assert make_chord([0, 4, 7]) == (0, 4, 7)

    def test_single_tone(self):
        assert make_chord([0]) == (0,)

    def test_rejects_unordered_tones(self):
        with pytest.raises(NotStrictlyIncreasingError):
            make_chord([0, 7, 4])

    def test_rejects_repeats(self):
        with pytest.raises(NotStrictlyIncreasingError):
            make_chord([0, 4, 4])

    def test_rejects_empty(self):
        with pytest.raises(EmptyChordError):
            make_chord([])

    def test_rejects_missing_root(self):
        with pytest.raises(FirstToneNotZeroError):
            make_chord([1, 4, 7])

    @pytest.mark.parametrize("bad", [12, -1, 99])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ToneOutOfRangeError):
            make_chord([0, 4, bad] if bad > 0 else [bad, 0, 4])

    def test_errors_share_a_base_class(self):
        for exc in (
            EmptyChordError,
            ToneOutOfRangeError,
            FirstToneNotZeroError,
            NotStrictlyIncreasingError,
        ):
            assert issubclass(exc, InvalidChordError)
            assert issubclass(exc, ValueError)


class TestNormalize:
    def test_rebases_at_lowest_pitch_class(self):
        assert normalize_chord([7, 11, 2]) == (0, 5, 9)

    def test_reduces_modulo_octave_and_dedupes(self):
        assert normalize_chord([12, 16, 19, 24]) == (0, 4, 7)

    def test_valid_chord_is_unchanged(self):
        assert normalize_chord((0, 4, 7)) == (0, 4, 7)

    def test_rejects_empty(self):
        with pytest.raises(EmptyChordError):
            normalize_chord([])

    @pytest.mark.parametrize("bad", [[1.5, 3], [True, 4], ["7"]])
    def test_rejects_non_int_pitch_classes(self, bad):
        with pytest.raises(InvalidChordError):
            normalize_chord(bad)


class TestGapMaps:
    def test_major_chord_gaps(self):
        assert chord_to_composition((0, 4, 7)) == (4, 3, 5)

    def test_major_seventh_gaps(self):
        assert chord_to_composition((0, 4, 7, 11)) == (4, 3, 4, 1)

    def test_single_tone_spans_the_octave(self):
        assert chord_to_composition((0,)) == (12,)

    @pytest.mark.parametrize("gap_map", [chord_to_composition, chord_to_partition])
    def test_empty_chord_is_an_empty_chord_error(self, gap_map):
        with pytest.raises(EmptyChordError):
            gap_map(())

    @pytest.mark.parametrize(
        "chord, partition",
        [
            ((0, 4, 7), (3, 4, 5)),
            ((0, 3, 8), (3, 4, 5)),
            ((0, 3, 6, 9), (3, 3, 3, 3)),
        ],
    )
    def test_partitions(self, chord, partition):
        assert chord_to_partition(chord) == partition

    @pytest.mark.parametrize(
        "comp, chord",
        [
            ((3, 5, 4), (0, 3, 8)),
            ((12,), (0,)),
            ((4, 3, 4, 1), (0, 4, 7, 11)),
        ],
    )
    def test_composition_to_chord(self, comp, chord):
        assert composition_to_chord(comp) == chord

    @pytest.mark.parametrize("k", range(1, 7))
    def test_round_trip_and_sum_law(self, k):
        for chord in enumerate_chords(k):
            gaps = chord_to_composition(chord)
            assert sum(gaps) == 12
            assert len(gaps) == k
            assert composition_to_chord(gaps) == chord


class TestValidators:
    def test_make_composition_keeps_order(self):
        assert make_composition([4, 3, 5]) == (4, 3, 5)

    def test_make_partition_sorts(self):
        assert make_partition([4, 3, 5]) == (3, 4, 5)

    @pytest.mark.parametrize(
        "bad", [[], [0, 12], [4, 3], [13], [4.5, 7.5], [True] * 12, ["a"]]
    )
    def test_bad_parts_rejected(self, bad):
        for validate in (make_composition, make_partition):
            with pytest.raises(ValueError):
                validate(bad)


class TestEnumeration:
    def test_triad_count(self):
        assert len(enumerate_chords(3)) == 55

    def test_tetrad_count(self):
        assert len(enumerate_chords(4)) == 165

    def test_single_tone(self):
        assert enumerate_chords(1) == [(0,)]

    @pytest.mark.parametrize("k", range(1, 13))
    def test_counts_match_binomials(self, k):
        assert len(enumerate_chords(k)) == comb(11, k - 1)

    def test_lexicographic_order(self):
        chords = enumerate_chords(3)
        assert chords == sorted(chords)
        assert chords[0] == (0, 1, 2)
        assert chords[-1] == (0, 10, 11)

    @pytest.mark.parametrize("k", [0, 13, -2])
    def test_invalid_sizes(self, k):
        with pytest.raises(InvalidSizeError):
            enumerate_chords(k)
        with pytest.raises(InvalidSizeError):
            enumerate_partitions(k)

    def test_partitions_of_length_three_without_small_parts(self):
        heavy = [p for p in enumerate_partitions(3) if min(p) >= 3]
        assert heavy == [(3, 3, 6), (3, 4, 5), (4, 4, 4)]

    def test_partition_edges(self):
        assert enumerate_partitions(1) == [(12,)]
        assert enumerate_partitions(12) == [(1,) * 12]

    @pytest.mark.parametrize("k", range(1, 13))
    def test_partitions_are_sorted_and_sum_to_twelve(self, k):
        seen = enumerate_partitions(k)
        assert seen == sorted(seen)
        for partition in seen:
            assert sum(partition) == 12
            assert list(partition) == sorted(partition)
            assert len(partition) == k


class TestChordsOfPartition:
    def test_one_small_gap_family_has_twelve_chords(self):
        assert len(chords_of_partition((1, 3, 4, 4))) == 12

    def test_fully_even_partition_has_one_chord(self):
        assert chords_of_partition((3, 3, 3, 3)) == [(0, 3, 6, 9)]

    def test_triad_partition_fiber_matches_brute_force(self):
        # oracle: permute the parts directly, take prefix sums, dedupe
        expected = sorted(
            {
                tuple(sum(perm[:i]) for i in range(3))
                for perm in permutations((3, 4, 5))
            }
        )
        fiber = chords_of_partition((3, 4, 5))
        assert fiber == expected
        assert (0, 4, 7) in fiber and (0, 3, 8) in fiber
        assert len(fiber) == 6

    @pytest.mark.parametrize("k", range(1, 7))
    def test_fibers_tile_all_chords_exactly_once(self, k):
        covered = []
        for partition in enumerate_partitions(k):
            fiber = chords_of_partition(partition)
            assert len(set(fiber)) == len(fiber)
            for chord in fiber:
                assert chord_to_partition(chord) == partition
            covered.extend(fiber)
        assert sorted(covered) == enumerate_chords(k)
        assert len(covered) == len(set(covered))


class TestTextForms:
    @pytest.mark.parametrize("text", ["0,4,7", " 0, 4, 7 ", "(0,4,7)"])
    def test_parse_accepted_forms(self, text):
        assert parse_chord(text) == (0, 4, 7)

    def test_format_chord(self):
        assert format_chord((0, 4, 7, 11)) == "0,4,7,11"

    def test_format_parts(self):
        assert format_parts((3, 4, 5)) == "[3,4,5]"

    @pytest.mark.parametrize(
        "text", ["", "  ", "()", "0,4,x", "0;4;7", "0,1_1", "0,+4,7", "0,\u0664,7"]
    )
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(InvalidChordError):
            parse_chord(text)

    @given(chord_strategy)
    def test_parse_format_round_trip(self, chord):
        assert parse_chord(format_chord(chord)) == chord
        assert parse_chord(f"({format_chord(chord)})") == chord

    @given(chord_strategy)
    def test_valid_chords_pass_validation_unchanged(self, chord):
        assert make_chord(chord) == chord
        assert normalize_chord(chord) == chord

    @given(st.lists(st.integers(min_value=-3, max_value=14), max_size=8))
    def test_make_chord_accepts_or_raises_cleanly(self, tones):
        try:
            chord = make_chord(tones)
        except InvalidChordError:
            return
        assert chord[0] == 0
        assert all(0 <= t <= 11 for t in chord)
        assert list(chord) == sorted(set(chord))


def _is_valid_chord(chord) -> bool:
    return (
        type(chord) is tuple
        and all(type(t) is int for t in chord)
        and chord[:1] == (0,)
        and list(chord) == sorted(set(chord))
        and chord[-1] < 12
    )


_ANY_TONE = st.one_of(
    st.integers(min_value=-3, max_value=14),
    st.booleans(),
    st.floats(),
    st.fractions(),
    st.decimals(),
    st.complex_numbers(),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.none(),
    st.tuples(st.integers()),
)


class TestValidationBoundary:
    @pytest.mark.parametrize(
        "tones", [[0, 4.5, 7], [0, 3.0, 7], [False, 4, 7], [0, True, 7], [0, "4", 7], [0, None]]
    )
    def test_non_int_tones_are_invalid(self, tones):
        with pytest.raises(InvalidChordError):
            make_chord(tones)

    @given(st.lists(_ANY_TONE, max_size=6))
    def test_make_chord_on_arbitrary_objects(self, tones):
        try:
            chord = make_chord(tones)
        except InvalidChordError:
            return
        assert _is_valid_chord(chord)

    @given(st.one_of(st.text(), st.text(alphabet="0123456789,()+-_ \u0664\t")))
    def test_parse_chord_on_arbitrary_text(self, text):
        try:
            chord = parse_chord(text)
        except InvalidChordError:
            return
        assert _is_valid_chord(chord)
