from __future__ import annotations

from collections import Counter
from itertools import permutations
from math import comb, factorial

import oracle
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chordgroups import core, transform
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

from conftest import drop_the_chord_store, race

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

    @pytest.mark.parametrize("gap_map", [chord_to_composition, chord_to_partition])
    @pytest.mark.parametrize(
        "value",
        [
            None,
            5,
            "0,4,7",
            [0, 4, 7],
            (0, 4, 7.0),
            (False, 4, 7),
            b"\x00",
            object(),
            tuple(range(13)),
            (0, 2**70),
        ],
        ids=lambda value: "object()" if type(value) is object else repr(value),
    )
    def test_a_value_that_is_not_a_chord_is_invalid(self, gap_map, value):
        with pytest.raises(InvalidChordError) as excinfo:
            gap_map(value)
        # no stray KeyError or TypeError in the traceback
        assert excinfo.value.__context__ is None or excinfo.value.__suppress_context__

    # what make_chord rejects, the converters reject with the same subclass and message
    @pytest.mark.parametrize("gap_map", [chord_to_composition, chord_to_partition])
    @pytest.mark.parametrize(
        "value, error",
        [
            ((0, 13), ToneOutOfRangeError),
            ((0, 4, 4), NotStrictlyIncreasingError),
            ((3, 4), FirstToneNotZeroError),
            ((), EmptyChordError),
        ],
        ids=repr,
    )
    def test_a_tuple_that_is_not_a_chord_raises_make_chords_error(self, gap_map, value, error):
        with pytest.raises(InvalidChordError) as expected:
            make_chord(value)
        with pytest.raises(InvalidChordError) as excinfo:
            gap_map(value)
        assert type(excinfo.value) is type(expected.value) is error
        assert str(excinfo.value) == str(expected.value)

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

    @pytest.mark.parametrize("k", range(1, 13))
    def test_converters_match_the_library_free_gaps_on_every_chord(self, k):
        assert len(oracle.all_chords(k)) == comb(11, k - 1)  # 2048 chords over the twelve sizes
        for chord in oracle.all_chords(k):
            comp = chord_to_composition(chord)
            part = chord_to_partition(chord)
            assert comp == oracle.gaps(chord), chord
            assert part == oracle.partition(chord), chord
            for value in (comp, part):
                assert type(value) is tuple and all(type(g) is int for g in value), chord

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

    @pytest.mark.parametrize("k", [4.0, "4", True], ids=repr)
    def test_a_chord_size_that_is_not_an_int_is_invalid(self, k):
        # 4.0 and True hash and compare equal to sizes in the chord store
        with pytest.raises(InvalidSizeError):
            enumerate_chords(k)
        with pytest.raises(InvalidSizeError):
            enumerate_partitions(k)

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
        expected = sorted({oracle.chord_of(perm) for perm in permutations((3, 4, 5))})
        fiber = chords_of_partition((3, 4, 5))
        assert fiber == expected
        assert (0, 4, 7) in fiber and (0, 3, 8) in fiber
        assert len(fiber) == 6

    @pytest.mark.parametrize("k", range(1, 8))
    def test_fibers_match_brute_force(self, k):
        # oracle: every ordering of the parts, as prefix sums, deduplicated
        for partition in enumerate_partitions(k):
            expected = sorted({oracle.chord_of(perm) for perm in permutations(partition)})
            assert chords_of_partition(partition) == expected

    # each returned chords before the parts were validated as make_partition does
    @pytest.mark.parametrize("parts", [(5, 5), (), (0, 12), (4, 4, 4.0), (True, 11)], ids=repr)
    def test_a_value_that_is_not_a_partition_is_rejected(self, parts):
        with pytest.raises(ValueError) as excinfo:
            chords_of_partition(parts)
        assert excinfo.type is ValueError

    @pytest.mark.parametrize("k", range(1, 13))
    def test_fibers_tile_all_chords_exactly_once(self, k):
        covered = []
        for partition in enumerate_partitions(k):
            fiber = chords_of_partition(partition)
            assert all(a < b for a, b in zip(fiber, fiber[1:]))
            multinomial = factorial(k)
            for count in Counter(partition).values():
                multinomial //= factorial(count)
            assert len(fiber) == multinomial
            for chord in fiber:
                assert chord_to_partition(chord) == partition
            covered.extend(fiber)
        assert sorted(covered) == oracle.all_chords(k)

    ALL_PARTITIONS = [p for k in range(1, 13) for p in enumerate_partitions(k)]

    @pytest.fixture
    def fibers(self, monkeypatch):
        """An empty fiber memo for one test; the process's own comes back after it."""
        memo: dict = {}
        monkeypatch.setattr(core, "_FIBERS", memo)
        return memo

    def test_a_changed_answer_changes_no_later_answer(self, fibers):
        first = chords_of_partition((3, 4, 5))
        expected = list(first)
        first.reverse()
        first.append((0, 1, 2))
        second = chords_of_partition((3, 4, 5))
        assert second == expected
        second.clear()
        assert chords_of_partition((3, 4, 5)) == expected

    def test_members_are_the_chord_tables_own_tuples(self, fibers):
        for _ in ("cold", "warm"):
            for partition in self.ALL_PARTITIONS:
                for member in chords_of_partition(partition):
                    assert member is make_chord(member)
        assert len(fibers) == len(self.ALL_PARTITIONS) == 77

    def test_the_parts_in_any_order_share_one_entry(self, fibers):
        assert chords_of_partition([5, 4, 3]) == chords_of_partition((3, 4, 5))
        assert list(fibers) == [(3, 4, 5)]

    def test_a_call_that_raises_stores_nothing(self):
        before = dict(core._FIBERS)
        with pytest.raises(ValueError):
            chords_of_partition((5, 5, 5))
        assert core._FIBERS == before

    def test_threads_sharing_the_memo_get_the_single_threaded_fibers(self, fibers):
        partitions = self.ALL_PARTITIONS
        expected = [chords_of_partition(p) for p in partitions]
        fibers.clear()

        def fill(offset):
            # each thread starts at a different partition, so their fills overlap
            order = partitions[offset:] + partitions[:offset]
            return {p: chords_of_partition(p) for p in order}

        results = race(fill, [0, 19, 38, 57])
        for result in results:
            assert [result[p] for p in partitions] == expected
        assert len(fibers) == len(partitions)


class TestTextForms:
    @pytest.mark.parametrize("text", ["0,4,7", " 0, 4, 7 ", "(0,4,7)"])
    def test_parse_accepted_forms(self, text):
        assert parse_chord(text) == (0, 4, 7)

    def test_format_chord(self):
        assert format_chord((0, 4, 7, 11)) == "0,4,7,11"

    def test_format_parts(self):
        assert format_parts((3, 4, 5)) == "[3,4,5]"
        assert format_parts(iter([5, 4, 3])) == "[5,4,3]"

    # what make_chord rejects, format_chord rejects with the same subclass and message
    @pytest.mark.parametrize(
        "value", [5, None, (0, 13), (), (0, 4, 4), (4, 7), (0, 4.0, 7)], ids=repr
    )
    def test_format_chord_rejects_what_is_no_chord(self, value):
        with pytest.raises(InvalidChordError) as expected:
            make_chord(value)
        with pytest.raises(InvalidChordError) as excinfo:
            format_chord(value)
        assert type(excinfo.value) is type(expected.value)
        assert str(excinfo.value) == str(expected.value)

    def test_format_chord_takes_a_chord_tuple_only(self):
        # make_chord turns a list into a chord; format_chord, like chord_row, does not
        with pytest.raises(InvalidChordError, match=r"a chord is a tuple of ints, got \[0, 4, 7\]"):
            format_chord([0, 4, 7])

    # what make_composition rejects, format_parts rejects with the same ValueError
    @pytest.mark.parametrize(
        "value", [5, None, "345", (), (3, 4), (0, 12), (13, -1), (3, 4, 5.0), (True,) * 12],
        ids=repr,
    )
    def test_format_parts_rejects_what_is_no_composition(self, value):
        with pytest.raises(ValueError) as expected:
            make_composition(value)
        with pytest.raises(ValueError) as excinfo:
            format_parts(value)
        assert type(excinfo.value) is type(expected.value) is ValueError
        assert str(excinfo.value) == str(expected.value)

    @pytest.mark.parametrize(
        "text",
        ["", "  ", "()", "0,4,x", "0;4;7", "0,1_1", "0,+4,7", "0,\u0664,7"]
        + ["+0,4,7", "-0,4,7", "0,-0,7", "0,4,-00", "( -0 )"],  # signed zeros
    )
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(InvalidChordError):
            parse_chord(text)

    @pytest.mark.parametrize(
        "text", ["0", "0,4,7", " (0, 3, 6, 9) ", "0,1,2,3,4,5,6,7,8,9,10,11", "00,04,07"]
    )
    def test_parse_returns_the_chord_tables_own_tuple(self, text):
        chord = parse_chord(text)
        assert chord is make_chord(list(chord))

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("", EmptyChordError, "empty chord text"),
            ("( )", EmptyChordError, "empty chord text"),
            # an ideographic space is whitespace but not ASCII: emptiness is tested first
            ("(\u3000)", EmptyChordError, "empty chord text"),
            ("0,\u0664,7", InvalidChordError, "cannot parse chord text '0,\u0664,7'"),
            ("0,1_1", InvalidChordError, "cannot parse chord text '0,1_1'"),
            ("0,+4,7", InvalidChordError, "cannot parse chord text '0,+4,7'"),
            # a signed zero is no tone; a negative tone is read and out of range
            ("-0,4,7", InvalidChordError, "cannot parse chord text '-0,4,7'"),
            ("0,4,-0", InvalidChordError, "cannot parse chord text '0,4,-0'"),
            ("0,-3,7", ToneOutOfRangeError, "tone -3 is outside 0..11"),
            ("0,-03,7", ToneOutOfRangeError, "tone -3 is outside 0..11"),
            ("0,4,x", InvalidChordError, "cannot parse chord text '0,4,x'"),
            ("0,4,12", ToneOutOfRangeError, "tone 12 is outside 0..11"),
            ("1,4,8", FirstToneNotZeroError, "a chord starts at 0, got 1"),
            ("0,7,4", NotStrictlyIncreasingError, "tones must strictly increase: (0, 7, 4)"),
            ("0,4,4,7", NotStrictlyIncreasingError, "tones must strictly increase: (0, 4, 4, 7)"),
            # not text, whatever its value: plain InvalidChordError, never a chord rule's subclass
            (5, InvalidChordError, "chord text must be a str, got 5"),
            (None, InvalidChordError, "chord text must be a str, got None"),
            (b"0,4,7", InvalidChordError, "chord text must be a str, got b'0,4,7'"),
            ((0, 4, 7), InvalidChordError, "chord text must be a str, got (0, 4, 7)"),
            ((0, 7, 4), InvalidChordError, "chord text must be a str, got (0, 7, 4)"),
            ([0, 4, 7], InvalidChordError, "chord text must be a str, got [0, 4, 7]"),
        ],
        ids=repr,
    )
    def test_parse_rejects_each_kind_with_its_subclass_and_message(self, text, error, message):
        with pytest.raises(InvalidChordError) as excinfo:
            parse_chord(text)
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message
        # no stray KeyError, TypeError or ValueError in the traceback
        assert excinfo.value.__context__ is None or excinfo.value.__suppress_context__

    @given(
        st.lists(
            st.builds(
                lambda pad, zeros, tone, tail: f"{pad}{'-' * (tone < 0)}{zeros}{abs(tone)}{tail}",
                st.sampled_from(["", " ", "\t"]),
                st.sampled_from(["", "0", "00"]),
                st.one_of(st.integers(min_value=0, max_value=11), st.integers(-3, 14)),
                st.sampled_from(["", " "]),
            ),
            min_size=1,
            max_size=13,
        ),
        st.booleans(),
    )
    def test_parse_agrees_with_make_chord_on_int_tokens(self, tokens, parenthesised):
        # ASCII text without "_" or "+" whose comma tokens all pass int()
        text = ",".join(tokens)
        if parenthesised:
            text = f" ({text}) "
        assert text.isascii() and "_" not in text and "+" not in text

        def outcome(call, argument):
            try:
                return call(argument)
            except InvalidChordError as error:
                return type(error), str(error)

        parsed = outcome(parse_chord, text)
        expected = outcome(make_chord, [int(t) for t in tokens])
        assert parsed == expected
        if type(expected) is tuple and type(expected[0]) is int:
            assert parsed is expected  # both are the chord store's own tuple

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


class _Text(str):
    """A str subclass: parsed as text, but never a text memo key."""


# texts that are rejected or not canonical, then every chord's canonical text
_LISTED_TEXTS = [
    *["0,7,4", "0,4,12", "0,04,7", "-0,4,7", " 0,4,7", "(0,4,7)", _Text("0,4,7")],
    *[oracle.text(chord) for k in range(1, 13) for chord in oracle.all_chords(k)],
]


_TEXTS = st.lists(
    st.one_of(st.text(), st.text(alphabet="0123456789,()+-_ \u0664\t")), min_size=1, max_size=3
)


def _parse_outcome(text):
    """parse_chord's chord, or its error's class and message."""
    try:
        return parse_chord(text)
    except InvalidChordError as error:
        return type(error), str(error)


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

    @pytest.mark.parametrize(
        "listed", [False, True], ids=["drawn", "rejected-non-canonical-and-every-chord"]
    )
    @given(data=st.data())
    def test_parse_chord_on_arbitrary_text(self, listed, data):
        # a listed run draws nothing, so hypothesis runs it once
        texts = _LISTED_TEXTS if listed else data.draw(_TEXTS)
        for text in texts:
            # the second parse may be a text memo hit: it answers as the first did
            first, again = _parse_outcome(text), _parse_outcome(text)
            assert again == first
            if type(first[0]) is int:  # a chord, not an error's class and message
                assert _is_valid_chord(first) and again is first
        # only the canonical texts of valid chords go in, as exact strs, each
        # mapped to the store's own tuple: at most one entry per chord
        for key, chord in core._CHORD_TEXTS.items():
            assert type(key) is str and key == format_chord(chord) == oracle.text(chord)
            assert chord is core.CHORD_ROWS[chord][0]
        if listed:
            assert len(core._CHORD_TEXTS) == 2048


class TestChordRule:
    """``core._rejection`` is the whole chord rule, whatever the store holds."""

    @pytest.mark.parametrize("k", range(1, 13))
    def test_no_chord_is_rejected(self, k):
        assert [chord for chord in oracle.all_chords(k) if core._rejection(chord) is not None] == []

    @given(
        st.one_of(
            chord_strategy,
            st.lists(st.integers(min_value=-2, max_value=13), max_size=13).map(tuple),
        )
    )
    def test_a_tuple_is_rejected_exactly_when_it_is_not_a_chord(self, value):
        error = core._rejection(value)
        assert (error is None) == _is_valid_chord(value)
        assert error is None or isinstance(error, InvalidChordError)


@pytest.mark.usefixtures("restored_caches")
class TestChordStore:
    """The store's slow path: a miss rejects what is not a chord, or builds the chord's size.

    Each test puts the store back as it found it, since other tests hold
    the store's own tuples and compare them by identity.
    """

    @pytest.mark.parametrize(
        "find",
        [
            make_chord,
            lambda chord: parse_chord(format_chord(chord)),
            lambda chord: enumerate_chords(3)[oracle.all_chords(3).index(chord)],
        ],
        ids=["make_chord", "parse_chord", "enumerate_chords"],
    )
    def test_a_dropped_size_is_found_again_as_the_new_store_tuple(self, find):
        held = make_chord((0, 4, 7))
        drop_the_chord_store()
        found = find((0, 4, 7))
        assert found == held and found is not held
        assert list(core.CHORD_SIZES) == [3]
        assert found is core.CHORD_ROWS[found][0]
        assert any(chord is found for chord in core.CHORD_SIZES[3])

    def test_an_operator_fill_after_a_drop_finds_the_new_row(self):
        # a row outside the store, so that no row the store gets back is changed
        row = [make_chord((0, 4, 7)), None, None, None, None, None, None]
        drop_the_chord_store()
        assert transform._fill(row, 1) is core.CHORD_ROWS[0, 3, 8]
        assert list(core.CHORD_SIZES) == [3]

    @pytest.mark.parametrize(
        "value, error, message",
        [
            ((0, 4, 4), NotStrictlyIncreasingError, "tones must strictly increase: (0, 4, 4)"),
            ((0, 4, 12), ToneOutOfRangeError, "tone 12 is outside 0..11"),
            ((1, 4, 7), FirstToneNotZeroError, "a chord starts at 0, got 1"),
            ((0, 4, 7.5), InvalidChordError, "tone 7.5 is not an int"),
            ((0, [4], 7), InvalidChordError, "tone [4] is not an int"),
        ],
        ids=["repeated-tone", "tone-out-of-range", "not-from-0", "float-tone", "list-tone"],
    )
    def test_a_rejected_tuple_of_a_built_size_builds_nothing(
        self, monkeypatch, value, error, message
    ):
        held = make_chord((0, 4, 7))
        rows, size = len(core.CHORD_ROWS), core.CHORD_SIZES[3]
        # a rebuild would keep every row (setdefault), so only a call shows it
        builds = []
        monkeypatch.setattr(core, "_build_size", builds.append)
        with pytest.raises(InvalidChordError) as expected:
            make_chord(value)
        assert type(expected.value) is error and str(expected.value) == message
        with pytest.raises(InvalidChordError) as excinfo:
            core.chord_row(value)
        assert type(excinfo.value) is error and str(excinfo.value) == message
        assert make_chord((0, 4, 7)) is held
        assert len(core.CHORD_ROWS) == rows and core.CHORD_SIZES[3] is size
        assert builds == []

    @pytest.mark.parametrize(
        "value, error, message",
        [
            (
                (0, 4, 4, 4, 4),
                NotStrictlyIncreasingError,
                "tones must strictly increase: (0, 4, 4, 4, 4)",
            ),
            (
                [0] * 8,
                NotStrictlyIncreasingError,
                "tones must strictly increase: (0, 0, 0, 0, 0, 0, 0, 0)",
            ),
            # twelve characters, so a tuple of twelve strings
            ("0,4,7,9,11,2", InvalidChordError, "tone '0' is not an int"),
        ],
        ids=["size-5", "size-8", "size-12"],
    )
    def test_a_rejected_value_of_an_unbuilt_size_builds_nothing(
        self, monkeypatch, value, error, message
    ):
        for k in (5, 8, 12):  # drop the three sizes, rows and all
            for chord in core.CHORD_SIZES.pop(k, ()):
                del core.CHORD_ROWS[chord]
        rows, sizes = len(core.CHORD_ROWS), dict(core.CHORD_SIZES)
        builds = []
        monkeypatch.setattr(core, "_build_size", builds.append)
        with pytest.raises(InvalidChordError) as excinfo:
            make_chord(value)
        assert type(excinfo.value) is error and str(excinfo.value) == message
        assert len(core.CHORD_ROWS) == rows and core.CHORD_SIZES == sizes
        assert builds == []
        # a library frame that the traceback keeps and that holds the error makes
        # a cycle; the first frame is this test's, whose asserts hold the error
        traceback = excinfo.value.__traceback__.tb_next
        while traceback is not None:
            assert excinfo.value not in traceback.tb_frame.f_locals.values()
            traceback = traceback.tb_next

    @pytest.mark.parametrize(
        "lookup, expected",
        [
            (lambda: make_chord((0, 4, 7)), (0, 4, 7)),
            (lambda: parse_chord("0,4,7"), (0, 4, 7)),
            (lambda: transform.invert((0, 4, 7)), (0, 3, 8)),
        ],
        ids=["make_chord", "parse_chord", "invert"],
    )
    def test_a_lookup_reads_the_rows_alone(self, lookup, expected):
        core.CHORD_ROWS.clear()  # half a drop: CHORD_SIZES still lists size 3
        assert lookup() == expected

    @pytest.mark.parametrize("value", [*range(14), (), tuple(range(13))], ids=repr)
    def test_chord_row_rejects_ints_and_sizes_0_and_13(self, value):
        sizes = dict(core.CHORD_SIZES)
        with pytest.raises(InvalidChordError) as excinfo:
            core.chord_row(value)
        assert str(excinfo.value) == str(core._rejection(value))
        assert core.CHORD_SIZES == sizes

    def test_threads_sharing_the_text_memo_get_the_stores_tuples(self):
        core._CHORD_TEXTS.clear()
        chords = [chord for k in range(1, 13) for chord in enumerate_chords(k)]
        # each chord's canonical text and a padded one, which stores it too
        texts = [
            (form.format(oracle.text(chord)), chord) for chord in chords for form in ("{}", " {}")
        ]

        def parse(offset):
            # each thread starts at a different chord, so their stores overlap
            order = texts[offset:] + texts[:offset]
            return [(parse_chord(text), chord) for text, chord in order]

        results = race(parse, [0, 1024, 2048, 3072])
        for result in results:
            assert all(parsed is chord for parsed, chord in result)
        assert len(core._CHORD_TEXTS) == 2048
        assert all(core._CHORD_TEXTS[oracle.text(chord)] is chord for chord in chords)

    def test_threads_building_one_size_keep_one_row_per_chord(self):
        drop_the_chord_store()

        def build(offset):
            # each thread starts at a different size, so their builds overlap
            sizes = [*range(1, 13)][offset:] + [*range(1, 13)][:offset]
            return {k: enumerate_chords(k) for k in sizes}

        results = race(build, [0, 3, 6, 9])
        assert len(core.CHORD_ROWS) == 2048
        for k in range(1, 13):
            assert core.CHORD_SIZES[k] == tuple(oracle.all_chords(k))
            for result in results:
                assert all(a is b for a, b in zip(result[k], core.CHORD_SIZES[k]))
            assert all(core.CHORD_ROWS[chord][0] is chord for chord in core.CHORD_SIZES[k])
