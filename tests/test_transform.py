from __future__ import annotations

from itertools import chain, combinations, permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chordgroups import transform
from chordgroups.core import (
    CHORD_ROWS,
    InvalidChordError,
    WrongArityError,
    chord_row,
    chord_to_partition,
    enumerate_chords,
    make_chord,
    make_composition,
    make_partition,
    normalize_chord,
    parse_chord,
)
from chordgroups.transform import (
    Operator,
    _permute,
    apply_word,
    augdim,
    dual,
    gap_permutation,
    invert,
    orbit,
    parse_generators,
)

from conftest import TONE_FORMULAS as ORACLES, drop_the_chord_store, race
from oracle import gaps

I, D, A = Operator.INVERSION, Operator.DUALITY, Operator.AUGDIM


def powerset(items):
    return chain.from_iterable(combinations(items, n) for n in range(len(items) + 1))


SINGLE = {I: invert, D: dual, A: augdim}
CHORDS = [chord for k in range(1, 7) for chord in enumerate_chords(k)]
EVERY_CHORD = [chord for k in range(1, 13) for chord in enumerate_chords(k)]


def _operators_on(chord):
    return [I, D, A] if len(chord) == 4 else [I, D]


def _outcome(function, *args):
    """What ``function(*args)`` returns, or its ValueError's class and message."""
    try:
        return function(*args)
    except ValueError as error:
        return type(error), str(error)


def _word_error(word):
    return f"operator word may only contain i, d, a: {word!r}"


def _closure_by_tones(chord, generators):
    seen, frontier = {chord}, [chord]
    while frontier:
        current = frontier.pop()
        for op in generators:
            image = ORACLES[op](current)
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return sorted(seen)


def _walk_by_tones(chord, generators):
    # breadth first, each chord's images in generator order
    reached = [chord]
    for current in reached:
        for op in generators:
            image = ORACLES[op](current)
            if image not in reached:
                reached.append(image)
    return reached


class TestInversion:
    @pytest.mark.parametrize(
        "chord, image",
        [
            ((0, 4, 7), (0, 3, 8)),
            ((0, 3, 8), (0, 5, 9)),
            ((0, 4, 8), (0, 4, 8)),
            ((0, 4, 7, 11), (0, 3, 7, 8)),
            ((0, 5), (0, 7)),
        ],
    )
    def test_known_images(self, chord, image):
        assert invert(chord) == image

    def test_single_tone_is_fixed(self):
        assert invert((0,)) == (0,)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_power_k_is_identity(self, k):
        # the orbit period may properly divide k (augmented triad, dd chord)
        for chord in enumerate_chords(k):
            current = chord
            for _ in range(k):
                current = invert(current)
            assert current == chord


class TestDuality:
    @pytest.mark.parametrize(
        "chord, image",
        [
            ((0, 4, 7), (0, 5, 8)),
            ((0, 3, 6), (0, 6, 9)),
            ((0, 4, 8), (0, 4, 8)),
            ((0,), (0,)),
            ((0, 5), (0, 7)),
        ],
    )
    def test_known_images(self, chord, image):
        assert dual(chord) == image

    @pytest.mark.parametrize("k", range(1, 7))
    def test_is_an_involution(self, k):
        for chord in enumerate_chords(k):
            assert dual(dual(chord)) == chord


class TestAugdim:
    @pytest.mark.parametrize(
        "chord, image",
        [
            ((0, 4, 7, 11), (0, 4, 8, 11)),
            ((0, 3, 6, 10), (0, 3, 7, 10)),
            ((0, 3, 6, 9), (0, 3, 6, 9)),
        ],
    )
    def test_known_images(self, chord, image):
        assert augdim(chord) == image

    def test_is_an_involution(self):
        for chord in enumerate_chords(4):
            assert augdim(augdim(chord)) == chord

    @pytest.mark.parametrize("chord", [(0, 4, 7), (0, 2), (0, 1, 2, 3, 4)])
    def test_rejects_other_sizes(self, chord):
        with pytest.raises(WrongArityError):
            augdim(chord)


class TestDihedralIdentity:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_dual_conjugates_inversion(self, k):
        for chord in enumerate_chords(k):
            for n in range(k + 1):
                image = chord
                for _ in range(n):
                    image = invert(image)
                expected = dual(chord)
                for _ in range((k - n) % k):
                    expected = invert(expected)
                assert dual(image) == expected


class TestGapActions:
    def test_operators_act_on_gaps_by_position(self):
        for chord in CHORDS:
            for op in _operators_on(chord):
                image = SINGLE[op](chord)
                assert image == ORACLES[op](chord)
                permuted = tuple(gaps(chord)[p] for p in gap_permutation(op, len(chord)))
                assert gaps(image) == permuted

    @pytest.mark.parametrize("k", range(1, 13))
    def test_gap_permutations_permute_the_positions(self, k):
        for op in (I, D, A) if k == 4 else (I, D):
            assert sorted(gap_permutation(op, k)) == list(range(k))
        if k != 4:
            with pytest.raises(WrongArityError, match="four-tone"):
                gap_permutation(A, k)

    def test_gap_permutation_of_a_non_operator_is_a_value_error(self):
        with pytest.raises(ValueError) as raised:
            gap_permutation("x", 3)
        assert (type(raised.value), str(raised.value)) == (ValueError, "not an operator: 'x'")

    @pytest.mark.parametrize("k", range(1, 13))
    def test_slots_are_the_gap_permutations(self, k):
        # each chord as the store's own tuple and as a fresh equal tuple, which
        # takes the int pass; every image is the store's own tuple too
        for chord in enumerate_chords(k):
            key, fresh = make_chord(chord), (*chord,)
            assert fresh == key and fresh is not key
            for op in _operators_on(chord):
                expected = _permute(chord, gap_permutation(op, k))
                for argument in (key, fresh):
                    image = SINGLE[op](argument)
                    assert image == expected
                    assert image is make_chord(expected)

    def test_operators_preserve_the_partition(self):
        for chord in enumerate_chords(4):
            target = chord_to_partition(chord)
            for op in (invert, dual, augdim):
                assert chord_to_partition(op(chord)) == target

    def test_gap_actions_generate_every_ordering(self):
        members = orbit((0, 1, 3, 7), [I, D, A])
        assert sorted(gaps(c) for c in members) == sorted(permutations((1, 2, 4, 5)))


class TestSingleOperators:
    """``invert``, ``dual`` and ``augdim`` read per-size tables."""

    def test_match_the_tone_formulas_on_every_chord(self):
        # sizes 7..12 too, which verify never reaches
        for chord in EVERY_CHORD:
            for op in _operators_on(chord):
                assert SINGLE[op](chord) == ORACLES[op](chord)

    @staticmethod
    def _outcome(call):
        try:
            return call()
        except Exception as exc:  # compared by class and text
            return type(exc), str(exc)

    @pytest.mark.parametrize(
        "chord", [(), (0,), (0, 4, 7), tuple(range(12)), tuple(range(13)), tuple(range(14))]
    )
    def test_at_the_table_edges_they_act_as_gap_permutation_does(self, chord):
        # on a chord, gap_permutation's image or error; (), 13 and 14 tones are
        # not chords, so every operator raises what make_chord raises for them
        is_chord = 1 <= len(chord) <= 12
        for op, single in SINGLE.items():
            if is_chord:
                expected = self._outcome(lambda: _permute(chord, gap_permutation(op, len(chord))))
            else:
                expected = self._outcome(lambda: make_chord(chord))
                assert issubclass(expected[0], InvalidChordError)
            assert self._outcome(lambda: single(chord)) == expected
        if is_chord:
            assert self._outcome(lambda: augdim(chord)) == (
                WrongArityError,
                f"augmented-diminished duality needs a four-tone chord, got {len(chord)} tones",
            )


class TestWords:
    def test_empty_word_is_identity(self):
        chord = (0, 4, 7)
        assert apply_word("", chord) is chord
        assert apply_word([], chord) is chord

    def test_inversion_cubed_fixes_triads(self):
        assert apply_word("iii", (0, 4, 7)) == (0, 4, 7)

    def test_double_duality_is_identity(self):
        assert apply_word("dd", (0, 4, 7, 10)) == (0, 4, 7, 10)

    def test_double_augdim_is_identity(self):
        assert apply_word("aa", (0, 4, 7, 11)) == (0, 4, 7, 11)

    def test_words_apply_left_to_right(self):
        assert apply_word("id", (0, 4, 7)) == dual(invert((0, 4, 7)))

    def test_case_insensitive(self):
        assert apply_word("IID", (0, 4, 7)) == apply_word("iid", (0, 4, 7))

    def test_operator_sequences_accepted(self):
        assert apply_word([I, I], (0, 4, 7)) == invert(invert((0, 4, 7)))

    def test_parse_generators(self):
        assert parse_generators("i,d") == (I, D)
        assert parse_generators(" A , i ") == (A, I)
        assert parse_generators("i,i,d") == (I, D)
        with pytest.raises(ValueError):
            parse_generators("i;d")

    @given(st.sampled_from(CHORDS), st.data())
    def test_words_match_the_tone_formulas_step_by_step(self, chord, data):
        word = data.draw(st.lists(st.sampled_from(_operators_on(chord)), max_size=12))
        expected = chord
        for op in word:
            expected = ORACLES[op](expected)
        assert apply_word(word, chord) == expected

    def test_words_up_to_length_three_match_the_tone_formulas_on_every_chord(self):
        # every size 1..12, so each size's word table is walked
        for chord in EVERY_CHORD:
            assert apply_word((), chord) == chord
            level = [((), chord)]
            for _ in range(3):
                level = [
                    ((*word, op), ORACLES[op](image))
                    for word, image in level
                    for op in _operators_on(chord)
                ]
                for word, image in level:
                    assert apply_word(word, chord) == image

    def test_augdim_in_word_needs_tetrad(self):
        with pytest.raises(WrongArityError):
            apply_word("ia", (0, 4, 7))

    def test_a_string_word_is_parsed_before_it_is_applied(self):
        with pytest.raises(ValueError, match="may only contain") as excinfo:
            apply_word("ax", (0, 4, 7))
        assert excinfo.type is ValueError

    @given(st.sampled_from(EVERY_CHORD), st.text(alphabet="idaIDA", max_size=12))
    def test_a_string_word_walks_as_its_operator_list(self, chord, word):
        operators = [Operator(letter.lower()) for letter in word]
        by_letters = _outcome(apply_word, word, chord)
        by_operators = _outcome(apply_word, operators, chord)
        assert by_letters == by_operators
        if type(by_letters[0]) is int:  # a chord, not an error's class and message
            assert by_letters is by_operators

    # "\x00" is the mark every byte but a letter's translates to, "\x01".."\x03"
    # are the slot bytes a letter translates to, and "ı" upper-cases to "I"
    @pytest.mark.usefixtures("restored_caches")
    @pytest.mark.parametrize("word", ["\x00", "\x01", "\x03\x02", "?", "ia?", "i\u0131"])
    def test_a_word_with_any_other_character_is_rejected_before_any_step(self, word):
        drop_the_chord_store()
        make_chord((0, 4, 7, 11))  # size 4 rebuilt with every slot empty
        rows = {chord: list(row) for chord, row in CHORD_ROWS.items()}
        for chord in [(0, 4, 7, 11), (0, 4, 4)]:
            with pytest.raises(ValueError) as excinfo:
                apply_word(word, chord)
            error = excinfo.value
            assert type(error) is ValueError  # not (0, 4, 4)'s InvalidChordError
            assert str(error) == _word_error(word)
            assert error.__cause__ is None and error.__context__ is None
        assert {chord: list(row) for chord, row in CHORD_ROWS.items()} == rows

    # every byte a str word can encode to, and three letters' look-alikes
    # outside ASCII: a dotless i, a dotted capital I and a full-width a
    ONE_CHARACTER_WORDS = [chr(n) for n in range(256)] + ["\u0131", "\u0130", "\uff41"]

    def test_the_six_letters_are_the_only_one_character_words(self):
        tetrad = (0, 4, 7, 11)
        accepted = {}
        for word in self.ONE_CHARACTER_WORDS:
            if word in "idaIDA":
                accepted[word] = apply_word(word, tetrad)
                continue
            # (0, 4, 4) is no chord: the word is rejected before it is validated
            for chord in [tetrad, (0, 4, 4)]:
                with pytest.raises(ValueError) as excinfo:
                    apply_word(word, chord)
                error = excinfo.value
                assert type(error) is ValueError
                assert str(error) == _word_error(word)
                assert error.__context__ is None
        assert sorted(accepted) == sorted("idaIDA")
        for word, image in accepted.items():
            assert image == ORACLES[Operator(word.lower())](tetrad)

    def test_the_first_bad_item_of_a_sequence_decides(self):
        with pytest.raises(WrongArityError, match="four-tone"):
            apply_word([I, A, "x"], (0, 4, 7))
        with pytest.raises(ValueError, match="not an operator: 'x'") as excinfo:
            apply_word([I, "x", A], (0, 4, 7))
        assert excinfo.type is ValueError

    def test_a_one_shot_iterator_is_a_word(self):
        assert apply_word(iter([I, D]), (0, 4, 7)) == apply_word([I, D], (0, 4, 7))


class TestOrbits:
    def test_major_triad_inversions(self):
        assert orbit((0, 4, 7), [I]) == [(0, 3, 8), (0, 4, 7), (0, 5, 9)]

    def test_diminished_triad_inversions(self):
        assert orbit((0, 3, 6), [I]) == [(0, 3, 6), (0, 3, 9), (0, 6, 9)]

    def test_fully_even_tetrad_is_fixed_by_everything(self):
        assert orbit((0, 3, 6, 9), [I, D, A]) == [(0, 3, 6, 9)]

    def test_exact_orbit_sizes_witness_operator_orders(self):
        assert len(orbit((0, 4, 7), [I])) == 3
        assert len(orbit((0, 4, 7, 11), [I])) == 4

    def test_major_seventh_orbit_is_self_dual(self):
        assert len(orbit((0, 4, 7, 11), [I, D])) == 4

    def test_major_seventh_component_has_twelve_chords(self):
        seen = _closure_by_tones((0, 4, 7, 11), [I, D, A])
        assert orbit((0, 4, 7, 11), [I, D, A]) == seen
        assert len(seen) == 12

    def test_orbits_match_a_tone_formula_closure(self):
        # every size 1..12, so each size's table is walked
        for chord in EVERY_CHORD:
            for generators in powerset(_operators_on(chord)):
                assert orbit(chord, generators) == _closure_by_tones(chord, generators)

    def test_augdim_generator_requires_tetrad(self):
        with pytest.raises(WrongArityError):
            orbit((0, 4, 7), [I, A])

    @pytest.mark.parametrize("bad", ["i", "id", [I, "d"], [None]])
    def test_non_operators_raise(self, bad):
        with pytest.raises(ValueError, match="not an operator"):
            orbit((0, 4, 7, 11), bad)
        with pytest.raises(ValueError, match="not an operator"):
            apply_word(list(bad), (0, 4, 7, 11))

    @given(st.sampled_from(enumerate_chords(4)))
    def test_orbit_is_closed_under_its_generators(self, chord):
        members = orbit(chord, [I, D, A])
        for member in members:
            for op in (invert, dual, augdim):
                assert op(member) in members

    # orbit stores each completed walk under every member's key; a stored
    # orbit must change no result and no error.

    def test_mutating_a_returned_list_leaves_the_next_result_alone(self):
        expected = [(0, 1, 5, 8), (0, 3, 7, 8), (0, 4, 5, 9), (0, 4, 7, 11)]
        first = orbit((0, 4, 7, 11), [I, D])
        first.append((0, 6))
        first.reverse()
        second = orbit((0, 4, 7, 11), [I, D])
        assert second == expected and second is not first
        second.clear()
        assert orbit((0, 1, 5, 8), [D, I]) == expected

    def test_a_tuple_only_equal_to_a_stored_member_is_still_invalid(self):
        assert orbit((0, 4, 7), [I]) == [(0, 3, 8), (0, 4, 7), (0, 5, 9)]
        for bad in [(0, 4, 7.0), (False, 4, 7), [0, 4, 7]]:
            with pytest.raises(InvalidChordError):
                orbit(bad, [I])

    def test_a_bad_generator_still_raises_once_the_orbit_is_stored(self):
        orbit((0, 4, 7, 11), [I])
        with pytest.raises(ValueError, match="not an operator: 'x'"):
            orbit((0, 4, 7, 11), [I, "x"])

    def test_a_failed_walk_stores_nothing(self):
        for _ in range(2):
            with pytest.raises(WrongArityError):
                orbit((0, 4, 7), [I, A])
        assert orbit((0, 4, 7), [I]) == [(0, 3, 8), (0, 4, 7), (0, 5, 9)]
        assert orbit((0, 3, 8), [I, D]) == _closure_by_tones((0, 3, 8), [I, D])

    def test_a_one_shot_iterator_of_generators_works_on_a_warm_memo(self):
        expected = orbit((0, 1, 3, 7), [I, D, A])
        assert orbit((0, 1, 3, 7), iter([A, D, I])) == expected
        assert orbit((0, 1, 3, 7), (op for op in [I, D, A, I])) == expected

    @pytest.mark.parametrize("generators", [[I], [D], [I, D], [I, A], [D, A], [I, D, A]])
    def test_every_member_gives_the_same_orbit(self, generators):
        for chord in enumerate_chords(4):
            members = orbit(chord, generators)
            for member in members:
                assert orbit(member, generators[::-1]) == members


class TestGeneratorTuples:
    # orbit looks a plain tuple of distinct operators up in _SLOT_SETS; every
    # other iterable is parsed item by item, as a list is.

    def test_every_tuple_of_distinct_operators_is_a_key(self):
        keys = [key for n in range(4) for key in permutations((I, D, A), n)]
        assert list(transform._SLOT_SETS) == keys and len(keys) == 16
        for key in keys:
            assert transform._SLOT_SETS[key] == frozenset(transform._slot(op) for op in key)

    def test_parse_generators_returns_a_key(self):
        for n in range(5):
            for letters in product("idaIDA", repeat=n):
                assert parse_generators(",".join(letters)) in transform._SLOT_SETS

    @pytest.mark.usefixtures("restored_caches")
    @pytest.mark.parametrize(
        "key", transform._SLOT_SETS, ids=lambda key: "".join(op.value for op in key) or "()"
    )
    def test_each_key_gives_its_lists_orbit_and_the_tone_formula_orbit(self, key):
        # from an empty memo, so the key's own walk fills it; a key with a
        # raises on every size but four tones, and stores nothing
        transform._ORBITS.clear()
        tetrads = [chord for chord in CHORDS if len(chord) == 4]
        others = [chord for chord in CHORDS if len(chord) != 4]
        if A in key:
            for chord in others:
                for generators in (key, list(key)):
                    with pytest.raises(WrongArityError) as excinfo:
                        orbit(chord, generators)
                    assert str(excinfo.value) == (
                        "augmented-diminished duality needs a four-tone chord, "
                        f"got {len(chord)} tones"
                    )
            assert transform._ORBITS == {}
        for chord in tetrads if A in key else CHORDS:
            expected = _closure_by_tones(chord, key)
            assert orbit(chord, key) == expected
            assert orbit(chord, list(key)) == expected

    class Generators(tuple):
        pass

    # tuples that miss the table or are no plain tuple, and the empty key,
    # each with its outcome on a tetrad
    TUPLES = {
        "(I, I)": ((I, I), _closure_by_tones((0, 4, 7, 11), [I])),
        "(I, 'x')": ((I, "x"), (ValueError, "not an operator: 'x'")),
        "(I, [])": ((I, []), (ValueError, "not an operator: []")),
        "('i',)": (("i",), (ValueError, "not an operator: 'i'")),
        "('x',)": (("x",), (ValueError, "not an operator: 'x'")),
        "subclass": (Generators((I, D)), _closure_by_tones((0, 4, 7, 11), [I, D])),
        "()": ((), [(0, 4, 7, 11)]),
    }

    @pytest.mark.parametrize("name", TUPLES)
    def test_a_tuple_acts_as_its_list(self, name):
        generators, expected = self.TUPLES[name]
        for chord in [(0, 4, 7, 11), (0, 3, 8)]:
            assert _outcome(orbit, chord, generators) == _outcome(orbit, chord, list(generators))
        assert _outcome(orbit, (0, 4, 7, 11), generators) == expected
        with pytest.raises(InvalidChordError):  # the chord is validated first
            orbit((0, 4, 4), generators)

    def test_a_key_never_parses_its_items_and_anything_else_does(self, monkeypatch):
        def parsed(op):
            raise AssertionError(f"parsed {op!r}")

        monkeypatch.setattr(transform, "_slot", parsed)
        tetrad = (0, 4, 7, 11)
        for key in transform._SLOT_SETS:
            orbit(tetrad, key)
        for generators in [[I], (I, I), self.Generators((I,)), iter((I,))]:
            with pytest.raises(AssertionError, match="parsed"):
                orbit(tetrad, generators)


class TestWalk:
    # _walk is the one closure behind orbit and classify.family_row; orbit
    # sorts its result, so only these tests see the visit order.

    @pytest.mark.parametrize("generators", [[I], [D], [I, D], [D, I], [I, A], [A, D, I]])
    def test_visits_breadth_first_from_the_rows_chord(self, generators):
        chords = enumerate_chords(4) if A in generators else CHORDS
        slots = [transform._slot(op) for op in generators]
        for chord in chords:
            assert transform._walk(chord_row(chord), slots) == _walk_by_tones(chord, generators)

    def test_returns_the_chord_tables_own_tuples(self):
        for chord in CHORDS:
            slots = [transform._slot(op) for op in _operators_on(chord)]
            for member in transform._walk(chord_row(chord), slots):
                assert member is make_chord(member)


def test_threads_sharing_the_orbit_memo_get_the_single_threaded_orbits(restored_caches):
    tetrads = enumerate_chords(4)
    transform._ORBITS.clear()
    expected = [orbit(chord, [I, D, A]) for chord in tetrads]
    transform._ORBITS.clear()

    def walk(offset):
        # each thread starts at a different tetrad, so their walks overlap
        order = tetrads[offset:] + tetrads[:offset]
        return {chord: orbit(chord, [I, D, A]) for chord in order}

    results = race(walk, [0, 41, 82, 123])
    for result in results:
        assert [result[chord] for chord in tetrads] == expected


# Each call but the last returned a silently wrong value or raised a stray
# TypeError before the operators validated their chord through the chord
# table; a list is no chord tuple to them, as to classify.
NON_CHORD_CALLS = {
    "invert((0, 13))": lambda: invert((0, 13)),
    "orbit((0, 13), [I])": lambda: orbit((0, 13), [I]),
    "apply_word('i', (0, 4, 4))": lambda: apply_word("i", (0, 4, 4)),
    "apply_word('ii', (5, 7))": lambda: apply_word("ii", (5, 7)),
    "dual(())": lambda: dual(()),
    "invert(())": lambda: invert(()),
    "orbit((), [D])": lambda: orbit((), [D]),
    "augdim((0, 1, 2, 'x'))": lambda: augdim((0, 1, 2, "x")),
    "invert([0, 4, 7])": lambda: invert([0, 4, 7]),
}


@pytest.mark.parametrize("call", NON_CHORD_CALLS)
def test_a_non_chord_is_invalid(call):
    with pytest.raises(InvalidChordError):
        NON_CHORD_CALLS[call]()


# Each call raised a stray TypeError or AttributeError on an argument of the
# wrong kind; the chord constructors now raise InvalidChordError, the rest
# exactly ValueError.
WRONG_KIND_CALLS = {
    "make_chord": (make_chord, InvalidChordError),
    "parse_chord": (parse_chord, InvalidChordError),
    "normalize_chord": (normalize_chord, InvalidChordError),
    "make_composition": (make_composition, ValueError),
    "make_partition": (make_partition, ValueError),
    "apply_word": (lambda bad: apply_word(bad, (0, 4, 7)), ValueError),
    "orbit": (lambda bad: orbit((0, 4, 7), bad), ValueError),
    "parse_generators": (parse_generators, ValueError),
}


@pytest.mark.parametrize("bad", [5, None])
@pytest.mark.parametrize("call", WRONG_KIND_CALLS)
def test_an_argument_of_the_wrong_kind_raises_the_documented_error(call, bad):
    function, error = WRONG_KIND_CALLS[call]
    with pytest.raises(ValueError) as excinfo:
        function(bad)
    assert excinfo.type is error
