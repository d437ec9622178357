"""Pitch-class chords in a twelve-tone scale and their gap structure.

A chord is a strictly increasing tuple of pitch classes (integers 0..11,
semitones above C) rooted at 0, e.g. ``(0, 4, 7)`` for a major triad.
Reading the gaps between consecutive tones, including the wrap-around gap
back to the octave, turns a k-tone chord into an ordered sequence of k
positive integers summing to 12 (a *composition*); forgetting the order
gives a *partition* of 12:

>>> chord_to_composition((0, 4, 7))
(4, 3, 5)
>>> chord_to_partition((0, 4, 7))
(3, 4, 5)

Chords, compositions and partitions are all plain tuples of ints, so they
hash, compare and sort naturally.  ``make_chord``, ``make_composition`` and
``make_partition`` are the validating constructors.  The chord store
holds one row per chord of every size built so far, in one plain dict,
``CHORD_ROWS``, keyed by the chord, so that validating a chord is one
probe; ``CHORD_SIZES`` lists each built size's chords for
``enumerate_chords``, and no lookup reads it.  ``_rejection`` is the chord
rule, a pure function of the value: a miss raises its error, or, for a
chord, builds the chord's size and probes again.  ``chord_row`` is the one
chord validation: ``make_chord``, the operators and ``classify`` all go
through it.  A row is ``[chord, i, d, a, composition, partition, text]``.
``parse_chord`` looks a chord's canonical text up in ``_CHORD_TEXTS``
first, then in the store; a padded or parenthesised text, or one spaced
after its commas, is looked up there a second time by its body, and any
other text's ``int()`` tones go to the store itself, since they need no
int check.  ``format_chord`` and ``format_parts`` validate too, and so do
``chord_to_composition`` and ``chord_to_partition``; the answers of these
three are slots of the chord's row.

Everything the library fills on first use is a cache: the chord store
(``CHORD_ROWS`` and ``CHORD_SIZES``), the operator, composition,
partition and text slots of its rows, ``_CHORD_TEXTS`` (each parsed
chord's canonical text), ``_FIBERS`` (each partition's chords),
``transform._ORBITS``, ``gap_permutation``'s ``functools.cache`` and each
``ChordGraph``'s ``_memo``, which holds the graph's components,
isomorphism and DOT and JSON texts once a graph function has derived
them.  A fill answers with what it stored, read back from the cache, so a
wrong stored value shows in the first answer, not only in a later one.
Dropping any of them at any time, even ``CHORD_ROWS`` without
``CHORD_SIZES``, changes no public answer, compared by equality.  A value
that is not a chord builds nothing, but a chord's size is built on first
use even when the call then raises: ``augdim((0, 1, 2, 3, 4))`` builds
size 5, then raises ``WrongArityError``.  A graph whose isomorphism fails
raises on every call.
Identity does not survive a drop: after the chord store is dropped, the
label tables' keys are ``make_chord``'s own tuples again only in a fresh
process, and a fiber's members only once ``_FIBERS`` is dropped too.
``parse_chord`` probes the store on every memo hit, so its answer is the
store's own tuple throughout.
``classify._LABELS``, ``graph._PARTNER`` and the two graphs in
``graph._GRAPHS``, with their node and edge Records, are built at import,
never written afterwards (but for the graphs' memos) and shared by every
call that returns them.
"""

from collections.abc import Iterable, Iterator
from itertools import accumulate, combinations
from operator import sub

OCTAVE = 12

Chord = tuple[int, ...]
Composition = tuple[int, ...]
Partition = tuple[int, ...]


class Record:
    """An immutable value whose fields are named in ``__match_args__``.

    Equality, hashing and ``repr`` read those fields exactly as a frozen
    dataclass does: equal only to an instance of the same class, hashed as
    the tuple of field values, shown as ``Name(field=value, ...)``.  Each
    subclass's ``__init__`` sets every slot once, fields first, then any
    value derived from them, with ``object.__setattr__``, since its own
    ``__setattr__`` refuses every assignment.  Pickling and copying rebuild
    the value through the constructor.

    ``ChordLabel`` and the graph's values are not dataclasses, whose import
    pulls ``inspect`` and ``ast`` into every one-shot CLI command.  Nor are
    they tuples (NamedTuples included), which equal plain tuples, iterate,
    have a length and an order, and leave a derived value no slot.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._fields()


class InvalidChordError(ValueError):
    """The input cannot be read as a valid chord."""


class EmptyChordError(InvalidChordError):
    pass


class ToneOutOfRangeError(InvalidChordError):
    pass


class FirstToneNotZeroError(InvalidChordError):
    pass


class NotStrictlyIncreasingError(InvalidChordError):
    pass


class InvalidSizeError(ValueError):
    """A chord size outside 1..12 was requested."""


class WrongArityError(ValueError):
    """An operation was given a chord of a size it does not cover."""


def _require_ints(values: tuple, error: type[ValueError], what: str) -> None:
    """The validating constructors' int rule: ``type(value) is int``.

    Bools, floats and other numbers are rejected, never converted.
    """
    for value in values:
        if type(value) is not int:
            raise error(f"{what} {value!r} is not an int")


# The chord store, built a size at a time on first use so that a caller pays
# only for the sizes it uses: CHORD_ROWS maps each chord of every built size
# to its row, and CHORD_SIZES each built size to its chords in order, as the
# rows' own tuples.  A row is [chord, i, d, a, composition, partition, text],
# and each chord tuple exists once.  ``transform`` fills each operator's slot
# on first use with the row of the chord's image, so a walk from row to row
# hashes nothing; chord_to_composition and chord_to_partition fill the
# composition and partition slots on first use, and _fill_text the text
# slot.  A size is built only by _build_size, for a chord that missed or for
# enumerate_chords; every lookup reads CHORD_ROWS alone.
CHORD_ROWS: dict[Chord, list] = {}
CHORD_SIZES: dict[int, tuple[Chord, ...]] = {}
# a chord's canonical text (its text slot) -> the store's tuple; filled by
# parse_chord, so it holds valid chords alone, at most 2048 of them
_CHORD_TEXTS: dict[str, Chord] = {}


def _build_size(k: int) -> tuple[Chord, ...]:
    """Add the rows of every k-tone chord, 1 <= k <= 12, to the store; the size's chords."""
    chords = map((0,).__add__, combinations(range(1, OCTAVE), k - 1))
    # setdefault keeps one row per chord when two threads build k at once,
    # and the size goes in only once its rows are all there
    rows = [
        CHORD_ROWS.setdefault(chord, [chord, None, None, None, None, None, None])
        for chord in chords
    ]
    return CHORD_SIZES.setdefault(k, tuple([row[0] for row in rows]))


def chord_row(chord: Chord) -> list:
    """The store's row for a valid chord; ``row[0]`` is the store's own tuple.

    A hit is one probe of ``CHORD_ROWS``, and a miss goes to
    :func:`_missing_row`.  Anything else raises InvalidChordError: a list
    or a value without a length, and every tuple that ``make_chord``
    rejects, with its subclass and message.
    """
    try:
        row = CHORD_ROWS[chord]
    except (KeyError, TypeError):  # a miss, or an unhashable tone or value
        row = _missing_row(chord)
    if row[0] is not chord:
        # (0, 4, 7.0) and (False, 4, 7) hash and compare equal to (0, 4, 7)
        _require_ints(chord, InvalidChordError, "tone")
    return row


def _missing_row(chord: Chord) -> list:
    """A store miss: raise the value's rejection, or build the chord's size and probe again.

    A chord misses when its size is unbuilt or ``CHORD_ROWS`` was dropped;
    a value that is not a chord builds nothing.
    """
    error = _rejection(chord)
    if error is None:
        _build_size(len(chord))
        return CHORD_ROWS[chord]
    try:
        raise error from None
    finally:
        del error  # the traceback holds this frame: a bound error would make a cycle


def _rejection(value: object) -> InvalidChordError | None:
    """The chord rule: the error for the first rule a value breaks, or None for a chord.

    A chord is a nonempty tuple of ints (bools excluded) in 0..11 that
    starts at 0 and strictly increases; the rules are tested in that
    order.  The answer depends on the value alone, not on the store.
    """
    if not isinstance(value, tuple):
        return InvalidChordError(f"a chord is a tuple of ints, got {value!r}")
    if not value:
        return EmptyChordError("a chord needs at least one tone")
    for tone in value:
        if type(tone) is not int:
            return InvalidChordError(f"tone {tone!r} is not an int")
    for tone in value:
        if not 0 <= tone < OCTAVE:
            return ToneOutOfRangeError(f"tone {tone} is outside 0..11")
    if value[0] != 0:
        return FirstToneNotZeroError(f"a chord starts at 0, got {value[0]}")
    previous = -1  # a plain loop costs a third of zip over a slice
    for tone in value:
        if tone <= previous:
            return NotStrictlyIncreasingError(f"tones must strictly increase: {value}")
        previous = tone
    return None


def make_chord(tones: Iterable[int]) -> Chord:
    """Validate a tone sequence as a chord; returns the chord store's own tuple.

    A valid chord of ``int`` tones (bools excluded) starts at 0, is
    strictly increasing, and stays within 0..11.  Anything else raises
    InvalidChordError: inputs not rooted at 0 are rejected, not transposed
    (see :func:`normalize_chord`), and so is a value that is not iterable.

    >>> make_chord([0, 4, 7])
    (0, 4, 7)
    """
    try:
        chord = tuple(tones)
    except TypeError:  # not iterable
        raise _rejection(tones) from None
    return chord_row(chord)[0]


def normalize_chord(pitch_classes: Iterable[int]) -> Chord:
    """Rebase arbitrary pitch classes into a valid chord.

    Reduces modulo the octave, drops duplicates, subtracts the minimum and
    sorts, so e.g. ``normalize_chord([7, 11, 2])`` gives ``(0, 5, 9)``.
    Pitch classes that are not ints raise InvalidChordError.
    """
    try:
        values = tuple(pitch_classes)
    except TypeError:  # not iterable
        raise _rejection(pitch_classes) from None
    _require_ints(values, InvalidChordError, "pitch class")
    pcs = {p % OCTAVE for p in values}
    if not pcs:
        raise EmptyChordError("a chord needs at least one tone")
    low = min(pcs)
    return tuple(sorted(p - low for p in pcs))


def make_composition(parts: Iterable[int]) -> Composition:
    """Validate an ordered gap sequence: positive int parts summing to 12."""
    try:
        comp = tuple(parts)
    except TypeError:  # not iterable
        raise ValueError(f"parts must be positive integers: {parts!r}") from None
    _require_ints(comp, ValueError, "part")
    if not comp or any(p < 1 for p in comp):
        raise ValueError(f"parts must be positive integers: {comp!r}")
    if sum(comp) != OCTAVE:
        raise ValueError(f"parts must sum to 12, got {sum(comp)}")
    return comp


def make_partition(parts: Iterable[int]) -> Partition:
    """Validate an unordered gap multiset, stored sorted ascending."""
    return tuple(sorted(make_composition(parts)))


def chord_to_composition(chord: Chord) -> Composition:
    """The chord's gap sequence, ending with the wrap-around to the octave.

    Anything but a chord raises :func:`chord_row`'s InvalidChordError, so
    ``(0, 4, 4)`` and ``()`` raise ``make_chord``'s subclass and message.
    The answer is the row's composition slot, filled on first use: gap j
    is tone j + 1 (or the octave) minus tone j.

    >>> chord_to_composition((0, 4, 7, 11))
    (4, 3, 4, 1)
    >>> chord_to_composition((0,))
    (12,)
    """
    row = chord_row(chord)
    return row[4] or _fill_composition(row)


def chord_to_partition(chord: Chord) -> Partition:
    """The chord's gap multiset, sorted ascending.

    Anything but a chord raises :func:`chord_row`'s InvalidChordError, as
    for :func:`chord_to_composition`.  The answer is the row's partition
    slot, filled on first use from the sorted composition slot.

    >>> chord_to_partition((0, 3, 8))
    (3, 4, 5)
    """
    row = chord_row(chord)
    return row[5] or _fill_partition(row)


def _fill_composition(row: list) -> Composition:
    # map applies operator.sub in C, with no Python step per gap
    chord = row[0]
    row[4] = tuple(map(sub, (*chord[1:], OCTAVE), chord))
    return row[4]


def _fill_partition(row: list) -> Partition:
    row[5] = tuple(sorted(row[4] or _fill_composition(row)))
    return row[5]


def composition_to_chord(comp: Composition) -> Chord:
    """Rebuild the unique chord whose gap sequence is ``comp``.

    Inverse of :func:`chord_to_composition`; the tones are the prefix sums
    of the parts.  Assumes a validated composition.

    >>> composition_to_chord((3, 5, 4))
    (0, 3, 8)
    """
    return (0, *accumulate(comp[:-1]))


def _require_size(k: int, what: str) -> None:
    """The enumerators' size rule: an int in 1..12; ``4.0`` and ``True`` are not sizes."""
    if type(k) is not int or not 1 <= k <= OCTAVE:
        raise InvalidSizeError(f"{what} must be within 1..12, got {k}")


def enumerate_chords(k: int) -> list[Chord]:
    """All k-tone chords (0 plus each (k-1)-subset of 1..11) as the store's tuples, sorted."""
    _require_size(k, "chord size")
    return list(CHORD_SIZES.get(k) or _build_size(k))


def enumerate_partitions(k: int) -> list[Partition]:
    """All partitions of 12 into exactly k parts, each ascending, in lexicographic order."""
    _require_size(k, "partition length")
    return list(_partitions_into(OCTAVE, k, 1))


def _partitions_into(total: int, k: int, minimum: int) -> Iterator[Partition]:
    if k == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total // k + 1):
        for rest in _partitions_into(total - first, k - 1, first):
            yield (first, *rest)


# partition -> its fiber, as the chord store's own tuples; filled on first use.
# It serves verify-sweep's repeated verdicts, which it sped up 29% (BENCH_25.json).
_FIBERS: dict[Partition, tuple[Chord, ...]] = {}


def chords_of_partition(partition: Partition) -> list[Chord]:
    """Every chord whose gap multiset is the given partition, as the store's own tuples.

    One chord per distinct ordering of the parts; returned in lexicographic
    order (orderings and their prefix-sum chords sort identically).  What
    ``make_partition`` rejects raises its ValueError.  Each fiber is built
    once, from the orderings' prefix sums and with no chord-row slot
    read, then kept in ``_FIBERS``; every call returns a new list.

    >>> chords_of_partition((3, 3, 3, 3))
    [(0, 3, 6, 9)]
    """
    parts = make_partition(partition)
    fiber = _FIBERS.get(parts)
    if fiber is None:
        # each prefix-sum tuple swapped for the store's own, as parse_chord does
        chords = map(composition_to_chord, _distinct_orderings(parts))
        # stored only once the fiber is complete, then read back from the memo
        _FIBERS[parts] = tuple([(CHORD_ROWS.get(c) or _missing_row(c))[0] for c in chords])
        fiber = _FIBERS[parts]
    return list(fiber)


def _distinct_orderings(parts: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Distinct permutations of a sorted multiset, lexicographically.

    Narayana Pandita's next-permutation step (Knuth's Algorithm L, TAOCP
    7.2.1.2): find the last ascent ``order[j] < order[j + 1]``, swap
    ``order[j]`` with the last part larger than it, and reverse the tail
    after j.  Equal parts never form an ascent, so each distinct ordering
    comes exactly once, and the last one has no ascent at all.
    """
    order = list(parts)
    while True:
        yield tuple(order)
        j = len(order) - 2
        while j >= 0 and order[j] >= order[j + 1]:
            j -= 1
        if j < 0:
            return
        m = len(order) - 1
        while order[m] <= order[j]:
            m -= 1
        order[j], order[m] = order[m], order[j]
        order[j + 1 :] = order[: j : -1]


def parse_chord(text: str) -> Chord:
    """Parse chord text like ``"0,4,7"`` (parentheses and spaces tolerated).

    Tones are ASCII decimal numbers: the extra forms ``int()`` reads, such
    as ``"+4"``, ``"-0"``, ``"1_1"`` or non-ASCII digits, are rejected, as is
    a non-str.  A negative tone such as ``"-3"`` is read, and rejected as out
    of range.
    Returns the chord store's own tuple, and rejects text that is not a
    chord with ``make_chord``'s subclass and message.

    A chord's canonical text, the bare comma form of :func:`format_chord`,
    is one probe of ``_CHORD_TEXTS`` and one of the store: an exact ``str``
    is looked up there first.  On a miss, the text's body (stripped, then
    its parentheses removed) is looked up there again with each ``", "``
    read as ``","``: a hit leaves the body only the key's digits and commas
    and one ASCII space after some commas, which the parse reads as the
    same tones.  The body is not stripped again for this probe, since a
    non-ASCII space inside the parentheses, as in ``"(\\xa00,4,7)"``, is
    rejected by the parse.  Any other text is parsed, and its tones are
    looked up in the chord store directly, not through :func:`chord_row`:
    ``int()`` on text always returns an exact ``int``, so a store hit cannot
    be the ``(0, 4, 7.0)`` or ``(False, 4, 7)`` that ``chord_row``'s int
    pass is there to catch.  The chord's text slot then goes into the memo,
    never the text given, so ``" 0,4,7"`` or ``"00,04,07"`` stores
    ``"0,4,7"``, and a text that is rejected stores nothing.  The memo holds
    at most 2048 entries, and only once every chord has been parsed: about
    175 kB by ``tracemalloc``, the text slots included.
    """
    if type(text) is str:
        chord = _CHORD_TEXTS.get(text)
        if chord is not None:
            return (CHORD_ROWS.get(chord) or _missing_row(chord))[0]
    elif not isinstance(text, str):  # 5, None, b"0,4,7", (0, 7, 4), [0, 4, 7]
        raise InvalidChordError(f"chord text must be a str, got {text!r}")
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    chord = _CHORD_TEXTS.get(body.replace(", ", ","))  # sound: see the docstring
    if chord is not None:
        return (CHORD_ROWS.get(chord) or _missing_row(chord))[0]
    if not body.strip():
        raise EmptyChordError("empty chord text")
    if not body.isascii() or "_" in body or "+" in body:
        raise InvalidChordError(f"cannot parse chord text {text!r}")
    try:
        tones = tuple(map(int, body.split(",")))
    except ValueError:
        raise InvalidChordError(f"cannot parse chord text {text!r}") from None
    if "-0" in body and any(t == 0 and "-" in s for s, t in zip(body.split(","), tones)):
        raise InvalidChordError(f"cannot parse chord text {text!r}")  # a signed zero
    row = CHORD_ROWS.get(tones) or _missing_row(tones)
    canonical = row[6] or _fill_text(row)
    # stored, then read back from the memo
    _CHORD_TEXTS[canonical] = row[0]
    return _CHORD_TEXTS[canonical]


def format_chord(chord: Chord) -> str:
    """Render a chord in the bare comma form, e.g. ``"0,4,7"``.

    The answer is the row's text slot, filled on first use.  Anything else
    raises :func:`chord_row`'s InvalidChordError.
    """
    row = chord_row(chord)
    return row[6] or _fill_text(row)


def _fill_text(row: list) -> str:
    # the one place the bare comma form is written
    row[6] = ",".join(map(str, row[0]))
    return row[6]


def format_parts(parts: Iterable[int]) -> str:
    """Render a partition or composition as a bracketed list, e.g. ``"[3,4,5]"``.

    Anything but positive int parts summing to 12 raises ``make_composition``'s ValueError.
    """
    return "[" + ",".join(map(str, make_composition(parts))) + "]"
