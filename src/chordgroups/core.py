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
``make_partition`` are the validating constructors; everything downstream
assumes already-validated values.

``Record`` is the base of the package's few immutable value classes
(``ChordLabel`` and the graph's nodes, edges and graph).
"""

from __future__ import annotations

from itertools import accumulate, combinations
from typing import Iterable, Iterator

OCTAVE = 12

Chord = tuple[int, ...]
Composition = tuple[int, ...]
Partition = tuple[int, ...]


class Record:
    """An immutable value whose fields are named in ``__match_args__``.

    Equality, hashing and ``repr`` read those fields exactly as a frozen
    dataclass does: equal only to an instance of the same class, hashed as
    the tuple of field values, shown as ``Name(field=value, ...)``.  Any
    slot after the fields holds a value derived from them at construction.
    Pickling and copying rebuild the value through the constructor.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _init(self, *values: object) -> None:
        """Set every slot, fields first, once; only constructors call this."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

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
    """The validating constructors' one int rule: ``type(value) is int``.

    Bools, floats and other numbers are rejected, never converted.
    """
    for value in values:
        if type(value) is not int:
            raise error(f"{what} {value!r} is not an int")


def make_chord(tones: Iterable[int]) -> Chord:
    """Validate a tone sequence as a chord.

    A valid chord of ``int`` tones (bools excluded) starts at 0, is
    strictly increasing, and stays within 0..11.  Inputs not rooted at 0 are rejected, not transposed; see
    :func:`normalize_chord` for the lenient variant.

    >>> make_chord([0, 4, 7])
    (0, 4, 7)
    """
    chord = tuple(tones)
    if not chord:
        raise EmptyChordError("a chord needs at least one tone")
    _require_ints(chord, InvalidChordError, "tone")
    for tone in chord:
        if not 0 <= tone < OCTAVE:
            raise ToneOutOfRangeError(f"tone {tone} is outside 0..11")
    if chord[0] != 0:
        raise FirstToneNotZeroError(f"a chord starts at 0, got {chord[0]}")
    if any(a >= b for a, b in zip(chord, chord[1:])):
        raise NotStrictlyIncreasingError(f"tones must strictly increase: {chord}")
    return chord


def normalize_chord(pitch_classes: Iterable[int]) -> Chord:
    """Rebase arbitrary pitch classes into a valid chord.

    Reduces modulo the octave, drops duplicates, subtracts the minimum and
    sorts, so e.g. ``normalize_chord([7, 11, 2])`` gives ``(0, 5, 9)``.
    Pitch classes that are not ints raise InvalidChordError.
    """
    values = tuple(pitch_classes)
    _require_ints(values, InvalidChordError, "pitch class")
    pcs = {p % OCTAVE for p in values}
    if not pcs:
        raise EmptyChordError("a chord needs at least one tone")
    low = min(pcs)
    return tuple(sorted(p - low for p in pcs))


def make_composition(parts: Iterable[int]) -> Composition:
    """Validate an ordered gap sequence: positive int parts summing to 12."""
    comp = tuple(parts)
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

    >>> chord_to_composition((0, 4, 7, 11))
    (4, 3, 4, 1)
    >>> chord_to_composition((0,))
    (12,)

    The empty tuple raises EmptyChordError.
    """
    if not chord:
        raise EmptyChordError("a chord needs at least one tone")
    return tuple(b - a for a, b in zip(chord, chord[1:])) + (OCTAVE - chord[-1],)


def chord_to_partition(chord: Chord) -> Partition:
    """The chord's gap multiset, sorted ascending; EmptyChordError for ``()``.

    >>> chord_to_partition((0, 3, 8))
    (3, 4, 5)
    """
    return tuple(sorted(chord_to_composition(chord)))


def composition_to_chord(comp: Composition) -> Chord:
    """Rebuild the unique chord whose gap sequence is ``comp``.

    Inverse of :func:`chord_to_composition`; the tones are the prefix sums
    of the parts.

    >>> composition_to_chord((3, 5, 4))
    (0, 3, 8)
    """
    return tuple(accumulate((0, *comp[:-1])))


def enumerate_chords(k: int) -> list[Chord]:
    """All k-tone chords, lexicographically: 0 plus each (k-1)-subset of 1..11."""
    if not 1 <= k <= OCTAVE:
        raise InvalidSizeError(f"chord size must be within 1..12, got {k}")
    return [(0, *rest) for rest in combinations(range(1, OCTAVE), k - 1)]


def enumerate_partitions(k: int) -> list[Partition]:
    """All partitions of 12 into exactly k parts, each ascending, in lexicographic order."""
    if not 1 <= k <= OCTAVE:
        raise InvalidSizeError(f"partition length must be within 1..12, got {k}")
    return list(_partitions_into(OCTAVE, k, 1))


def _partitions_into(total: int, k: int, minimum: int) -> Iterator[Partition]:
    if k == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total // k + 1):
        for rest in _partitions_into(total - first, k - 1, first):
            yield (first, *rest)


def chords_of_partition(partition: Partition) -> list[Chord]:
    """Every chord whose gap multiset is the given partition.

    One chord per distinct ordering of the parts; returned in lexicographic
    order (orderings and their prefix-sum chords sort identically).

    >>> chords_of_partition((3, 3, 3, 3))
    [(0, 3, 6, 9)]
    """
    parts = tuple(sorted(partition))
    return [composition_to_chord(comp) for comp in _distinct_orderings(parts)]


def _distinct_orderings(parts: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Distinct permutations of a sorted multiset, lexicographically."""
    if not parts:
        yield ()
        return
    previous = None
    for i, part in enumerate(parts):
        if part == previous:
            continue
        previous = part
        for rest in _distinct_orderings(parts[:i] + parts[i + 1 :]):
            yield (part, *rest)


def parse_chord(text: str) -> Chord:
    """Parse chord text like ``"0,4,7"`` (parentheses and spaces tolerated).

    Tones are ASCII decimal numbers: the extra forms ``int()`` reads, such
    as ``"+4"``, ``"1_1"`` or non-ASCII digits, are rejected.
    """
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    if not body.strip():
        raise EmptyChordError("empty chord text")
    if not body.isascii() or "_" in body or "+" in body:
        raise InvalidChordError(f"cannot parse chord text {text!r}")
    try:
        tones = [int(token) for token in body.split(",")]
    except ValueError:
        raise InvalidChordError(f"cannot parse chord text {text!r}") from None
    return make_chord(tones)


def format_chord(chord: Chord) -> str:
    """Render a chord in the bare comma form, e.g. ``"0,4,7"``."""
    return ",".join(str(tone) for tone in chord)


def format_parts(parts: Iterable[int]) -> str:
    """Render a partition or composition as a bracketed list, e.g. ``"[3,4,5]"``."""
    return "[" + ",".join(str(p) for p in parts) + "]"
