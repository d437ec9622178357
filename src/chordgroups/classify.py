"""Harmonic chord predicates and the classification tables they induce.

A three-tone chord is *harmonic* when none of its gaps is smaller than 3;
a four-tone chord is harmonic when at most one gap is step-sized (2 or
smaller) and none is wider than a major third.  Every harmonic chord is
some inversion of exactly one family root, which yields complete label
tables: 10 labeled triads across 4 families and 25 labeled four-tone
chords across 7 families.

``ROOT_CHORDS`` holds the 11 family roots, and its order is the one
statement of family order; everything else is derived.  ``family_row`` is
the one inversion walk, and one label table per chord size maps each chord
of every row to its family and position, so reproducing the published
tables is a meaningful check rather than a tautology.  Each label is also
written into its chord's row of ``core``'s chord table, so ``classify``
validates a chord and finds its label in one lookup.
"""

from __future__ import annotations

from enum import Enum
from typing import Union

from .core import (
    Chord,
    Record,
    WrongArityError,
    _rejection,
    chord_row,
    chord_to_partition,
)
from .transform import dual, invert


class TriadFamily(Enum):
    MAJOR = "Major"
    MINOR = "Minor"
    DIMINISHED = "Diminished"
    AUGMENTED = "Augmented"


class SeventhFamily(Enum):
    """Two-letter codes: triad quality then seventh quality.

    Uppercase M = major, lowercase m = minor, A = augmented, d = diminished;
    e.g. Mm is a major triad with a minor seventh (the dominant seventh).
    """

    MM = "MM"
    mM = "mM"
    AM = "AM"
    Mm = "Mm"
    dm = "dm"
    mm = "mm"
    dd = "dd"

    # As transform.Operator: identity hashing keeps the graph's per-node family
    # lookups out of Enum's Python-level __hash__.
    __hash__ = object.__hash__


Family = Union[TriadFamily, SeventhFamily]

ROOT_CHORDS: dict[Family, Chord] = {
    TriadFamily.MAJOR: (0, 4, 7),
    TriadFamily.MINOR: (0, 3, 7),
    TriadFamily.DIMINISHED: (0, 3, 6),
    TriadFamily.AUGMENTED: (0, 4, 8),
    SeventhFamily.MM: (0, 4, 7, 11),
    SeventhFamily.mM: (0, 3, 7, 11),
    SeventhFamily.AM: (0, 4, 8, 11),
    SeventhFamily.Mm: (0, 4, 7, 10),
    SeventhFamily.dm: (0, 3, 6, 10),
    SeventhFamily.mm: (0, 3, 7, 10),
    SeventhFamily.dd: (0, 3, 6, 9),
}


class ChordLabel(Record):
    """A family plus an inversion index; 0 is root position.

    The text form concatenates the two, e.g. ``"MM0"`` or ``"Major2"``; it
    is built once, with the label.
    """

    __slots__ = ("family", "inversion", "_text")
    __match_args__ = ("family", "inversion")

    family: Family
    inversion: int

    def __init__(self, family: Family, inversion: int) -> None:
        _label_family(self, family)
        _label_inversion(self, inversion)
        _label_text(self, f"{family.value}{inversion}")

    def __str__(self) -> str:
        return self._text


_label_family, _label_inversion, _label_text = (
    ChordLabel.family.__set__,
    ChordLabel.inversion.__set__,
    ChordLabel._text.__set__,
)


def is_harmonic_triad(chord: Chord) -> bool:
    """True when every gap of the three-tone chord is at least 3."""
    chord = chord_row(chord)[0]
    if len(chord) != 3:
        raise WrongArityError(f"harmonic-triad test needs a three-tone chord, got {len(chord)}")
    return min(chord_to_partition(chord)) >= 3


def is_harmonic_seventh(chord: Chord) -> bool:
    """True for harmonic four-tone chords.

    At most one gap may be step-sized (2 or smaller) and no gap may exceed
    a major third (4).  Exactly three gap multisets qualify — (1,3,4,4),
    (2,3,3,4) and (3,3,3,3) — for 25 chords in total.
    """
    chord = chord_row(chord)[0]
    if len(chord) != 4:
        raise WrongArityError(f"harmonic-seventh test needs a four-tone chord, got {len(chord)}")
    parts = chord_to_partition(chord)
    return sum(1 for part in parts if part <= 2) <= 1 and max(parts) <= 4


def family_row(family: Family) -> tuple[Chord, ...]:
    """The inversion orbit of the family's root, in inversion order, as table tuples.

    Augmented triads and dd sevenths are inversion-stable, so their row has
    a single entry; every other family fills a full cycle.
    """
    row = [chord_row(ROOT_CHORDS[family])[0]]
    while (image := invert(row[-1])) != row[0]:
        row.append(image)
    return tuple(row)


# The label slot of a chord table row [chord, i, d, a, label].
_LABEL = 4


def _label_table(size: int) -> dict[Chord, ChordLabel]:
    """Chord -> label over the size's family rows in ROOT_CHORDS order.

    Each label is also written into its chord's table row, where
    ``classify`` reads it.
    """
    labels = {}
    for family, root in ROOT_CHORDS.items():
        if len(root) == size:
            for n, chord in enumerate(family_row(family)):
                labels[chord] = chord_row(chord)[_LABEL] = ChordLabel(family, n)
    return labels


# chord size -> chord -> label, one table per size of a family root
_LABELS: dict[int, dict[Chord, ChordLabel]] = {
    size: _label_table(size) for size in sorted({len(root) for root in ROOT_CHORDS.values()})
}


def triad_table() -> dict[Chord, ChordLabel]:
    """Chord -> label for all 10 harmonic triads, in family, then inversion order."""
    return dict(_LABELS[3])


def seventh_table() -> dict[Chord, ChordLabel]:
    """Chord -> label for all 25 harmonic four-tone chords, in family, then inversion order."""
    return dict(_LABELS[4])


def classify(chord: Chord) -> ChordLabel | None:
    """Label a harmonic three- or four-tone chord; None when not harmonic.

    Asking about a non-harmonic chord is a legitimate query, so that case
    is a return value, not an error; sizes other than 3 and 4 raise
    WrongArityError.  Any other value that is not a chord raises
    InvalidChordError: a list, a value with no length, a tuple that is not
    a chord, or one equal to a chord whose tones are not all ints, such as
    ``(0, 4, 7.0)``.

    >>> str(classify((0, 3, 8)))
    'Major1'
    >>> classify((0, 1, 2, 3)) is None
    True
    """
    try:
        k = len(chord)
    except TypeError:
        raise _rejection(chord) from None
    if k not in _LABELS:
        raise WrongArityError(f"classification covers three- and four-tone chords, got {k} tones")
    return chord_row(chord)[_LABEL]


def dual_pairing(family: Family) -> tuple[Family, int]:
    """Partner family and shift under major-minor duality.

    Returns (F', s) such that the n-th inversion of ``family`` maps under
    duality to inversion (s - n) mod r of F', where r is the partner's row
    length.  Derived from the tables, not hard-coded: e.g. the MM family is
    self-dual with s = 3, and Major pairs with Minor with s = 2.
    """
    partner = classify(dual(ROOT_CHORDS[family]))
    assert partner is not None  # duality preserves the gap multiset
    return partner.family, partner.inversion
