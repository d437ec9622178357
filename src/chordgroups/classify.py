"""Harmonic chord predicates and the classification tables they induce.

A three-tone chord is *harmonic* when none of its gaps is smaller than 3;
a four-tone chord is harmonic when at most one gap is step-sized (2 or
smaller) and none is wider than a major third.  Every harmonic chord is
some inversion of exactly one family root, which yields complete label
tables: 10 labeled triads across 4 families and 25 labeled four-tone
chords across 7 families.

``ROOT_CHORDS`` holds the 11 family roots; everything else is derived.
``family_row`` is the one inversion walk, and the one label table maps
each chord of every row to its family and position, so reproducing the
published tables is a meaningful check rather than a tautology.

``ChordLabel`` is a ``core.Record``, not a dataclass or a NamedTuple: the
one-shot CLI commands import this module, importing ``dataclasses`` pulls
in ``inspect`` and ``ast``, and a label must never compare equal to a
plain tuple.
"""

from __future__ import annotations

from enum import Enum
from typing import Union

from .core import Chord, Record, WrongArityError, chord_to_partition
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
        self._init(family, inversion, f"{family.value}{inversion}")

    def __str__(self) -> str:
        return self._text


def is_harmonic_triad(chord: Chord) -> bool:
    """True when every gap of the three-tone chord is at least 3."""
    if len(chord) != 3:
        raise WrongArityError(f"harmonic-triad test needs a three-tone chord, got {len(chord)}")
    return min(chord_to_partition(chord)) >= 3


def is_harmonic_seventh(chord: Chord) -> bool:
    """True for harmonic four-tone chords.

    At most one gap may be step-sized (2 or smaller) and no gap may exceed
    a major third (4).  Exactly three gap multisets qualify — (1,3,4,4),
    (2,3,3,4) and (3,3,3,3) — for 25 chords in total.
    """
    if len(chord) != 4:
        raise WrongArityError(f"harmonic-seventh test needs a four-tone chord, got {len(chord)}")
    parts = chord_to_partition(chord)
    return sum(1 for part in parts if part <= 2) <= 1 and max(parts) <= 4


def family_row(family: Family) -> tuple[Chord, ...]:
    """The inversion orbit of the family's root, in inversion order.

    Augmented triads and dd sevenths are inversion-stable, so their row has
    a single entry; every other family fills a full cycle.
    """
    row = [ROOT_CHORDS[family]]
    while (image := invert(row[-1])) != row[0]:
        row.append(image)
    return tuple(row)


_LABELS: dict[Chord, ChordLabel] = {
    chord: ChordLabel(family, n)
    for family in ROOT_CHORDS
    for n, chord in enumerate(family_row(family))
}


def triad_table() -> dict[Chord, ChordLabel]:
    """Chord -> label for all 10 harmonic triads."""
    return {chord: label for chord, label in _LABELS.items() if len(chord) == 3}


def seventh_table() -> dict[Chord, ChordLabel]:
    """Chord -> label for all 25 harmonic four-tone chords."""
    return {chord: label for chord, label in _LABELS.items() if len(chord) == 4}


def classify(chord: Chord) -> ChordLabel | None:
    """Label a harmonic three- or four-tone chord; None when not harmonic.

    Asking about a non-harmonic chord is a legitimate query, so that case
    is a return value, not an error; sizes other than 3 and 4 raise
    WrongArityError.

    >>> str(classify((0, 3, 8)))
    'Major1'
    >>> classify((0, 1, 2, 3)) is None
    True
    """
    if len(chord) not in (3, 4):
        raise WrongArityError(
            f"classification covers three- and four-tone chords, got {len(chord)} tones"
        )
    return _LABELS.get(chord)


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
