"""Harmonic chord predicates and the classification tables they induce.

A three-tone chord is *harmonic* when none of its gaps is smaller than 3;
a four-tone chord is harmonic when at most one gap is step-sized (2 or
smaller) and none is wider than a major third.  Every harmonic chord is
some inversion of exactly one family root, which yields complete label
tables: 10 labeled triads across 4 families and 25 labeled four-tone
chords across 7 families.

``ROOT_CHORDS`` holds the 11 family roots, and its order is the one
statement of family order; everything else is derived.  ``family_row`` is
``transform._walk`` from a root under ``i`` alone, and one label table per
chord size maps each chord of every row to its family and position, so
reproducing the published tables is a meaningful check rather than a
tautology.  ``classify`` validates a chord through ``core.chord_row`` and
looks it up in its size's table.
"""

from enum import Enum

from .core import (
    Chord,
    Record,
    WrongArityError,
    _rejection,
    chord_row,
    chord_to_partition,
)
from .transform import _walk, dual


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


Family = TriadFamily | SeventhFamily

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
    is built once, with the label.  Anything but a family member and an int
    (bools excluded) raises ValueError.
    """

    __slots__ = ("family", "inversion", "_text")
    __match_args__ = ("family", "inversion")

    family: Family
    inversion: int

    def __init__(self, family: Family, inversion: int) -> None:
        if not isinstance(family, Family) or type(inversion) is not int:
            raise ValueError(f"not a chord label: {family!r}, {inversion!r}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "inversion", inversion)
        object.__setattr__(self, "_text", f"{family.value}{inversion}")

    def __str__(self) -> str:
        return self._text


def is_harmonic_triad(chord: Chord) -> bool:
    """True when every gap of the three-tone chord is at least 3."""
    parts = chord_to_partition(chord)  # validates: InvalidChordError before WrongArityError
    if len(parts) != 3:
        raise WrongArityError(f"harmonic-triad test needs a three-tone chord, got {len(parts)}")
    return min(parts) >= 3


def is_harmonic_seventh(chord: Chord) -> bool:
    """True for harmonic four-tone chords.

    At most one gap may be step-sized (2 or smaller) and no gap may exceed
    a major third (4).  Exactly three gap multisets qualify — (1,3,4,4),
    (2,3,3,4) and (3,3,3,3) — for 25 chords in total.
    """
    parts = chord_to_partition(chord)
    if len(parts) != 4:
        raise WrongArityError(f"harmonic-seventh test needs a four-tone chord, got {len(parts)}")
    return sum(1 for part in parts if part <= 2) <= 1 and max(parts) <= 4


def family_row(family: Family) -> tuple[Chord, ...]:
    """The inversion orbit of the family's root, in inversion order, as table tuples.

    Augmented triads and dd sevenths are inversion-stable, so their row has
    a single entry; every other family fills a full cycle.  Anything but a
    ``TriadFamily`` or ``SeventhFamily`` member raises ValueError.
    """
    try:
        root = ROOT_CHORDS[family]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise ValueError(f"not a family: {family!r}") from None
    return tuple(_walk(chord_row(root), (1,)))


# chord size -> chord -> label, over the size's family rows in ROOT_CHORDS order
_LABELS: dict[int, dict[Chord, ChordLabel]] = {
    size: {
        chord: ChordLabel(family, n)
        for family, root in ROOT_CHORDS.items()
        if len(root) == size
        for n, chord in enumerate(family_row(family))
    }
    for size in (3, 4)
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
    labels = _LABELS.get(k)
    if labels is None:
        raise WrongArityError(f"classification covers three- and four-tone chords, got {k} tones")
    return labels.get(chord_row(chord)[0])


def dual_pairing(family: Family) -> tuple[Family, int]:
    """Partner family and shift under major-minor duality.

    Returns (F', s) such that the n-th inversion of ``family`` maps under
    duality to inversion (s - n) mod r of F', where r is the partner's row
    length.  Derived from the tables, not hard-coded: e.g. the MM family is
    self-dual with s = 3, and Major pairs with Minor with s = 2.  Anything
    but a family raises ValueError, as for :func:`family_row`.
    """
    partner = classify(dual(family_row(family)[0]))
    assert partner is not None  # duality preserves the gap multiset
    return partner.family, partner.inversion
