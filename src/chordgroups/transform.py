"""The three chord operators and orbit closure under subsets of them.

Each operator permutes the gap positions of a chord; ``gap_permutation``
is the one definition of all three:

* inversion ``i`` rotates the gaps left (the second tone becomes the root).
  Has order k on k-tone chords.
* major-minor duality ``d`` reverses the gaps (t -> 12-t, rebased at 0).
* augmented-diminished duality ``a`` swaps the two middle gaps; defined on
  four-tone chords only.  ``d`` and ``a`` are involutions.

The operators permute a finite set, 2048 chords in all, so each action is
one step in ``core``'s chord store, one dict ``CHORD_ROWS`` that maps each
chord to its row ``[chord, i, d, a, composition, partition, text]`` (the
last three answer ``core``'s converters and ``format_chord``).
``core.chord_row`` finds a chord's row in one probe and raises
InvalidChordError for anything that is not a chord.  An operator's slot
is filled on first use, from ``_permute(chord, gap_permutation(op, k))``,
with the row of the image, looked up in the same store, whose first item
is the store's own tuple for it.  ``invert``, ``dual`` and ``augdim`` are
one probe and one slot read.
``apply_word`` walks the slots letter by letter, left to right (pipeline
order, the convention used throughout the CLI).  ``_walk`` is the one
breadth-first closure over a set of slots: ``orbit`` sorts its chords, and
``classify.family_row`` keeps them in visit order under ``i`` alone.

``orbit`` walks each orbit once.  The sorted members go into ``_ORBITS``
under the key ``(frozenset of generator slots, chord)`` of every member,
as one shared tuple, so a later call from any member with the same
generator set is one lookup, and each call returns a new list.  The memo
holds at most 8852 entries, about 1.6 MB by ``tracemalloc``, and only
once every chord of every size has been asked for under every generator
set it admits.  It serves chord-stream's repeated orbit queries: it cut
that workload's tail latency by 57% (``BENCH_15.json``).  The
chord is validated and the generators parsed before the lookup, and a
walk that raises stores nothing, so every error is as without the memo.
"""

from collections.abc import Iterable, Sequence
from enum import Enum
from functools import cache

from .core import CHORD_ROWS, OCTAVE, Chord, WrongArityError, _missing_row, chord_row


class Operator(Enum):
    """The operator alphabet used in words ("iid") and edge labels."""

    INVERSION = "i"
    DUALITY = "d"
    AUGDIM = "a"

    # Members are singletons that compare by identity, so they can hash by it:
    # Enum's own __hash__ runs in Python, on every dict or cache lookup.
    __hash__ = object.__hash__


Word = tuple[Operator, ...]


@cache
def gap_permutation(op: Operator, k: int) -> tuple[int, ...]:
    """``op`` on k-tone chords: gap j of the image is gap ``perm[j]`` of the chord."""
    if op is Operator.INVERSION:
        return tuple((j + 1) % k for j in range(k))
    if op is Operator.DUALITY:
        return tuple(reversed(range(k)))
    if op is not Operator.AUGDIM:
        raise ValueError(f"not an operator: {op!r}")
    if k != 4:
        raise WrongArityError(
            f"augmented-diminished duality needs a four-tone chord, got {k} tones"
        )
    return (0, 2, 1, 3)


def _permute(chord: Chord, perm: tuple[int, ...]) -> Chord:
    """The chord whose gap j is gap ``perm[j]`` of ``chord``: prefix sums, in one pass."""
    tones = (*chord, OCTAVE)
    image, total = [0], 0
    for p in perm[:-1]:
        total += tones[p + 1] - tones[p]
        image.append(total)
    return tuple(image)


# A chord's row is [chord, i, d, a, composition, partition, text]: slot
# n = 1..3 holds the row of the image under _OPERATORS[n], once filled.
_OPERATORS = (None, Operator.INVERSION, Operator.DUALITY, Operator.AUGDIM)
_SLOT = {op: n for n, op in enumerate(_OPERATORS) if op is not None}
_LETTER_SLOT = {letter: n for op, n in _SLOT.items() for letter in (op.value, op.value.upper())}


def _slot(op: Operator) -> int:
    try:
        return _SLOT[op]
    except (KeyError, TypeError):  # TypeError: an unhashable op
        raise ValueError(f"not an operator: {op!r}") from None


def _fill(row: list, slot: int) -> list:
    """Fill an empty slot with the image's row; WrongArityError for ``a`` unless four tones."""
    chord = row[0]
    k = len(chord)
    image = _permute(chord, gap_permutation(_OPERATORS[slot], k))
    row[slot] = CHORD_ROWS.get(image) or _missing_row(image)
    return row[slot]


def invert(chord: Chord) -> Chord:
    """Inversion: the second tone becomes the new root.

    >>> invert((0, 4, 7))
    (0, 3, 8)
    """
    row = chord_row(chord)
    return (row[1] or _fill(row, 1))[0]


def dual(chord: Chord) -> Chord:
    """Major-minor duality: reflect every tone about the octave, rebased at 0.

    >>> dual((0, 4, 7))
    (0, 5, 8)
    """
    row = chord_row(chord)
    return (row[2] or _fill(row, 2))[0]


def augdim(chord: Chord) -> Chord:
    """Augmented-diminished duality; WrongArityError unless the chord has four tones.

    >>> augdim((0, 4, 7, 11))
    (0, 4, 8, 11)
    """
    row = chord_row(chord)
    return (row[3] or _fill(row, 3))[0]


def parse_generators(text: str) -> Word:
    """Parse a comma list of generators like ``"i,d,a"``, deduplicated."""
    try:
        if not text.strip():
            return ()
        symbols = [_OPERATORS[_LETTER_SLOT[token.strip()]] for token in text.split(",")]
    except (KeyError, AttributeError, TypeError):  # a bad token, or not a str
        raise ValueError(f"generators must be a comma list over i, d, a: {text!r}") from None
    return tuple(dict.fromkeys(symbols))


def apply_word(word: str | Iterable[Operator], chord: Chord) -> Chord:
    """Apply a word of operators left to right; the empty word is the identity.

    >>> apply_word("dd", (0, 4, 7, 10))
    (0, 4, 7, 10)
    """
    try:
        slots = [_LETTER_SLOT[c] for c in word] if isinstance(word, str) else map(_slot, word)
    except KeyError:
        raise ValueError(f"operator word may only contain i, d, a: {word!r}") from None
    except TypeError:  # not iterable
        raise ValueError(f"not an operator word: {word!r}") from None
    row = start = chord_row(chord)
    for slot in slots:
        row = row[slot] or _fill(row, slot)
    return chord if row is start else row[0]  # a word that fixes the chord returns it


def _walk(row: list, slots: Sequence[int]) -> list[Chord]:
    """The chords reached from ``row`` under ``slots``, breadth first, ``row``'s chord first."""
    seen = {row[0]}
    rows = [row]
    for row in rows:  # the loop reaches rows appended while it runs
        for slot in slots:
            image = row[slot] or _fill(row, slot)
            if image[0] not in seen:
                seen.add(image[0])
                rows.append(image)
    return [row[0] for row in rows]


# (frozenset of generator slots, chord) -> the chord's sorted orbit, one
# tuple shared by the keys of all its members; see the module docstring.
_ORBITS: dict[tuple[frozenset[int], Chord], tuple[Chord, ...]] = {}


def orbit(chord: Chord, generators: Iterable[Operator]) -> list[Chord]:
    """Closure of a chord under the generators, as a sorted list.

    Raises WrongArityError if AUGDIM is among the generators and the chord
    is not four-tone.

    >>> orbit((0, 4, 7), [Operator.INVERSION])
    [(0, 3, 8), (0, 4, 7), (0, 5, 9)]
    """
    row = chord_row(chord)
    try:
        slots = [_slot(op) for op in generators]
    except TypeError:  # not iterable; _slot turns every bad item into ValueError
        raise ValueError(f"generators must be a sequence of operators: {generators!r}") from None
    slot_set = frozenset(slots)
    found = _ORBITS.get((slot_set, row[0]))
    if found is None:
        members = tuple(sorted(_walk(row, slots)))
        for member in members:  # stored only once the walk is complete
            _ORBITS[slot_set, member] = members
        found = _ORBITS[slot_set, row[0]]
    return list(found)
