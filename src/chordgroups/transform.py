"""The three chord operators and orbit closure under subsets of them.

* inversion ``i``: rebase the chord on its second tone,
  ``(0, a1, ..., a(k-1))`` -> ``(0, a2-a1, ..., a(k-1)-a1, 12-a1)``.
  Has order k on k-tone chords; on the gap sequence it rotates left.
* major-minor duality ``d``: reflect every tone (t -> 12-t) and rebase at 0,
  giving ``(0, 12-a(k-1), ..., 12-a1)``.  An involution; reverses the gaps.
* augmented-diminished duality ``a``: defined on four-tone chords only,
  ``(0, a1, a2, a3)`` -> ``(0, a1, a1+a3-a2, a3)``.  An involution; swaps
  the two middle gaps.

Operator words such as ``"iid"`` are applied left to right (pipeline
order), which is the convention used throughout the CLI.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

from .core import OCTAVE, Chord, WrongArityError


class Operator(Enum):
    """The operator alphabet used in words ("iid") and edge labels."""

    INVERSION = "i"
    DUALITY = "d"
    AUGDIM = "a"


Word = tuple[Operator, ...]


def invert(chord: Chord) -> Chord:
    """Inversion: the second tone becomes the new root.

    A single-tone chord is its own inversion (the formula degenerates).

    >>> invert((0, 4, 7))
    (0, 3, 8)
    """
    if len(chord) < 2:
        return chord
    a1 = chord[1]
    return (0, *[tone - a1 for tone in chord[2:]], OCTAVE - a1)


def dual(chord: Chord) -> Chord:
    """Major-minor duality: reflect every tone about the octave, rebased at 0.

    >>> dual((0, 4, 7))
    (0, 5, 8)
    """
    return (0, *[OCTAVE - tone for tone in reversed(chord[1:])])


def augdim(chord: Chord) -> Chord:
    """Augmented-diminished duality on four-tone chords.

    Replaces the third tone a2 by a1+a3-a2; strict monotonicity is
    preserved because a1 < a2 < a3.  Raises WrongArityError for any other
    chord size — the operator is undefined there and deliberately not
    extended.

    >>> augdim((0, 4, 7, 11))
    (0, 4, 8, 11)
    """
    if len(chord) != 4:
        raise WrongArityError(
            f"augmented-diminished duality needs a four-tone chord, got {len(chord)} tones"
        )
    _, a1, a2, a3 = chord
    return (0, a1, a1 + a3 - a2, a3)


_APPLY = {
    Operator.INVERSION: invert,
    Operator.DUALITY: dual,
    Operator.AUGDIM: augdim,
}


def apply_operator(op: Operator, chord: Chord) -> Chord:
    return _APPLY[op](chord)


def parse_word(text: str) -> Word:
    """Parse an operator word like ``"iid"`` (case-insensitive; empty = identity)."""
    try:
        return tuple(Operator(char) for char in text.lower())
    except ValueError:
        raise ValueError(f"operator word may only contain i, d, a: {text!r}") from None


def parse_generators(text: str) -> Word:
    """Parse a comma list of generators like ``"i,d,a"``, deduplicated."""
    if not text.strip():
        return ()
    try:
        symbols = [Operator(token.strip().lower()) for token in text.split(",")]
    except ValueError:
        raise ValueError(f"generators must be a comma list over i, d, a: {text!r}") from None
    return tuple(dict.fromkeys(symbols))


def apply_word(word: str | Iterable[Operator], chord: Chord) -> Chord:
    """Apply a word of operators left to right; the empty word is the identity.

    >>> apply_word("dd", (0, 4, 7, 10))
    (0, 4, 7, 10)
    """
    if isinstance(word, str):
        word = parse_word(word)
    for op in word:
        chord = apply_operator(op, chord)
    return chord


def orbit(chord: Chord, generators: Iterable[Operator]) -> list[Chord]:
    """Closure of a chord under the generators, as a sorted list.

    Breadth-first; no inverses are needed since every generator has finite
    order.  Raises WrongArityError if AUGDIM is among the generators and
    the chord is not four-tone.

    >>> orbit((0, 4, 7), [Operator.INVERSION])
    [(0, 3, 8), (0, 4, 7), (0, 5, 9)]
    """
    gens = tuple(dict.fromkeys(generators))
    seen = {chord}
    frontier = [chord]
    while frontier:
        next_frontier = []
        for current in frontier:
            for op in gens:
                image = apply_operator(op, current)
                if image not in seen:
                    seen.add(image)
                    next_frontier.append(image)
        frontier = next_frontier
    return sorted(seen)
