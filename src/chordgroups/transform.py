"""The three chord operators and orbit closure under subsets of them.

Each operator permutes the gap positions of a chord; ``gap_permutation``
is the one definition of all three:

* inversion ``i`` rotates the gaps left (the second tone becomes the root).
  Has order k on k-tone chords.
* major-minor duality ``d`` reverses the gaps (t -> 12-t, rebased at 0).
* augmented-diminished duality ``a`` swaps the two middle gaps; defined on
  four-tone chords only.  ``d`` and ``a`` are involutions.

A permutation acts on a chord in one pass (``_permute``): the image's
tones are the prefix sums of the chord's gaps taken in the permuted order.
``invert``, ``dual`` and ``augdim`` read their permutation from tables
indexed by chord size, built once from ``gap_permutation``.

Operator words such as ``"iid"`` are applied left to right (pipeline
order), which is the convention used throughout the CLI.  A word is one
element of the group that the operators generate on k gaps: ``apply_word``
composes it in that group's multiplication (Cayley) table, one lookup per
letter, and permutes the chord once.  ``orbit`` closes the generators into
that group by breadth-first search over products, then applies each
element once.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from typing import Iterable

from .core import OCTAVE, Chord, WrongArityError


class Operator(Enum):
    """The operator alphabet used in words ("iid") and edge labels."""

    INVERSION = "i"
    DUALITY = "d"
    AUGDIM = "a"

    # Members are singletons that compare by identity, so they can hash by it:
    # Enum's own __hash__ runs in Python, on every dict or cache lookup.
    __hash__ = object.__hash__


Word = tuple[Operator, ...]

_LETTERS = {op.value: op for op in Operator}


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
    """The chord whose gap j is gap ``perm[j]`` of ``chord``."""
    tones = (*chord, OCTAVE)
    image, total = [0], 0
    for p in perm[:-1]:
        total += tones[p + 1] - tones[p]
        image.append(total)
    return tuple(image)


# gap_permutation's i and d on k gaps, indexed by k = 0..12, and a on four,
# so that the single operators find their permutation without hashing an
# Operator.  Larger tuples fall back to gap_permutation itself.
_ROTATE_LEFT = tuple([gap_permutation(Operator.INVERSION, k) for k in range(OCTAVE + 1)])
_REVERSE = tuple([gap_permutation(Operator.DUALITY, k) for k in range(OCTAVE + 1)])
_MIDDLE_SWAP = gap_permutation(Operator.AUGDIM, 4)
# Reading a member off an Enum class costs about as much as hashing it.
_INVERSION, _DUALITY, _AUGDIM = Operator.INVERSION, Operator.DUALITY, Operator.AUGDIM


def apply_operator(op: Operator, chord: Chord) -> Chord:
    """``op`` applied to ``chord``; ValueError if ``op`` is not an Operator."""
    if op is _INVERSION:
        return invert(chord)
    if op is _DUALITY:
        return dual(chord)
    if op is _AUGDIM:
        return augdim(chord)
    return _permute(chord, gap_permutation(op, len(chord)))  # raises: not an operator


def invert(chord: Chord) -> Chord:
    """Inversion: the second tone becomes the new root.

    >>> invert((0, 4, 7))
    (0, 3, 8)
    """
    k = len(chord)
    return _permute(
        chord, _ROTATE_LEFT[k] if k <= OCTAVE else gap_permutation(Operator.INVERSION, k)
    )


def dual(chord: Chord) -> Chord:
    """Major-minor duality: reflect every tone about the octave, rebased at 0.

    >>> dual((0, 4, 7))
    (0, 5, 8)
    """
    k = len(chord)
    return _permute(chord, _REVERSE[k] if k <= OCTAVE else gap_permutation(Operator.DUALITY, k))


def augdim(chord: Chord) -> Chord:
    """Augmented-diminished duality; WrongArityError unless the chord has four tones.

    >>> augdim((0, 4, 7, 11))
    (0, 4, 8, 11)
    """
    k = len(chord)
    return _permute(chord, _MIDDLE_SWAP if k == 4 else gap_permutation(Operator.AUGDIM, k))


def parse_word(text: str) -> Word:
    """Parse an operator word like ``"iid"`` (case-insensitive; empty = identity)."""
    try:
        return tuple([_LETTERS[char] for char in text.lower()])
    except KeyError:
        raise ValueError(f"operator word may only contain i, d, a: {text!r}") from None


def parse_generators(text: str) -> Word:
    """Parse a comma list of generators like ``"i,d,a"``, deduplicated."""
    if not text.strip():
        return ()
    try:
        symbols = [_LETTERS[token.strip().lower()] for token in text.split(",")]
    except KeyError:
        raise ValueError(f"generators must be a comma list over i, d, a: {text!r}") from None
    return tuple(dict.fromkeys(symbols))


def apply_word(word: str | Iterable[Operator], chord: Chord) -> Chord:
    """Apply a word of operators left to right; the empty word is the identity.

    >>> apply_word("dd", (0, 4, 7, 10))
    (0, 4, 7, 10)
    """
    word = parse_word(word) if isinstance(word, str) else tuple(word)
    if not word:
        return chord
    elements, steps = _word_table(len(chord))
    element = 0
    try:
        for op in word:
            element = steps[op][element]
    except KeyError:
        gap_permutation(op, len(chord))  # raises the error for an op outside the table
        raise
    return _permute(chord, elements[element])


@cache
def _word_table(k: int) -> tuple[tuple[tuple[int, ...], ...], dict[Operator, tuple[int, ...]]]:
    """The group that the operators valid on k gaps generate, as a multiplication table.

    ``elements`` lists its gap permutations, the identity first, and
    ``steps[op][n]`` is the index of element n, then ``op``.
    """
    ops = [op for op in Operator if k == 4 or op is not Operator.AUGDIM]
    elements = tuple(sorted(_group(frozenset(ops), k)))  # the identity sorts first
    index = {perm: n for n, perm in enumerate(elements)}
    steps = {}
    for op in ops:
        step = gap_permutation(op, k)
        steps[op] = tuple(index[tuple(perm[j] for j in step)] for perm in elements)
    return elements, steps


@cache
def _group(generators: frozenset[Operator], k: int) -> frozenset[tuple[int, ...]]:
    """The gap permutations of k-tone chords that the generators span."""
    steps = [gap_permutation(op, k) for op in generators]
    group = frontier = frozenset([tuple(range(k))])
    while frontier:
        # each product is a member of the frontier, then a generator
        frontier = {tuple(perm[j] for j in step) for perm in frontier for step in steps} - group
        group |= frontier
    return group


def orbit(chord: Chord, generators: Iterable[Operator]) -> list[Chord]:
    """Closure of a chord under the generators, as a sorted list.

    Its images under the group of gap permutations the generators span.
    Raises WrongArityError if AUGDIM is among the generators and the chord
    is not four-tone.

    >>> orbit((0, 4, 7), [Operator.INVERSION])
    [(0, 3, 8), (0, 4, 7), (0, 5, 9)]
    """
    return sorted({_permute(chord, perm) for perm in _group(frozenset(generators), len(chord))})
