"""Orbit census: the operator groups' orbits against published counts.

The ``<i>``-orbits of k-tone chords are the transposition classes of k-note
pitch-class sets, counted by Burnside's lemma as necklaces; the ``<i,d>``-
orbits are Forte's set classes (Forte, *The Structure of Atonal Music*,
1973).  Neither count comes from the library.  The orbit-stabilizer checks
close the generators' gap permutations into a group here (``_group``), so
they share no code with ``orbit``, which walks the library's chord store.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb, gcd

from chordgroups.core import enumerate_chords
from chordgroups.transform import Operator, gap_permutation, orbit

from oracle import gaps

I, D, A = Operator.INVERSION, Operator.DUALITY, Operator.AUGDIM
SIZES = range(1, 13)

# Set classes of k-note pitch-class sets, k = 1..12 (Forte's list; the
# 12 trichords, 29 tetrachords, 38 pentachords and 50 hexachords mirror
# for k = 7..9).
FORTE_SET_CLASSES = [1, 6, 12, 29, 38, 50, 38, 29, 12, 6, 1, 1]


def _group(generators, k):
    """The gap permutations of k-tone chords that the generators span."""
    steps = [gap_permutation(op, k) for op in generators]
    group = frontier = frozenset([tuple(range(k))])
    while frontier:
        # each product is a member of the frontier, then a generator
        frontier = {tuple(perm[j] for j in step) for perm in frontier for step in steps} - group
        group |= frontier
    return group


def _necklaces(k):
    """k-subsets of 12 beads up to rotation (Burnside's lemma).

    (1/12) * the sum over d dividing gcd(12, k) of phi(d) * C(12/d, k/d).
    """
    def phi(n):
        return sum(1 for m in range(1, n + 1) if gcd(m, n) == 1)

    d_values = [d for d in range(1, 13) if 12 % d == 0 and k % d == 0]
    total = sum(phi(d) * comb(12 // d, k // d) for d in d_values)
    assert total % 12 == 0
    return total // 12


def _orbits(k, generators):
    return {tuple(orbit(chord, generators)) for chord in enumerate_chords(k)}


def _generator_sets():
    subsets = chain.from_iterable(combinations((I, D, A), n) for n in range(4))
    for generators in subsets:
        for k in [4] if A in generators else SIZES:
            yield generators, k


def test_inversion_orbits_are_the_necklaces():
    counts = [len(_orbits(k, [I])) for k in SIZES]
    assert counts == [_necklaces(k) for k in SIZES]
    assert counts == [1, 6, 19, 43, 66, 80, 66, 43, 19, 6, 1, 1]


def test_inversion_duality_orbits_are_the_set_classes():
    assert [len(_orbits(k, [I, D])) for k in SIZES] == FORTE_SET_CLASSES


def test_group_orders():
    # the operators' group: dihedral of order 2k, and all 24 orderings of four gaps
    for k in SIZES:
        assert len(_group(frozenset([I, D]), k)) == (2 * k if k >= 3 else k)
    assert len(_group(frozenset([I, D, A]), 4)) == 24


def test_orbit_stabilizer_and_orbits_tile_the_chords():
    for generators, k in _generator_sets():
        group = _group(frozenset(generators), k)
        chords = enumerate_chords(k)
        for chord in chords:
            chord_gaps = gaps(chord)
            stabilizer = [
                perm
                for perm in group
                if all(chord_gaps[p] == g for p, g in zip(perm, chord_gaps))
            ]
            assert len(orbit(chord, generators)) * len(stabilizer) == len(group), chord
        members = [chord for members in _orbits(k, generators) for chord in members]
        assert sorted(members) == chords, (generators, k)
