"""Planted defects: the verify checks must fail, naming what broke.

Each mutant operator is wrong only at a target chord X (and, for the
mutant that keeps d an involution, at d(X)).  ``relations(k)`` applies the
operators to each swept chord alone, so the first failure it reports is
at X itself.  X is the last chord that is the lexicographically smallest
of its orbit under i, d (and a on tetrads), so the sweep has to get deep
into the chords to reach it; the last chord of the size is planted as
well.  A broken tetrad operator is reported under ``relations(k=4)`` only:
``composition-action`` checks just that each tetrad's images keep its
partition, so its mutants sit at the last tetrad: an image with another
partition fails it, one with the same partition is left to
``relations(k=4)``.  The other mutants replace one value of a function
``verify`` imports and pin the exact detail of the check that uses it.
"""

from __future__ import annotations

import pytest

from chordgroups import verify
from chordgroups.classify import ChordLabel, SeventhFamily, TriadFamily
from chordgroups.core import (
    chord_to_partition,
    chords_of_partition,
    enumerate_chords,
    enumerate_partitions,
)
from chordgroups.graph import ChordGraph, Operator, build_chord_graph
from chordgroups.transform import augdim, dual, invert, orbit

CHECKS = dict(verify.CHECKS)
OPERATORS = {"invert": invert, "dual": dual, "augdim": augdim}


def _last_orbit_minimum(k: int, admissible=lambda chord: True) -> tuple[int, ...]:
    generators = [Operator.INVERSION, Operator.DUALITY]
    if k == 4:
        generators.append(Operator.AUGDIM)
    return max(
        c for c in enumerate_chords(k) if min(orbit(c, generators)) == c and admissible(c)
    )


def _plant(monkeypatch, name: str, overrides: dict) -> None:
    """Replace verify's operator ``name`` by one that reads ``overrides`` first."""
    real = OPERATORS[name]

    def mutant(chord):
        return overrides[chord] if chord in overrides else real(chord)

    mutant.__name__ = name
    monkeypatch.setattr(verify, name, mutant)


def _plant_wrong_image(monkeypatch, name: str, target: tuple[int, ...]) -> None:
    real = OPERATORS[name]
    wrong = next(c for c in enumerate_chords(len(target)) if c not in (target, real(target)))
    _plant(monkeypatch, name, {target: wrong})


def _plant_value(monkeypatch, name: str, argument, value) -> None:
    """Replace verify's ``name`` by one that returns ``value`` at ``argument`` only."""
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda x: value if x == argument else real(x))


@pytest.mark.parametrize(
    "name, argument, value, detail",
    [
        ("chord_to_composition", (0, 4, 7), (4, 3, 6), "gaps of (0, 4, 7) sum to 13"),
        ("composition_to_chord", (4, 3, 5), (0, 4, 8), "round trip broke at (0, 4, 7)"),
    ],
    ids=["gaps-sum-to-13", "round-trip-breaks"],
)
def test_core_roundtrip_names_the_chord(monkeypatch, name, argument, value, detail):
    _plant_value(monkeypatch, name, argument, value)
    assert CHECKS["core-roundtrip"]() == (False, detail)


def test_partition_fibers_name_a_leaking_fiber(monkeypatch):
    fiber = verify.chords_of_partition((3, 4, 5))
    _plant_value(monkeypatch, "chords_of_partition", (3, 4, 5), [*fiber, (0, 1, 2)])
    assert CHECKS["partition-fibers"]() == (False, "fiber of (3, 4, 5) leaks")


# a chord missing and a chord counted twice: the fibers must cover each chord once
@pytest.mark.parametrize(
    "change", [lambda fiber: fiber[:-1], lambda fiber: [fiber[0], *fiber]], ids=["gap", "overlap"]
)
def test_partition_fibers_must_tile_the_chords(monkeypatch, change):
    fiber = verify.chords_of_partition((3, 4, 5))
    _plant_value(monkeypatch, "chords_of_partition", (3, 4, 5), change(fiber))
    assert CHECKS["partition-fibers"]() == (False, "fibers do not tile the k=3 chords")


@pytest.mark.parametrize(
    "name, k",
    [(name, k) for name in ("invert", "dual") for k in range(2, 7)] + [("augdim", 4)],
)
def test_relations_fail_at_the_planted_chord(monkeypatch, name, k):
    # the last chord too: the gap law must sweep every chord to the end
    for target in (_last_orbit_minimum(k), enumerate_chords(k)[-1]):
        _plant_wrong_image(monkeypatch, name, target)
        passed, detail = CHECKS[f"relations(k={k})"]()
        assert not passed
        assert f"at {target}" in detail


@pytest.mark.parametrize("k", range(3, 7))
def test_relations_catch_a_dual_that_is_still_an_involution(monkeypatch, k):
    # d fixes X and d(X) instead of swapping them, so it is still an
    # involution; the gap law fails at X, the first of the two swept.  X is
    # chosen as for the old chord-level dihedral identity, which needed d to
    # move X and X to have more than two inversions (none exists for k = 2).
    def admissible(chord):
        return dual(chord) != chord and len(orbit(chord, [Operator.INVERSION])) > 2

    target = _last_orbit_minimum(k, admissible)
    _plant(monkeypatch, "dual", {target: target, dual(target): dual(target)})
    assert CHECKS[f"relations(k={k})"]() == (False, f"duality is not reverse at {target}")


def _on_inversion_orbit(chord, image):
    return {c: image(c) for c in orbit(chord, [Operator.INVERSION])}


def _reordered_inversion(chord, order):
    """An i that visits chord's inversions i^n(chord) in the given order of n."""
    powers = [chord]
    for _ in order[1:]:
        powers.append(invert(powers[-1]))
    return {powers[a]: powers[b] for a, b in zip(order, order[1:] + order[:1])}


# Each mutant is wrong on one inversion orbit yet keeps the order law, both
# involutions and the dihedral identity there, so only the gap laws that
# relations(k) checks once per orbit can catch it.
@pytest.mark.parametrize(
    "name, overrides, law, target",
    [
        ("dual", _on_inversion_orbit((0, 5), lambda c: c), "duality is not reverse", (0, 5)),
        (
            "dual",
            _on_inversion_orbit((0, 1, 2), lambda c: invert(dual(c))),
            "duality is not reverse",
            (0, 1, 2),
        ),
        (
            "dual",
            _on_inversion_orbit((0, 1, 4, 5, 8, 9), lambda c: c),
            "duality is not reverse",
            (0, 1, 4, 5, 8, 9),
        ),
        (
            "invert",
            _on_inversion_orbit((0, 1, 2), lambda c: invert(invert(c))),
            "inversion is not rotate-left",
            (0, 1, 2),
        ),
        (
            "invert",
            _reordered_inversion((0, 1, 2, 3, 4), [0, 1, 3, 4, 2]),
            "inversion is not rotate-left",
            (0, 1, 2, 3, 11),
        ),
    ],
    ids=[
        "dyad-d-fixes",
        "triad-d-is-i-after-d",
        "hexad-d-fixes",
        "triad-i-is-i-squared",
        "pentad-i-reorders-the-orbit",
    ],
)
def test_relations_catch_an_operator_that_keeps_the_dihedral_laws(
    monkeypatch, name, overrides, law, target
):
    _plant(monkeypatch, name, overrides)
    assert CHECKS[f"relations(k={len(target)})"]() == (False, f"{law} at {target}")


# A gap-permutation table that breaks one relation while the operators stay
# right: only the permutation-level laws of relations(k) can catch it.
@pytest.mark.parametrize(
    "op, k, perm, detail",
    [
        (Operator.INVERSION, 3, (1, 0, 2), "inversion order broke on 3 gaps"),
        (Operator.DUALITY, 3, (1, 2, 0), "duality involution broke on 3 gaps"),
        (Operator.AUGDIM, 4, (1, 2, 3, 0), "augdim involution broke on 4 gaps"),
        (Operator.DUALITY, 4, (0, 1, 2, 3), "dihedral identity broke on 4 gaps, n=1"),
    ],
    ids=["i-of-order-two", "d-a-three-cycle", "a-a-four-cycle", "d-the-identity"],
)
def test_relations_check_the_gap_permutations(monkeypatch, op, k, perm, detail):
    real = verify.gap_permutation

    def mutant(o, n):
        return perm if (o, n) == (op, k) else real(o, n)

    monkeypatch.setattr(verify, "gap_permutation", mutant)
    assert CHECKS[f"relations(k={k})"]() == (False, detail)


@pytest.mark.parametrize("name", ["invert", "dual", "augdim"])
def test_a_wrong_image_in_the_same_fiber_is_left_to_relations(monkeypatch, name):
    # the gap law is checked once, under relations(k=4); the image keeps the partition
    target = enumerate_chords(4)[-1]
    real = OPERATORS[name]
    wrong = next(c for c in chords_of_partition(chord_to_partition(target)) if c != real(target))
    _plant(monkeypatch, name, {target: wrong})
    assert CHECKS["composition-action"]() == (True, "")
    passed, detail = CHECKS["relations(k=4)"]()
    assert not passed
    assert detail.endswith(f"at {target}")


@pytest.mark.parametrize("name", ["invert", "dual", "augdim"])
def test_composition_action_compares_the_partition_of_the_image(monkeypatch, name):
    # the planted image (0, 4, 7, 11) has gaps 1,3,4,4, the target 1,1,1,9
    target = enumerate_chords(4)[-1]
    _plant(monkeypatch, name, {target: (0, 4, 7, 11)})
    assert CHECKS["composition-action"]() == (
        False,
        f"{name} changed the partition of {target}",
    )


@pytest.mark.parametrize(
    "op, kind",
    [(Operator.INVERSION, "outgoing i"), (Operator.DUALITY, "d"), (Operator.AUGDIM, "a")],
)
def test_degree_regularity_fails_on_a_duplicated_edge(monkeypatch, op, kind):
    graph = build_chord_graph(include_dd=True)
    edge = next(e for e in graph.edges if e.op is op and e.source != e.target)
    doubled = ChordGraph(graph.nodes, (*graph.edges, edge))
    monkeypatch.setattr(verify, "build_chord_graph", lambda include_dd: doubled)
    passed, detail = CHECKS["degree-regularity"]()
    assert not passed
    assert detail in {f"{edge.source} has 2 {kind}-edges", f"{edge.target} has 2 {kind}-edges"}


def test_isomorphism_names_the_wrong_image(monkeypatch):
    real = verify.component_isomorphism

    def swapped(graph):
        return {**real(graph), "MM0": "mM0"}

    monkeypatch.setattr(verify, "component_isomorphism", swapped)
    assert CHECKS["isomorphism"]() == (False, "map sends MM0 to mM0, include_dd=False")


def test_table_names_a_mislabelled_row_chord(monkeypatch):
    real = verify.classify

    def mislabel(chord):
        return real((0, 4, 7) if chord == (0, 3, 8) else chord)

    monkeypatch.setattr(verify, "classify", mislabel)
    assert CHECKS["table-1"]() == (False, "(0, 3, 8) is labelled Major0")


@pytest.mark.parametrize(
    "name, detail",
    [
        ("augdim", "a-fixed points are ['AM3', 'MM0', 'Mm0', 'dm3', 'mM0']"),
        ("dual", "duality fixes [(0, 4, 7, 11)]"),
    ],
)
def test_fixed_points_name_a_planted_fixed_chord(monkeypatch, name, detail):
    _plant(monkeypatch, name, {(0, 4, 7, 11): (0, 4, 7, 11)})
    assert CHECKS["a-fixed-points"]() == (False, detail)


def test_isomorphism_counts_the_pairs_of_the_map(monkeypatch):
    real = verify.component_isomorphism

    def short(graph):
        mapping = real(graph)
        del mapping["MM0"]
        return mapping

    monkeypatch.setattr(verify, "component_isomorphism", short)
    assert CHECKS["isomorphism"]() == (False, "map has 11 pairs, include_dd=False")


def _plant_values(monkeypatch, name: str, overrides: dict) -> None:
    """Replace verify's ``name`` by one that returns ``overrides[x]`` at each x it holds."""
    for argument, value in overrides.items():
        _plant_value(monkeypatch, name, argument, value)


def _plant_entry(monkeypatch, name: str, key, value) -> None:
    """Replace verify's table function ``name`` by one whose table maps ``key`` to ``value``."""
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda: {**real(), key: value})


def _failures() -> dict[str, str]:
    """Each failing check's detail by name; every check not named passed."""
    return {name: detail for name, passed, detail in verify.run_checks() if not passed}


# One fault per failure line of triads and sevenths.  A fault in a name that
# other checks use fails them too, with their own details; no other check fails.
@pytest.mark.parametrize(
    "plant, failures",
    [
        pytest.param(
            lambda mp: _plant_value(
                mp,
                "enumerate_partitions",
                3,
                [p for p in enumerate_partitions(3) if p != (4, 4, 4)],
            ),
            {
                "partition-fibers": "fibers do not tile the k=3 chords",
                "triads": "triad partitions are [(3, 3, 6), (3, 4, 5)]",
            },
            id="triads-lose-a-heavy-partition",
        ),
        pytest.param(
            lambda mp: _plant_value(mp, "is_harmonic_triad", (0, 1, 2), True),
            {"triads": "11 harmonic triads, table has 10"},
            id="triads-gain-a-harmonic-chord",
        ),
        pytest.param(
            lambda mp: _plant_values(mp, "is_harmonic_triad", {(0, 1, 2): True, (0, 4, 7): False}),
            {"triads": "10 harmonic triads, table has 10"},
            id="triads-swap-a-harmonic-chord",
        ),
        pytest.param(
            lambda mp: _plant_entry(mp, "triad_table", (0, 3, 8), ChordLabel(TriadFamily.MAJOR, 0)),
            {"triads": "triad labels are not distinct"},
            id="triads-repeat-a-label",
        ),
        pytest.param(
            lambda mp: _plant_value(mp, "is_harmonic_seventh", (0, 1, 2, 3), True),
            {"sevenths": "26 harmonic sevenths, table has 25"},
            id="sevenths-gain-a-harmonic-chord",
        ),
        pytest.param(
            lambda mp: _plant_values(
                mp, "is_harmonic_seventh", {(0, 1, 2, 3): True, (0, 4, 7, 11): False}
            ),
            {"sevenths": "25 harmonic sevenths, table has 25"},
            id="sevenths-swap-a-harmonic-chord",
        ),
        pytest.param(
            lambda mp: _plant_value(mp, "chord_to_partition", (0, 4, 7, 11), (2, 3, 3, 4)),
            {
                "partition-fibers": "fiber of (1, 3, 4, 4) leaks",
                "composition-action": "invert changed the partition of (0, 1, 5, 8)",
                "sevenths": "partition multiset is "
                "{(1, 3, 4, 4): 11, (2, 3, 3, 4): 13, (3, 3, 3, 3): 1}",
            },
            id="sevenths-move-a-chord-to-another-partition",
        ),
        pytest.param(
            lambda mp: _plant_entry(
                mp, "seventh_table", (0, 3, 7, 8), ChordLabel(SeventhFamily.MM, 0)
            ),
            {"sevenths": "seventh labels are not distinct"},
            id="sevenths-repeat-a-label",
        ),
    ],
)
def test_triads_and_sevenths_name_what_broke(monkeypatch, plant, failures):
    plant(monkeypatch)
    assert _failures() == failures


def _plant_call(monkeypatch, name: str, change) -> None:
    """Replace verify's ``name`` by one that passes the real result through ``change``."""
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args: change(real(*args)))


# One fault per failure line of chord-counts, permutation-closure, table-1's
# row branch, spot-checks and dual-pairing.  An operator fault is seen by
# relations(k) as well, and a short table of 5-tone chords by partition-fibers;
# no other check fails.
@pytest.mark.parametrize(
    "plant, failures",
    [
        pytest.param(
            lambda mp: _plant_value(mp, "enumerate_chords", 5, enumerate_chords(5)[:-1]),
            {
                "chord-counts": "k=5: 329 != 330",
                "partition-fibers": "fibers do not tile the k=5 chords",
            },
            id="chord-counts-lose-a-chord",
        ),
        pytest.param(
            lambda mp: _plant_call(mp, "orbit", lambda members: members[:-1]),
            {"permutation-closure": "closure has 23 elements"},
            id="permutation-closure-loses-a-member",
        ),
        pytest.param(
            lambda mp: _plant_value(
                mp, "family_row", TriadFamily.MAJOR, ((0, 4, 7), (0, 5, 9), (0, 3, 8))
            ),
            {
                "table-1": "Major row is ((0, 4, 7), (0, 5, 9), (0, 3, 8))",
                "dual-pairing": "dual of Major1 is Minor0",
            },
            id="table-1-reorders-a-row",
        ),
        pytest.param(
            lambda mp: _plant(mp, "invert", {(0, 4, 7): (0, 4, 7)}),
            {
                "relations(k=3)": "inversion is not rotate-left at (0, 4, 7)",
                "spot-checks": "(0, 4, 7) != (0, 3, 8)",
            },
            id="spot-checks-catch-a-fixed-major-triad",
        ),
        pytest.param(
            lambda mp: _plant_value(mp, "dual_pairing", SeventhFamily.MM, (SeventhFamily.MM, 1)),
            {"dual-pairing": "MM pairs as (<SeventhFamily.MM: 'MM'>, 1)"},
            id="dual-pairing-shifts-a-family",
        ),
        # MM1's dual is MM2; the planted images mM0 and MM0 keep MM1's
        # partition, so composition-action passes
        pytest.param(
            lambda mp: _plant(mp, "dual", {(0, 3, 7, 8): (0, 3, 7, 11)}),
            {
                "relations(k=4)": "duality is not reverse at (0, 3, 7, 8)",
                "dual-pairing": "dual of MM1 left the partner family",
            },
            id="dual-pairing-leaves-the-family",
        ),
        pytest.param(
            lambda mp: _plant(mp, "dual", {(0, 3, 7, 8): (0, 4, 7, 11)}),
            {
                "relations(k=4)": "duality is not reverse at (0, 3, 7, 8)",
                "dual-pairing": "dual of MM1 is MM0",
            },
            id="dual-pairing-moves-the-inversion",
        ),
    ],
)
def test_the_other_failure_lines_name_what_broke(monkeypatch, plant, failures):
    plant(monkeypatch)
    assert _failures() == failures
