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
from chordgroups.core import chord_to_partition, chords_of_partition, enumerate_chords
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
