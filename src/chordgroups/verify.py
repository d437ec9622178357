"""Self-checks behind the ``verify`` CLI command.

Each check re-derives one documented invariant group from scratch and
compares against frozen reference data, yielding one PASS/FAIL line.  The
reference tables here are intentionally written out by hand: the library
computes its tables from the family roots, so agreement is evidence, not
circularity.

``relations(k)`` for k = 2..6 checks on every k-tone chord that the gaps of
its image under i are its gaps rotated left, under d its gaps reversed and,
for k = 4, under a its gaps with the middle two swapped (``_gap_law``), so
a broken tetrad operator is reported under ``relations(k=4)``.  The law
compares gap tuples and builds no chord.  It then checks the relations on
``gap_permutation``'s k-gap permutations: i^k = 1, d and (k = 4) a are
involutions, and d∘i^n = i^((k-n) mod k)∘d for n = 0..k.
``composition-action`` checks only that each tetrad's images under i, d and
a keep its partition.  ``permutation-closure`` checks that the operators
reach all 24 orderings of the distinct gaps 1, 2, 4, 5 of (0, 1, 3, 7), one
chord in its orbit per ordering.  ``degree-regularity``, ``components`` and
``isomorphism`` read the two shared graphs, whose components and
isomorphism each process derives once, on the first verdict.  After a
process's first verdict, ``chord_to_composition`` and
``chord_to_partition``, like the operators, answer from chord-row slots,
and ``chords_of_partition`` from its fiber memo.  ``composition_to_chord``
computes on every call, and only ``core-roundtrip`` calls it, so that check
compares the composition slots with fresh prefix sums.  A converter fault
that commutes with the gap permutations, such as one that swaps two gap
values wherever a chord has as many of the one as of the other, keeps every
gap law and is reported by ``core-roundtrip``.  Each fiber is built once
from orderings of the parts, reading no slot, so ``partition-fibers``
checks the partition slots against chords built independently of them.
"""

from collections import Counter
from collections.abc import Callable
from math import comb

from .classify import (
    ROOT_CHORDS,
    ChordLabel,
    SeventhFamily,
    TriadFamily,
    classify,
    dual_pairing,
    family_row,
    is_harmonic_seventh,
    is_harmonic_triad,
    seventh_table,
    triad_table,
)
from .core import (
    chord_to_composition,
    chord_to_partition,
    chords_of_partition,
    composition_to_chord,
    enumerate_chords,
    enumerate_partitions,
)
from .graph import build_chord_graph, component_isomorphism, connected_components
from .transform import Operator, augdim, dual, gap_permutation, invert, orbit

CheckResult = tuple[bool, str]

# Reference classification rows (root position first, then successive
# inversions), used to cross-check the computed tables.
SEVENTH_ROWS: dict[SeventhFamily, tuple] = {
    SeventhFamily.MM: ((0, 4, 7, 11), (0, 3, 7, 8), (0, 4, 5, 9), (0, 1, 5, 8)),
    SeventhFamily.mM: ((0, 3, 7, 11), (0, 4, 8, 9), (0, 4, 5, 8), (0, 1, 4, 8)),
    SeventhFamily.AM: ((0, 4, 8, 11), (0, 4, 7, 8), (0, 3, 4, 8), (0, 1, 5, 9)),
    SeventhFamily.Mm: ((0, 4, 7, 10), (0, 3, 6, 8), (0, 3, 5, 9), (0, 2, 6, 9)),
    SeventhFamily.dm: ((0, 3, 6, 10), (0, 3, 7, 9), (0, 4, 6, 9), (0, 2, 5, 8)),
    SeventhFamily.mm: ((0, 3, 7, 10), (0, 4, 7, 9), (0, 3, 5, 8), (0, 2, 5, 9)),
    SeventhFamily.dd: ((0, 3, 6, 9),),
}

TRIAD_ROWS: dict[TriadFamily, tuple] = {
    TriadFamily.MAJOR: ((0, 4, 7), (0, 3, 8), (0, 5, 9)),
    TriadFamily.MINOR: ((0, 3, 7), (0, 4, 9), (0, 5, 8)),
    TriadFamily.DIMINISHED: ((0, 3, 6), (0, 3, 9), (0, 6, 9)),
    TriadFamily.AUGMENTED: ((0, 4, 8),),
}


def _check_roundtrip() -> CheckResult:
    for k in range(1, 7):
        for chord in enumerate_chords(k):
            gaps = chord_to_composition(chord)
            if sum(gaps) != 12:
                return False, f"gaps of {chord} sum to {sum(gaps)}"
            if composition_to_chord(gaps) != chord:
                return False, f"round trip broke at {chord}"
    return True, ""


def _check_chord_counts() -> CheckResult:
    for k in range(1, 13):
        expected = comb(11, k - 1)
        actual = len(enumerate_chords(k))
        if actual != expected:
            return False, f"k={k}: {actual} != {expected}"
    return True, ""


def _check_partition_fibers() -> CheckResult:
    for k in range(1, 7):
        covered: list = []
        for partition in enumerate_partitions(k):
            fiber = chords_of_partition(partition)
            if any(chord_to_partition(c) != partition for c in fiber):
                return False, f"fiber of {partition} leaks"
            covered.extend(fiber)
        chords = enumerate_chords(k)
        # n items that cover all n chords hold each chord exactly once
        if len(covered) != len(chords) or not set(covered).issuperset(chords):
            return False, f"fibers do not tile the k={k} chords"
    return True, ""


def _gap_law(k: int) -> str:
    """The first law of i, d and (k = 4) a that a k-tone chord breaks, or "".

    Each law compares two gap tuples: the image's gaps, read from its
    tones, with the chord's gaps, permuted.  The image comes from the
    operator's own prefix sums, so the two sides are computed apart.  At
    each chord every image is taken before any law is tested, and the
    laws are tested in the order i, d, a.
    """
    for chord in enumerate_chords(k):
        i, d = invert(chord), dual(chord)
        a = augdim(chord) if k == 4 else None
        g = chord_to_composition(chord)
        if chord_to_composition(i) != g[1:] + g[:1]:
            return f"inversion is not rotate-left at {chord}"
        if chord_to_composition(d) != g[::-1]:
            return f"duality is not reverse at {chord}"
        if k == 4 and chord_to_composition(a) != (g[0], g[2], g[1], g[3]):
            return f"augdim is not the middle swap at {chord}"
    return ""


def _then(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[j] for j in q)  # gap permutation p, then q


def _relations_check(k: int) -> Callable[[], CheckResult]:
    def check() -> CheckResult:
        if failure := _gap_law(k):
            return False, failure
        i, d = (gap_permutation(op, k) for op in (Operator.INVERSION, Operator.DUALITY))
        powers = [tuple(range(k))]  # powers[n] = i^n; powers[0] is the identity
        for _ in range(k):
            powers.append(_then(powers[-1], i))
        if powers[k] != powers[0]:
            return False, f"inversion order broke on {k} gaps"
        for op in (Operator.DUALITY, Operator.AUGDIM) if k == 4 else (Operator.DUALITY,):
            if _then(gap_permutation(op, k), gap_permutation(op, k)) != powers[0]:
                return False, f"{op.name.lower()} involution broke on {k} gaps"
        for n, power in enumerate(powers):
            # dual after n inversions == (k-n) inversions after dual
            if _then(power, d) != _then(d, powers[(k - n) % k]):
                return False, f"dihedral identity broke on {k} gaps, n={n}"
        return True, ""

    return check


def _check_composition_action() -> CheckResult:
    for chord in enumerate_chords(4):
        images = invert(chord), dual(chord), augdim(chord)
        partition = chord_to_partition(chord)
        for op, image in zip((invert, dual, augdim), images):
            if chord_to_partition(image) != partition:
                return False, f"{op.__name__} changed the partition of {chord}"
    return True, ""


def _check_permutation_closure() -> CheckResult:
    size = len(orbit((0, 1, 3, 7), Operator))
    if size != 24:
        return False, f"closure has {size} elements"
    return True, ""


def _check_triads() -> CheckResult:
    heavy = {p for p in enumerate_partitions(3) if min(p) >= 3}
    if heavy != {(3, 3, 6), (3, 4, 5), (4, 4, 4)}:
        return False, f"triad partitions are {sorted(heavy)}"
    harmonic = [c for c in enumerate_chords(3) if is_harmonic_triad(c)]
    table = triad_table()
    if len(harmonic) != 10 or set(harmonic) != set(table):
        return False, f"{len(harmonic)} harmonic triads, table has {len(table)}"
    if len({str(label) for label in table.values()}) != 10:
        return False, "triad labels are not distinct"
    return True, ""


def _check_sevenths() -> CheckResult:
    harmonic = [c for c in enumerate_chords(4) if is_harmonic_seventh(c)]
    table = seventh_table()
    if len(harmonic) != 25 or set(harmonic) != set(table):
        return False, f"{len(harmonic)} harmonic sevenths, table has {len(table)}"
    partitions = Counter(chord_to_partition(c) for c in harmonic)
    if partitions != {(1, 3, 4, 4): 12, (2, 3, 3, 4): 12, (3, 3, 3, 3): 1}:
        return False, f"partition multiset is {dict(partitions)}"
    if len({str(label) for label in table.values()}) != 25:
        return False, "seventh labels are not distinct"
    return True, ""


def _check_table() -> CheckResult:
    for family, expected in {**TRIAD_ROWS, **SEVENTH_ROWS}.items():
        if family_row(family) != expected:
            return False, f"{family.value} row is {family_row(family)}"
        for n, chord in enumerate(expected):
            if classify(chord) != ChordLabel(family, n):
                return False, f"{chord} is labelled {classify(chord)}"
    return True, ""


def _check_spot_values() -> CheckResult:
    cases = [
        (invert((0, 4, 7)), (0, 3, 8)),
        (dual((0, 4, 7)), (0, 5, 8)),
        (dual((0, 3, 6)), (0, 6, 9)),
        (invert((0, 4, 8)), (0, 4, 8)),
        (dual((0, 4, 8)), (0, 4, 8)),
        (augdim((0, 4, 7, 11)), (0, 4, 8, 11)),
        (augdim((0, 3, 6, 10)), (0, 3, 7, 10)),
    ]
    for actual, expected in cases:
        if actual != expected:
            return False, f"{actual} != {expected}"
    return True, ""


def _check_dual_pairing() -> CheckResult:
    expected_pairs = {
        SeventhFamily.MM: (SeventhFamily.MM, 3),
        SeventhFamily.mM: (SeventhFamily.AM, 3),
        SeventhFamily.AM: (SeventhFamily.mM, 3),
        SeventhFamily.Mm: (SeventhFamily.dm, 3),
        SeventhFamily.dm: (SeventhFamily.Mm, 3),
        SeventhFamily.mm: (SeventhFamily.mm, 3),
        SeventhFamily.dd: (SeventhFamily.dd, 0),
        TriadFamily.MAJOR: (TriadFamily.MINOR, 2),
        TriadFamily.MINOR: (TriadFamily.MAJOR, 2),
        TriadFamily.DIMINISHED: (TriadFamily.DIMINISHED, 2),
        TriadFamily.AUGMENTED: (TriadFamily.AUGMENTED, 0),
    }
    for family, expected in expected_pairs.items():
        if dual_pairing(family) != expected:
            return False, f"{family.value} pairs as {dual_pairing(family)}"
    for family in ROOT_CHORDS:
        partner, shift = dual_pairing(family)
        row_length = len(family_row(partner))
        for n, chord in enumerate(family_row(family)):
            label = classify(dual(chord))
            if label is None or label.family is not partner:
                return False, f"dual of {family.value}{n} left the partner family"
            if label.inversion != (shift - n) % row_length:
                return False, f"dual of {family.value}{n} is {label}"
    return True, ""


def _check_degree_regularity() -> CheckResult:
    graph = build_chord_graph(include_dd=True)
    out_i: Counter[str] = Counter()
    incident = {Operator.DUALITY: Counter(), Operator.AUGDIM: Counter()}
    for e in graph.edges:
        if e.op is Operator.INVERSION:
            out_i[e.source] += 1
        else:
            # a set, so a self-loop counts once
            incident[e.op].update({e.source, e.target})
    for node in graph.nodes:
        for op, counts in incident.items():
            if counts[node.id] != 1:
                return False, f"{node.id} has {counts[node.id]} {op.value}-edges"
        if out_i[node.id] != 1:
            return False, f"{node.id} has {out_i[node.id]} outgoing i-edges"
    return True, ""


def _check_fixed_points() -> CheckResult:
    table = seventh_table()
    chords = [c for c, label in table.items() if label.family is not SeventhFamily.dd]
    a_fixed = {str(table[c]) for c in chords if augdim(c) == c}
    if a_fixed != {"mM0", "AM3", "Mm0", "dm3"}:
        return False, f"a-fixed points are {sorted(a_fixed)}"
    d_fixed = [c for c in chords if dual(c) == c]
    if d_fixed:
        return False, f"duality fixes {d_fixed}"
    return True, ""


def _check_components() -> CheckResult:
    sizes = [len(c) for c in connected_components(build_chord_graph(include_dd=False))]
    sizes_with_dd = [
        len(c) for c in connected_components(build_chord_graph(include_dd=True))
    ]
    ok = sizes == [12, 12] and sizes_with_dd == [12, 12, 1]
    return ok, "+".join(str(s) for s in sizes)


def _check_isomorphism() -> CheckResult:
    for include_dd in (False, True):
        mapping = component_isomorphism(build_chord_graph(include_dd=include_dd))
        if len(mapping) != 12:
            return False, f"map has {len(mapping)} pairs, include_dd={include_dd}"
        if mapping.get("MM0") != "mm0":
            return False, f"map sends MM0 to {mapping.get('MM0')}, include_dd={include_dd}"
    return True, ""


CHECKS: list[tuple[str, Callable[[], CheckResult]]] = [
    ("core-roundtrip", _check_roundtrip),
    ("chord-counts", _check_chord_counts),
    ("partition-fibers", _check_partition_fibers),
    *[(f"relations(k={k})", _relations_check(k)) for k in range(2, 7)],
    ("composition-action", _check_composition_action),
    ("permutation-closure", _check_permutation_closure),
    ("triads", _check_triads),
    ("sevenths", _check_sevenths),
    ("table-1", _check_table),
    ("spot-checks", _check_spot_values),
    ("dual-pairing", _check_dual_pairing),
    ("degree-regularity", _check_degree_regularity),
    ("a-fixed-points", _check_fixed_points),
    ("components", _check_components),
    ("isomorphism", _check_isomorphism),
]


def run_checks() -> list[tuple[str, bool, str]]:
    """Run every invariant group; returns (name, passed, detail) triples."""
    results = []
    for name, check in CHECKS:
        try:
            passed, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, passed, detail))
    return results
