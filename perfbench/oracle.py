"""Expected answers for the benchmark, computed without the library.

Nothing here imports ``chordgroups``.  The operators are stated as
permutations of gap positions (rotate left, reverse, swap the middle two),
the classification comes from the hand-written reference rows, and the
graph exports are pinned by sha256 digests of their text.
"""

from __future__ import annotations

from itertools import combinations

OCTAVE = 12

# Reference classification rows: root position first, then successive
# inversions.  Written out by hand; never derived from the library.
SEVENTH_ROWS = {
    "MM": ((0, 4, 7, 11), (0, 3, 7, 8), (0, 4, 5, 9), (0, 1, 5, 8)),
    "mM": ((0, 3, 7, 11), (0, 4, 8, 9), (0, 4, 5, 8), (0, 1, 4, 8)),
    "AM": ((0, 4, 8, 11), (0, 4, 7, 8), (0, 3, 4, 8), (0, 1, 5, 9)),
    "Mm": ((0, 4, 7, 10), (0, 3, 6, 8), (0, 3, 5, 9), (0, 2, 6, 9)),
    "dm": ((0, 3, 6, 10), (0, 3, 7, 9), (0, 4, 6, 9), (0, 2, 5, 8)),
    "mm": ((0, 3, 7, 10), (0, 4, 7, 9), (0, 3, 5, 8), (0, 2, 5, 9)),
    "dd": ((0, 3, 6, 9),),
}
TRIAD_ROWS = {
    "Major": ((0, 4, 7), (0, 3, 8), (0, 5, 9)),
    "Minor": ((0, 3, 7), (0, 4, 9), (0, 5, 8)),
    "Diminished": ((0, 3, 6), (0, 3, 9), (0, 6, 9)),
    "Augmented": ((0, 4, 8),),
}
LABELS = {
    chord: f"{family}{n}"
    for rows in (TRIAD_ROWS, SEVENTH_ROWS)
    for family, row in rows.items()
    for n, chord in enumerate(row)
}
CHORD_OF_LABEL = {label: chord for chord, label in LABELS.items()}

# The graph's two 12-node components and the label map between them.
UPPER_FAMILIES = ("MM", "mM", "AM")
LOWER_FAMILIES = ("mm", "Mm", "dm")
COMPONENT_MAP = {
    f"{upper}{n}": f"{lower}{n}"
    for upper, lower in zip(UPPER_FAMILIES, LOWER_FAMILIES)
    for n in range(4)
}


def components(include_dd: bool) -> list:
    """Node ids of each connected component, largest first."""
    upper = {f"{family}{n}" for family in UPPER_FAMILIES for n in range(4)}
    lower = {f"{family}{n}" for family in LOWER_FAMILIES for n in range(4)}
    return [upper, lower, {"dd0"}] if include_dd else [upper, lower]

# sha256 of the four graph exports, pinned from version 0.1.0.  A change
# that alters a single byte of an export shows up as a failed op.
EXPORT_SHA256 = {
    ("dot", False): "96ef744f895f507c38dba4d0bb03785deb5db3e5b213d8d2401d5c5457443ecf",
    ("dot", True): "f8beba61ca658baa949731b755d67635010afba87f3580fa079e283d054c15a6",
    ("json", False): "5b7aa6fdebdd4918296fb0b623055ec9f4631d121efe7754a1d1b3987f2d2a09",
    ("json", True): "a0e961e570c785a182e0f2662271558cfc692af680c4850258532452830e2a59",
}

# The 19 verify checks and their expected detail text, in run order.
VERIFY_RESULTS = [
    ("core-roundtrip", True, ""),
    ("chord-counts", True, ""),
    ("partition-fibers", True, ""),
    *[(f"relations(k={k})", True, "") for k in range(2, 7)],
    ("composition-action", True, ""),
    ("permutation-closure", True, ""),
    ("triads", True, ""),
    ("sevenths", True, ""),
    ("table-1", True, ""),
    ("spot-checks", True, ""),
    ("dual-pairing", True, ""),
    ("degree-regularity", True, ""),
    ("a-fixed-points", True, ""),
    ("components", True, "12+12"),
    ("isomorphism", True, ""),
]

# The documented errors, by class name, for inputs the library must reject.
ARITY = "WrongArityError"
INVALID = "InvalidChordError"


class OracleError(ValueError):
    """An operation the oracle, like the library, leaves undefined."""


def gaps(chord: tuple) -> tuple:
    return tuple(b - a for a, b in zip(chord, chord[1:] + (OCTAVE,)))


def chord_of(gap_seq: tuple) -> tuple:
    tones, total = [], 0
    for gap in gap_seq[:-1]:
        tones.append(total)
        total += gap
    return (*tones, total)


def _rotate(g: tuple) -> tuple:
    return g[1:] + g[:1]


def _reverse(g: tuple) -> tuple:
    return g[::-1]


def _swap_middle(g: tuple) -> tuple:
    if len(g) != 4:
        raise OracleError("a is defined on four-tone chords only")
    return (g[0], g[2], g[1], g[3])


GAP_ACTION = {"i": _rotate, "d": _reverse, "a": _swap_middle}


def apply(word: str, chord: tuple) -> tuple:
    g = gaps(chord)
    for symbol in word.lower():
        g = GAP_ACTION[symbol](g)
    return chord_of(g)


def orbit(chord: tuple, generators: str) -> list:
    actions = [GAP_ACTION[s] for s in dict.fromkeys(generators)]
    start = gaps(chord)
    seen, frontier = {start}, [start]
    while frontier:
        images = {act(g) for g in frontier for act in actions} - seen
        seen |= images
        frontier = list(images)
    return sorted(chord_of(g) for g in seen)


def partition(chord: tuple) -> tuple:
    return tuple(sorted(gaps(chord)))


def classify(chord: tuple) -> str | None:
    if len(chord) not in (3, 4):
        raise OracleError("classification covers three- and four-tone chords")
    return LABELS.get(chord)


def all_chords(k: int) -> list:
    return [(0, *rest) for rest in combinations(range(1, OCTAVE), k - 1)]


def text(chord: tuple) -> str:
    return ",".join(map(str, chord))
