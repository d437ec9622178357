"""Checks of the library's cached answers that need nothing but the standard library.

Run from the repository root, on any supported Python, with nothing installed:

    PYTHONPATH=src python -S -X dev -W error tests/stdlib_checks.py

Each check prints ``name: PASS``; the first failure exits 1 with
``name: FAIL: message``.  The checks run in one process, in the order of
``CHECKS``.  ``graph`` is imported by the last check only, since its import
fills tetrad composition slots and a fiber: the first two checks start
from what a bare ``import chordgroups`` leaves.

The first two checks are the one place where the converters' and the
fibers' answers are checked on every chord of every size, types included;
the tier-1 suite runs this script in a ``-S`` child
(``tests/test_caches.py``).  The expected answers come from the
benchmark's library-free oracle, ``perfbench/oracle.py``: its chord lists,
gaps and partitions.  The script puts ``perfbench/`` last on its own path,
since it runs as a script, outside pytest's ``conftest.py``.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

from chordgroups import core
from chordgroups.core import (
    InvalidChordError,
    chord_to_composition,
    chord_to_partition,
    chords_of_partition,
)

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import oracle  # noqa: E402

CHORDS = [chord for k in range(1, 13) for chord in oracle.all_chords(k)]


def drop_the_chord_store() -> None:
    core.CHORD_ROWS.clear()
    core.CHORD_SIZES.clear()


def gap_converters() -> None:
    # chord_to_composition and chord_to_partition answer from chord-row
    # slots filled on first use; on every chord of sizes 1-12 they must
    # be tuples of ints equal to the gaps taken from tone differences
    # (sorted for the partition), cold and again after the chord store is
    # dropped, and anything that is not a chord must raise InvalidChordError
    # the cold pass fills each partition slot first, the second each composition slot
    for when, partition_first in (("cold", True), ("after the chord store is dropped", False)):
        for chord in CHORDS:
            calls = [(chord_to_partition, oracle.partition(chord)),
                     (chord_to_composition, oracle.gaps(chord))]
            for convert, expected in calls if partition_first else calls[::-1]:
                answer = convert(chord)
                # (4.0, 3, 5) equals (4, 3, 5), so the types are checked too
                exact = type(answer) is tuple and all(type(g) is int for g in answer)
                if answer != expected or not exact:
                    sys.exit(f"{when}: {convert.__name__}({chord}) is {answer!r}")
        drop_the_chord_store()
    for convert, value in ((chord_to_composition, (0, 13)), (chord_to_partition, [0, 4, 7])):
        try:
            convert(value)
        except InvalidChordError:
            continue
        sys.exit(f"{convert.__name__}({value!r}) raised no InvalidChordError")


def partition_fibers() -> None:
    # chords_of_partition keeps each fiber once built (core._FIBERS); for
    # all 77 partitions of sizes 1-12 it must equal the chords whose sorted
    # tone differences are the partition, cold, after the fiber memo is
    # dropped and after the chord store is dropped, and a caller's
    # change to a returned list, from a memo miss or a hit, must reach no
    # later call
    fibers = {}
    for chord in CHORDS:
        fibers.setdefault(oracle.partition(chord), []).append(chord)
    if len(fibers) != 77:
        sys.exit(f"{len(fibers)} partitions of 12, not 77")
    drops = (("cold", None), ("after _FIBERS.clear()", core._FIBERS.clear),
             ("after the chord store is dropped", drop_the_chord_store))
    for when, drop in drops:
        if drop is not None:
            drop()
        for partition, expected in fibers.items():
            if chords_of_partition(partition) != expected:
                sys.exit(f"{when}: chords_of_partition({partition}) is wrong")
    core._FIBERS.clear()
    for when in ("cold", "warm"):  # the first call misses the fiber memo, the second hits it
        answer = chords_of_partition((3, 4, 5))
        answer.reverse()
        answer.pop()
        if chords_of_partition((3, 4, 5)) != fibers[3, 4, 5]:
            sys.exit(f"{when}: a changed answer reached a later call")


def graph_answers() -> None:
    # each graph keeps its components, isomorphism and exports once
    # derived; a caller that changes a returned list or dict must still get
    # the first answer, and a second export must be the same bytes
    from chordgroups.graph import (build_chord_graph, component_isomorphism,
                                   connected_components, export_dot, export_json)
    for include_dd in (False, True):
        graph = build_chord_graph(include_dd)
        components, mapping = connected_components(graph), component_isomorphism(graph)
        expected = copy.deepcopy((components, mapping))
        dot, text = export_dot(graph).encode(), export_json(graph).encode()
        for component in components:
            component.reverse()
            component.pop()
        components.clear()
        mapping.clear()
        if (connected_components(graph), component_isomorphism(graph)) != expected:
            sys.exit(f"include_dd={include_dd}: a changed answer reached a later call")
        if export_dot(graph).encode() != dot or export_json(graph).encode() != text:
            sys.exit(f"include_dd={include_dd}: a second export differs")


CHECKS = [
    ("The gap converters equal the tone differences on every chord", gap_converters),
    ("Each partition's fiber equals the chords with its gaps", partition_fibers),
    ("Changing a graph answer changes no later answer", graph_answers),
]


def main() -> None:
    for name, check in CHECKS:
        try:
            check()
        except SystemExit as failure:
            sys.exit(f"{name}: FAIL: {failure.code}")
        print(f"{name}: PASS", flush=True)


if __name__ == "__main__":
    main()
