"""Every public callable returns or raises a documented error, whatever it is given.

Each callable in ``chordgroups.__all__`` gets its valid arguments with one
replaced, position by position, by each value of a hostile battery.  The
call must return, or raise one of the documented errors with no stray
``TypeError`` or ``AttributeError`` shown as its cause or context.  The
test reads ``__all__``, so a new public name fails
``test_every_public_callable_is_covered`` until it has valid arguments here.
"""

from __future__ import annotations

import pytest

import chordgroups
from chordgroups import (
    ChordLabel,
    InvalidChordError,
    InvalidSizeError,
    IsomorphismViolationError,
    Operator,
    SeventhFamily,
    TriadFamily,
    WrongArityError,
    build_chord_graph,
)

DOCUMENTED = (
    InvalidChordError,
    WrongArityError,
    InvalidSizeError,
    ValueError,
    IsomorphismViolationError,
)

# the type aliases are callable, but they are tuple[int, ...], not library code
ALIASES = {"Chord", "Composition", "Partition"}
# core's docstring carves it out: it assumes an already-validated composition
EXEMPT = {"composition_to_chord"}

GRAPH = build_chord_graph()
TETRAD = (0, 4, 7, 11)

# Each public callable's valid positional arguments, by name.
VALID_ARGUMENTS = {
    "ChordGraph": (GRAPH.nodes, GRAPH.edges),
    "ChordLabel": (SeventhFamily.MM, 0),
    "EmptyChordError": ("message",),
    "FirstToneNotZeroError": ("message",),
    "GraphEdge": ("MM0", "MM1", Operator.INVERSION),
    "GraphNode": (TETRAD, ChordLabel(SeventhFamily.MM, 0)),
    "InvalidChordError": ("message",),
    "InvalidSizeError": ("message",),
    "IsomorphismViolationError": ("message",),
    "NotStrictlyIncreasingError": ("message",),
    "Operator": ("i",),
    "SeventhFamily": ("MM",),
    "ToneOutOfRangeError": ("message",),
    "TriadFamily": (TriadFamily.MAJOR.value,),
    "WrongArityError": ("message",),
    "apply_word": ("ida", TETRAD),
    "augdim": (TETRAD,),
    "build_chord_graph": (False,),
    "chord_to_composition": (TETRAD,),
    "chord_to_partition": (TETRAD,),
    "chords_of_partition": ((3, 4, 5),),
    "classify": (TETRAD,),
    "component_isomorphism": (GRAPH,),
    "connected_components": (GRAPH,),
    "dual": (TETRAD,),
    "dual_pairing": (SeventhFamily.MM,),
    "enumerate_chords": (4,),
    "enumerate_partitions": (4,),
    "export_dot": (GRAPH,),
    "export_json": (GRAPH,),
    "family_row": (SeventhFamily.MM,),
    "format_chord": (TETRAD,),
    "format_parts": ((4, 3, 5),),
    "invert": (TETRAD,),
    "is_harmonic_seventh": (TETRAD,),
    "is_harmonic_triad": ((0, 4, 7),),
    "make_chord": ([0, 4, 7],),
    "make_composition": ([4, 3, 5],),
    "make_partition": ([5, 4, 3],),
    "normalize_chord": ([7, 11, 2],),
    "orbit": (TETRAD, [Operator.INVERSION]),
    "parse_chord": ("0,4,7",),
    "parse_word": ("ida",),
    "seventh_table": (),
    "triad_table": (),
}

# Each hostile value is made afresh for every call, since an iterator is used up.
BATTERY = {
    "None": lambda: None,
    "5": lambda: 5,
    "text": lambda: "0,4,7",
    "float-tone": lambda: (0, 4, 7.0),
    "bool-tone": lambda: (False, 4, 7),
    "list": lambda: [0, 4, 7],
    "empty": lambda: (),
    "bytes": lambda: b"\x00",
    "object": object,
    "iterator": lambda: iter((0, 4, 7)),
    "13-tuple": lambda: tuple(range(13)),
    "huge-tone": lambda: (0, 2**70),
    "operator": lambda: Operator.AUGDIM,
    "family": lambda: TriadFamily.MAJOR,
}


def test_every_public_callable_is_covered():
    assert set(VALID_ARGUMENTS) == set(chordgroups.__all__) - ALIASES - EXEMPT
    assert all(callable(getattr(chordgroups, name)) for name in VALID_ARGUMENTS)


@pytest.mark.parametrize("name", sorted(VALID_ARGUMENTS))
def test_a_public_callable_returns_or_raises_a_documented_error(name):
    function = getattr(chordgroups, name)
    valid = VALID_ARGUMENTS[name]
    function(*valid)  # the valid arguments are valid
    strays = []
    for position in range(len(valid)):
        for label, make in BATTERY.items():
            arguments = list(valid)
            arguments[position] = make()
            try:
                function(*arguments)
            except DOCUMENTED as error:
                # no stray TypeError or AttributeError shown as its cause or context
                if error.__cause__ is not None or (
                    error.__context__ is not None and not error.__suppress_context__
                ):
                    strays.append(f"argument {position} = {label}: context {error.__context__!r}")
            except Exception as error:  # noqa: BLE001  (the failure this test reports)
                strays.append(f"argument {position} = {label}: {error!r}")
    assert strays == []
