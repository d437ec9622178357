"""Group actions on pitch-class chords in a twelve-tone scale.

Chords are strictly increasing tuples of pitch classes rooted at 0.  The
package provides the inversion / major-minor duality / augmented-diminished
duality operators, the harmonic classification of three- and four-tone
chords they generate, and the labeled transformation graph over the
harmonic four-tone chords.

The graph names load on first use (PEP 562), so that a one-shot command
such as ``chordgroups classify`` imports neither ``graph`` nor ``json``.
``core``, ``transform`` and ``classify`` load with the package: ``classify``
is both a submodule and a function, and loading the submodule lazily would
rebind the package attribute from the function to the module.

Because that attribute is the function, ``import chordgroups.classify as m``
binds the function, not the submodule: ``import a.b as m`` reads the
package attribute ``b``.  ``from chordgroups.classify import ...`` and
``sys.modules["chordgroups.classify"]`` reach the submodule.
"""

from importlib import import_module

from . import classify, core, transform  # noqa: F401  (loaded eagerly; see above)

# Every public name, keyed to the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("core", "Chord Composition EmptyChordError FirstToneNotZeroError InvalidChordError "
         "InvalidSizeError NotStrictlyIncreasingError Partition ToneOutOfRangeError "
         "WrongArityError chord_to_composition chord_to_partition chords_of_partition "
         "composition_to_chord enumerate_chords enumerate_partitions format_chord "
         "format_parts make_chord make_composition make_partition normalize_chord "
         "parse_chord"),
        ("transform", "Operator apply_word augdim dual invert orbit parse_word"),
        ("classify", "ChordLabel SeventhFamily TriadFamily classify dual_pairing family_row "
         "is_harmonic_seventh is_harmonic_triad seventh_table triad_table"),
        ("graph", "ChordGraph GraphEdge GraphNode IsomorphismViolationError "
         "build_chord_graph component_isomorphism connected_components export_dot "
         "export_json"),
    )
    for name in names.split()
}
__all__ = sorted(_EXPORTS)

for _name, _module in _EXPORTS.items():
    if _module != "graph":
        globals()[_name] = getattr(import_module(f".{_module}", __name__), _name)
del _name, _module


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
