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

Each eager export is read off the module object that ``from . import``
bound, taken before the name ``classify`` is rebound to the function; only
the lazy graph names go through ``import_module``.  No module uses
``from __future__ import annotations``: on 3.10 and later every annotation
evaluates at import, and leaving out that import spares each process
loading ``__future__``.  A forward reference is therefore written as a
string.
"""

from importlib import import_module

from . import classify, core, transform  # loaded eagerly; see above

# Every public name, keyed to the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("core", "Chord Composition EmptyChordError FirstToneNotZeroError InvalidChordError "
         "InvalidSizeError NotStrictlyIncreasingError Partition ToneOutOfRangeError "
         "WrongArityError chord_to_composition chord_to_partition chords_of_partition "
         "enumerate_chords enumerate_partitions format_chord format_parts make_chord "
         "make_composition make_partition normalize_chord parse_chord"),
        ("transform", "Operator apply_word augdim dual invert orbit"),
        ("classify", "ChordLabel SeventhFamily TriadFamily classify dual_pairing family_row "
         "is_harmonic_seventh is_harmonic_triad seventh_table triad_table"),
        ("graph", "ChordGraph GraphEdge GraphNode IsomorphismViolationError "
         "build_chord_graph component_isomorphism connected_components export_dot "
         "export_json"),
    )
    for name in names.split()
}
__all__ = sorted(_EXPORTS)

# The loop rebinds ``classify`` to the function, so the modules are read
# from this dict, taken before it.
_LOADED = {"core": core, "transform": transform, "classify": classify}
for _name, _module in _EXPORTS.items():
    if _module in _LOADED:
        globals()[_name] = getattr(_LOADED[_module], _name)
del _LOADED, _name, _module


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
