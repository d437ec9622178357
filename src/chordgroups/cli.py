"""Command-line interface.

Plain-text, deterministic output on stdout; diagnostics on stderr.  Exit
status: 0 success, 1 failed verification, 2 usage or parse error, 3 when
an operator meets a chord of the wrong size, and 141 (128 + SIGPIPE, what
a shell reports for a process that SIGPIPE ends) when stdout is closed
before the output is written, as in ``chordgroups verify | true``; that
ends quietly, with nothing on stderr.  argparse's help (``-h``) on a
closed stdout ends the same way, except under ``PYTHONUNBUFFERED`` on
Python 3.11 and later, where argparse drops its own failed write and
exits 0.

``graph`` and ``verify`` are imported by their own commands only, so the
one-shot commands (classify, apply, orbit, partition, enumerate) load no
more than ``core``, ``transform`` and ``classify``.  Only
``graph --format json`` loads ``json``.

``GRAMMAR`` states the command line once.  A plain command line (the
command, its positionals, and each of its options once, spelled in full,
with a valid value not starting with ``-``) is read by ``_read`` and loads
no ``argparse``.  Every other argv loads ``argparse`` and goes to
``build_parser().parse_args``: ``-h``, usage errors, abbreviated options,
``--opt=value``, a repeated option and ``--``.  So argparse prints every
help and usage text, and a handler gets the same attributes either way.
"""

import sys
from types import SimpleNamespace

from .classify import classify as classify_chord
from .core import (
    InvalidSizeError,
    WrongArityError,
    chord_to_composition,
    chord_to_partition,
    enumerate_chords,
    format_chord,
    format_parts,
    parse_chord,
)
from .transform import apply_word, orbit, parse_generators

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_ARITY = 3
EXIT_BROKEN_PIPE = 128 + 13  # 128 + SIGPIPE, without loading signal


def _cmd_apply(args: SimpleNamespace) -> int:
    chord = parse_chord(args.chord)
    print(format_chord(apply_word(args.word, chord)))
    return EXIT_OK


def _cmd_orbit(args: SimpleNamespace) -> int:
    chord = parse_chord(args.chord)
    for member in orbit(chord, parse_generators(args.generators)):
        print(format_chord(member))
    return EXIT_OK


def _cmd_classify(args: SimpleNamespace) -> int:
    label = classify_chord(parse_chord(args.chord))
    print(str(label) if label is not None else "not harmonic")
    return EXIT_OK


def _cmd_partition(args: SimpleNamespace) -> int:
    chord = parse_chord(args.chord)
    parts = chord_to_composition(chord) if args.ordered else chord_to_partition(chord)
    print(format_parts(parts))
    return EXIT_OK


def _cmd_enumerate(args: SimpleNamespace) -> int:
    k = args.tones
    if args.harmonic:
        if k not in (3, 4):
            raise InvalidSizeError("harmonic enumeration covers 3- and 4-tone chords only")
        for chord in enumerate_chords(k):
            label = classify_chord(chord)
            if label is not None:
                print(f"{format_chord(chord)} {label}")
    else:
        for chord in enumerate_chords(k):
            print(format_chord(chord))
    return EXIT_OK


def _cmd_graph(args: SimpleNamespace) -> int:
    from .graph import build_chord_graph, export_dot, export_json

    export = export_dot if args.format == "dot" else export_json
    text = export(build_chord_graph(include_dd=args.include_dd))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(args: SimpleNamespace) -> int:
    from .verify import run_checks

    all_passed = True
    for name, passed, detail in run_checks():
        status = "PASS" if passed else "FAIL"
        prefix = f"{detail} " if detail else ""
        print(f"{name}: {prefix}{status}")
        all_passed = all_passed and passed
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


# The command-line grammar, stated once: each command's help, handler and
# arguments, each argument as the name and keywords of argparse's
# ``add_argument``.  build_parser() hands them to argparse; _read() reads a
# plain command line by them.
GRAMMAR = {
    "apply": ("apply an operator word to a chord", _cmd_apply, (
        ("word", {"help": "word over i, d, a (left to right); empty string is the identity"}),
        ("chord", {"help": 'chord like "0,4,7"'}),
    )),
    "orbit": ("close a chord under a set of operators", _cmd_orbit, (
        ("generators", {"help": 'comma list over i, d, a — e.g. "i,d"'}),
        ("chord", {"help": 'chord like "0,4,7"'}),
    )),
    "classify": ("label a 3- or 4-tone chord", _cmd_classify, (
        ("chord", {"help": 'chord like "0,4,7,11"'}),
    )),
    "partition": ("show the gap structure of a chord", _cmd_partition, (
        ("chord", {"help": 'chord like "0,4,7"'}),
        ("--ordered", {
            "action": "store_true",
            "help": "keep the gaps in chord order instead of sorting them",
        }),
    )),
    "enumerate": ("list chords of a given size", _cmd_enumerate, (
        ("--tones", {"type": int, "required": True, "help": "chord size (1..12)"}),
        ("--harmonic", {
            "action": "store_true",
            "help": "only harmonic chords, with labels (sizes 3 and 4)",
        }),
    )),
    "graph": ("export the harmonic four-tone chord graph", _cmd_graph, (
        ("--format", {"choices": ("dot", "json"), "default": "dot"}),
        ("--include-dd", {"action": "store_true", "help": "include the fully fixed dd chord"}),
        ("--output", {"metavar": "PATH", "help": "write to a file instead of stdout"}),
    )),
    "verify": ("run the library's invariant self-checks", _cmd_verify, ()),
}


def build_parser():
    """argparse's parser for GRAMMAR, which prints every help and usage text."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="chordgroups",
        description="Operate on pitch-class chords: inversion, major-minor duality, "
        "augmented-diminished duality, harmonic classification, and the chord graph.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, handler, arguments) in GRAMMAR.items():
        p = subparsers.add_parser(command, help=help_text)
        for name, spec in arguments:
            p.add_argument(name, **spec)
        p.set_defaults(handler=handler)
    return parser


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would give for a plain command line, else None.

    Plain: a command, then its positionals and the exact spelling of its
    options, each option once, with every value its converter and choices
    accept and none starting with "-".  Anything else is argparse's to
    read, or to refuse with its usage text.
    """
    if not argv or argv[0] not in GRAMMAR:
        return None
    _, handler, arguments = GRAMMAR[argv[0]]
    positionals = [name for name, _ in arguments if not name.startswith("-")]
    options = {name: spec for name, spec in arguments if name.startswith("-")}
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if not positionals:
                return None
            values[positionals.pop(0)] = token
            continue
        spec = options.pop(token, None)  # so a repeated option is unknown
        if spec is None:
            return None
        if spec.get("action") == "store_true":
            value = True
        else:
            text = next(tokens, "-")
            if text.startswith("-"):
                return None
            try:
                value = spec.get("type", str)(text)
            except (TypeError, ValueError):
                return None
            if value not in spec.get("choices", (value,)):
                return None
        values[token[2:].replace("-", "_")] = value
    if positionals or any(spec.get("required") for spec in options.values()):
        return None
    for name, spec in options.items():
        flag = spec.get("action") == "store_true"
        values[name[2:].replace("-", "_")] = spec.get("default", False if flag else None)
    return SimpleNamespace(command=argv[0], handler=handler, **values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            args = _read(argv) or build_parser().parse_args(argv)
        except SystemExit:  # after argparse's help or usage text
            sys.stdout.flush()  # so a closed stdout raises here too
            raise
        status = args.handler(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        import os

        # Point stdout at devnull, so that the interpreter's final flush of
        # what is left in its buffer cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except WrongArityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARITY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
