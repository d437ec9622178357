"""Command-line interface.

Plain-text, deterministic output on stdout; diagnostics on stderr.  Exit
status: 0 success, 1 failed verification, 2 usage or parse error, 3 when
an operator meets a chord of the wrong size.

``graph`` and ``verify`` are imported by their own commands only, so the
one-shot commands (classify, apply, orbit, partition, enumerate) load no
more than ``core``, ``transform`` and ``classify``.
"""

from __future__ import annotations

import argparse
import sys

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


def _cmd_apply(args: argparse.Namespace) -> int:
    chord = parse_chord(args.chord)
    print(format_chord(apply_word(args.word, chord)))
    return EXIT_OK


def _cmd_orbit(args: argparse.Namespace) -> int:
    chord = parse_chord(args.chord)
    for member in orbit(chord, parse_generators(args.generators)):
        print(format_chord(member))
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    label = classify_chord(parse_chord(args.chord))
    print(str(label) if label is not None else "not harmonic")
    return EXIT_OK


def _cmd_partition(args: argparse.Namespace) -> int:
    chord = parse_chord(args.chord)
    parts = chord_to_composition(chord) if args.ordered else chord_to_partition(chord)
    print(format_parts(parts))
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
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


def _cmd_graph(args: argparse.Namespace) -> int:
    from .graph import build_chord_graph, export_dot, export_json

    chord_graph = build_chord_graph(include_dd=args.include_dd)
    if args.format == "dot":
        text = export_dot(chord_graph)
    else:
        text = export_json(chord_graph)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_checks

    all_passed = True
    for name, passed, detail in run_checks():
        status = "PASS" if passed else "FAIL"
        prefix = f"{detail} " if detail else ""
        print(f"{name}: {prefix}{status}")
        all_passed = all_passed and passed
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chordgroups",
        description="Operate on pitch-class chords: inversion, major-minor duality, "
        "augmented-diminished duality, harmonic classification, and the chord graph.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("apply", help="apply an operator word to a chord")
    p.add_argument("word", help="word over i, d, a (left to right); empty string is the identity")
    p.add_argument("chord", help='chord like "0,4,7"')
    p.set_defaults(handler=_cmd_apply)

    p = subparsers.add_parser("orbit", help="close a chord under a set of operators")
    p.add_argument("generators", help='comma list over i, d, a — e.g. "i,d"')
    p.add_argument("chord", help='chord like "0,4,7"')
    p.set_defaults(handler=_cmd_orbit)

    p = subparsers.add_parser("classify", help="label a 3- or 4-tone chord")
    p.add_argument("chord", help='chord like "0,4,7,11"')
    p.set_defaults(handler=_cmd_classify)

    p = subparsers.add_parser("partition", help="show the gap structure of a chord")
    p.add_argument("chord", help='chord like "0,4,7"')
    p.add_argument(
        "--ordered",
        action="store_true",
        help="keep the gaps in chord order instead of sorting them",
    )
    p.set_defaults(handler=_cmd_partition)

    p = subparsers.add_parser("enumerate", help="list chords of a given size")
    p.add_argument("--tones", type=int, required=True, help="chord size (1..12)")
    p.add_argument(
        "--harmonic",
        action="store_true",
        help="only harmonic chords, with labels (sizes 3 and 4)",
    )
    p.set_defaults(handler=_cmd_enumerate)

    p = subparsers.add_parser("graph", help="export the harmonic four-tone chord graph")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--include-dd", action="store_true", help="include the fully fixed dd chord")
    p.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")
    p.set_defaults(handler=_cmd_graph)

    p = subparsers.add_parser("verify", help="run the library's invariant self-checks")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except WrongArityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARITY
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
