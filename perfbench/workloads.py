"""Seeded inputs for the four workloads, with their expected outcomes.

Everything here is plain data computed from ``random.Random(seed)`` and the
oracle, before any timing starts; nothing imports the library.  An expected
outcome is ``("ok", value)`` or ``("raise", error class name)``.

Workloads (all closed loops with a single caller):

* ``chord-stream``: parse or build a chord, apply one operator or a word
  of them, then classify or partition; a fifth of the queries are orbits of
  tetrads, and a few percent are invalid input whose correct outcome is the
  documented error.  Drives core, transform and classify.  Inputs that hit
  a known defect are probed once per run instead (``KNOWN_DEFECT_TONES``).
* ``cli-oneshot``: one ``python -m chordgroups`` process per command.  The
  work inside a command takes microseconds, so this measures interpreter
  start, imports and argparse: the import and cli layers.
* ``verify-sweep``: ``run_checks()`` repeated; exhaustive sweeps over the
  same transform functions, plus five graph builds per verdict.
* ``graph-session``: build the graph, then node lookups, components,
  isomorphism and one export.  The only workload that calls ``node()``.

Every mix weight below (chord sizes, the orbit and invalid shares, the
share of ``make_chord`` entries, the command weights, the number of node
lookups per session) is an assumption of this benchmark: no measured
traffic of a music application exists to base them on.

``chord_stream`` and ``graph_sessions`` are endless generators, so a
memory probe can run their first items without building the whole list;
a timed run takes ``STREAM_SIZE`` and ``SESSIONS`` of them.
"""

from __future__ import annotations

import random

import oracle

WORKLOADS = ("chord-stream", "cli-oneshot", "verify-sweep", "graph-session")

# Percentile reported as the latency tail.  It is the highest one with at
# least ten samples beyond it in a 20 s run, except on graph-session: its
# p99 is set by machine noise (run-to-run spread 0.07-0.11 over five seeds)
# rather than by the program, so it reports p90; and on verify-sweep, where
# every verdict runs the same checks on the same inputs, so that verdict
# times above the median differ by machine noise alone (p90 spread 0.05-0.09
# between runs over five and ten seeds, p75 0.01-0.03), it reports p75.
TAIL_Q = {"chord-stream": 99, "cli-oneshot": 90, "verify-sweep": 75, "graph-session": 90}

STREAM_SIZE = 16384
SESSIONS = 2048
COMMANDS = 512

INVALID_SHARE = 0.04
ORBIT_SHARE = 0.20

OK, RAISE = "ok", "raise"


def random_chord(rng: random.Random, k: int) -> tuple:
    return (0, *sorted(rng.sample(range(1, 12), k - 1)))


def _chord_size(rng: random.Random) -> int:
    """Four chords in five are triads or tetrads, the rest any size 1..12."""
    if rng.random() < 0.8:
        return rng.choice((3, 4))
    return rng.randint(1, 12)


def _chord_text(rng: random.Random, chord: tuple) -> str:
    body = oracle.text(chord)
    style = rng.random()
    if style < 0.15:
        return f"({body})"
    if style < 0.3:
        return " " + ", ".join(map(str, chord)) + " "
    return body


def _word(rng: random.Random, k: int, length: int) -> str:
    alphabet = "ida" if k == 4 else "id"
    word = "".join(rng.choice(alphabet) for _ in range(length))
    return word.upper() if rng.random() < 0.1 else word


# ---- chord-stream --------------------------------------------------------
#
# A query is (tag, entry, entry_arg, step, step_arg, final, expected):
#   entry  "parse" (parse_chord on text) or "make" (make_chord on a list)
#   step   "invert" / "dual" / "augdim" (one operator), "word" (apply_word)
#          or "orbit" (orbit under the generators in step_arg)
#   final  "classify", "partition" or "" (orbit queries end at the orbit)

# parse_chord("0,٤,7") is left out on purpose: int() reads non-ASCII digits,
# and whether parse_chord should accept them is still undecided, so there is
# no correct outcome to check it against.
MALFORMED_TEXT = ("0,4,x", "0;4;7", "", "()", "0,,7", "0,4,7,", "zero", "0 4 7")
BAD_TEXT = {
    "text:malformed": MALFORMED_TEXT,
    "text:out-of-range": ("0,4,12", "0,-3,7", "0,4,7,99"),
    "text:not-rooted": ("1,4,8", "3,7"),
    "text:not-increasing": ("0,7,4", "0,4,4,7"),
}
BAD_TONES = {
    "make:out-of-range": ([0, 4, 13], [0, -1, 7], [0, 4, 7, 12]),
}
# Non-int tones, which make_chord must reject with InvalidChordError.  At
# version 0.1.0 it accepts float and bool tones and raises a bare TypeError
# on str tones (ROADMAP item 4).  A timed stream must be one on which no
# operation fails, so these inputs are not in it; instead every chord-stream
# run calls make_chord on each of them once, outside the timed loop, and
# reports the outcome input by input (worker.probe_known_defects).
KNOWN_DEFECT_TONES = {
    "make:float": ([0, 4.5, 7], [0, 3.0, 7]),
    "make:bool": ([False, 4, 7], [0, True, 7]),
    "make:str": ([0, "4", 7], ["0", "4", "7"]),
}


def _final(rng: random.Random, chord: tuple) -> tuple:
    """The last step of a query and its expected value on ``chord``."""
    if len(chord) in (3, 4) and rng.random() < 0.7:
        return "classify", oracle.classify(chord)
    return "partition", oracle.partition(chord)


def _entry(rng: random.Random, chord: tuple) -> tuple:
    if rng.random() < 0.3:
        return "make", list(chord)
    return "parse", _chord_text(rng, chord)


def _valid_query(rng: random.Random) -> tuple:
    if rng.random() < ORBIT_SHARE:
        chord = random_chord(rng, 4)
        gens = rng.choice(("i", "id", "ida"))
        return ("orbit", *_entry(rng, chord), "orbit", gens, "",
                (OK, oracle.orbit(chord, gens)))
    k = _chord_size(rng)
    chord = random_chord(rng, k)
    word = _word(rng, k, rng.randint(1, 12))
    image = oracle.apply(word, chord)
    final, value = _final(rng, image)
    if len(word) == 1:
        step = {"i": "invert", "d": "dual", "a": "augdim"}[word.lower()]
        return (step, *_entry(rng, chord), step, None, final, (OK, value))
    return ("word", *_entry(rng, chord), "word", word, final, (OK, value))


def _invalid_query(rng: random.Random) -> tuple:
    kind = rng.choice((*BAD_TEXT, *BAD_TONES, "word:a-on-triad", "augdim:triad",
                       "orbit:a-on-triad"))
    final = rng.choice(("classify", "partition"))
    word = _word(rng, 3, rng.randint(1, 6))
    if kind in BAD_TEXT:
        return (kind, "parse", rng.choice(BAD_TEXT[kind]), "word", word, final,
                (RAISE, oracle.INVALID))
    if kind in BAD_TONES:
        return (kind, "make", list(rng.choice(BAD_TONES[kind])), "word", word, final,
                (RAISE, oracle.INVALID))
    triad = random_chord(rng, 3)
    if kind == "word:a-on-triad":
        at = rng.randrange(len(word) + 1)
        return (kind, *_entry(rng, triad), "word", word[:at] + "a" + word[at:], final,
                (RAISE, oracle.ARITY))
    if kind == "augdim:triad":
        return (kind, *_entry(rng, triad), "augdim", None, final, (RAISE, oracle.ARITY))
    return (kind, *_entry(rng, triad), "orbit", "ida", "", (RAISE, oracle.ARITY))


def chord_stream(seed: int):
    rng = random.Random(f"chord-stream:{seed}")
    while True:
        yield _invalid_query(rng) if rng.random() < INVALID_SHARE else _valid_query(rng)


# ---- graph-session -------------------------------------------------------
#
# A session is (include_dd, steps, export_format); a step is ("node", id),
# ("components",) or ("isomorphism",).  Every session ends with one export.


def graph_sessions(seed: int):
    rng = random.Random(f"graph-session:{seed}")
    tetrads = sorted(label for chord, label in oracle.LABELS.items() if len(chord) == 4)
    while True:
        include_dd = rng.random() < 0.5
        ids = tetrads if include_dd else [i for i in tetrads if i != "dd0"]
        steps = [("node", rng.choice(ids)) for _ in range(rng.randint(8, 32))]
        steps += [("components",)] * rng.randint(1, 2) + [("isomorphism",)]
        rng.shuffle(steps)
        yield include_dd, tuple(steps), rng.choice(("dot", "json"))


# ---- cli-oneshot ---------------------------------------------------------
#
# A command is (tag, argv, expected exit code, expected stdout); graph
# exports are expected as ("sha256", digest).  Error exits expect no stdout
# and a one-line diagnostic on stderr.

BAD_ARGV = (
    (["classify", "0,4,x"], 2),
    (["classify", "0,4,7,10,11"], 3),
    (["classify"], 2),
    (["apply", "a", "0,4,7"], 3),
    (["apply", "q", "0,4,7"], 2),
    (["orbit", "i,a", "0,4,7"], 3),
    (["orbit", "x", "0,4,7"], 2),
    (["partition", "1,4,8"], 2),
    (["enumerate", "--tones", "13"], 2),
    (["enumerate", "--tones", "5", "--harmonic"], 2),
    (["graph", "--format", "xml"], 2),
    (["frobnicate"], 2),
)


def _lines(items) -> str:
    return "".join(f"{item}\n" for item in items)


def _command(rng: random.Random) -> tuple:
    kind = rng.choices(
        ("classify", "apply", "orbit", "partition", "enumerate", "graph", "invalid"),
        weights=(25, 15, 15, 13, 10, 14, 8),
    )[0]
    if kind == "invalid":
        argv, code = rng.choice(BAD_ARGV)
        return ("invalid:" + argv[0], list(argv), code, "")
    if kind == "classify":
        if rng.random() < 0.6:
            chord = rng.choice([c for c in oracle.LABELS if len(c) in (3, 4)])
        else:
            chord = random_chord(rng, rng.choice((3, 4)))
        label = oracle.classify(chord)
        return (kind, [kind, oracle.text(chord)], 0, _lines([label or "not harmonic"]))
    if kind == "apply":
        k = _chord_size(rng)
        chord = random_chord(rng, k)
        word = _word(rng, k, rng.randint(0, 8))
        return (kind, [kind, word, oracle.text(chord)], 0,
                _lines([oracle.text(oracle.apply(word, chord))]))
    if kind == "orbit":
        k = rng.choice((3, 4, 4, 5))
        chord = random_chord(rng, k)
        gens = rng.choice(("i", "i,d", "i,d,a") if k == 4 else ("i", "i,d", "d"))
        members = oracle.orbit(chord, gens.replace(",", ""))
        return (kind, [kind, gens, oracle.text(chord)], 0, _lines(map(oracle.text, members)))
    if kind == "partition":
        chord = random_chord(rng, _chord_size(rng))
        if rng.random() < 0.5:
            parts, extra = oracle.gaps(chord), ["--ordered"]
        else:
            parts, extra = oracle.partition(chord), []
        text = "[" + ",".join(map(str, parts)) + "]"
        return (kind, [kind, oracle.text(chord), *extra], 0, _lines([text]))
    if kind == "enumerate":
        k = rng.randint(1, 12)
        if k in (3, 4) and rng.random() < 0.5:
            rows = [f"{oracle.text(c)} {oracle.LABELS[c]}"
                    for c in oracle.all_chords(k) if c in oracle.LABELS]
            return (kind, [kind, "--tones", str(k), "--harmonic"], 0, _lines(rows))
        return (kind, [kind, "--tones", str(k)], 0,
                _lines(map(oracle.text, oracle.all_chords(k))))
    fmt = rng.choice(("dot", "json"))
    include_dd = rng.random() < 0.5
    argv = [kind, "--format", fmt] + (["--include-dd"] if include_dd else [])
    return (f"graph:{fmt}", argv, 0, ("sha256", oracle.EXPORT_SHA256[(fmt, include_dd)]))


def cli_commands(seed: int, count: int = COMMANDS) -> list:
    rng = random.Random(f"cli-oneshot:{seed}")
    return [_command(rng) for _ in range(count)]
