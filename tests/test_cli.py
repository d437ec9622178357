from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordgroups import verify
from chordgroups.cli import GRAMMAR, _read, build_parser, main

from conftest import GOLDEN_HARMONIC_TETRADS, GOLDEN_HARMONIC_TRIADS, SRC, run_python
from oracle import EXPORT_SHA256, LABELS, VERIFY_RESULTS


class TestApply:
    def test_duality(self, invoke):
        code, out, _ = invoke("apply", "d", "0,4,7")
        assert (code, out) == (0, "0,5,8\n")

    def test_empty_word_is_identity(self, invoke):
        code, out, _ = invoke("apply", "", "0,4,7")
        assert (code, out) == (0, "0,4,7\n")

    def test_parenthesised_chord_accepted(self, invoke):
        code, out, _ = invoke("apply", "i", "(0,4,7)")
        assert (code, out) == (0, "0,3,8\n")

    def test_augdim_on_triad_is_an_arity_error(self, invoke):
        code, _, err = invoke("apply", "a", "0,4,7")
        assert code == 3
        assert "four-tone" in err

    def test_unknown_operator_is_a_usage_error(self, invoke):
        code, _, _ = invoke("apply", "x", "0,4,7")
        assert code == 2

    def test_unparseable_chord_is_a_usage_error(self, invoke):
        code, _, _ = invoke("apply", "i", "0,4,banana")
        assert code == 2

    def test_chord_without_root_is_a_usage_error(self, invoke):
        code, _, _ = invoke("apply", "i", "1,4,8")
        assert code == 2


class TestOrbit:
    def test_diminished_triad_under_inversion(self, invoke):
        code, out, _ = invoke("orbit", "i", "0,3,6")
        assert (code, out) == (0, "0,3,6\n0,3,9\n0,6,9\n")

    def test_fixed_tetrad(self, invoke):
        code, out, _ = invoke("orbit", "i,d,a", "0,3,6,9")
        assert (code, out) == (0, "0,3,6,9\n")

    def test_self_dual_inversion_orbit(self, invoke):
        code, out, _ = invoke("orbit", "i,d", "0,4,7,11")
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_no_generators_leave_the_chord_alone(self, invoke):
        code, out, _ = invoke("orbit", "", "0,4,7")
        assert (code, out) == (0, "0,4,7\n")

    def test_augdim_generator_on_triad_is_an_arity_error(self, invoke):
        code, _, _ = invoke("orbit", "i,a", "0,4,7")
        assert code == 3


class TestClassify:
    @pytest.mark.parametrize(
        "chord, expected",
        [
            ("0,2,6,9", "Mm3"),
            ("0,3,8", "Major1"),
            ("0,1,2,3", "not harmonic"),
        ],
    )
    def test_output(self, invoke, chord, expected):
        code, out, _ = invoke("classify", chord)
        assert (code, out) == (0, expected + "\n")

    def test_interval_is_an_arity_error(self, invoke):
        code, _, _ = invoke("classify", "0,2")
        assert code == 3

    def test_garbage_is_a_usage_error(self, invoke):
        code, _, _ = invoke("classify", "zz")
        assert code == 2

    def test_digit_separator_is_a_usage_error(self, invoke):
        # int() alone reads "1_1" as 11: the dyad (0, 11), an arity error
        code, _, _ = invoke("classify", "0,1_1")
        assert code == 2


class TestPartition:
    def test_sorted_gaps(self, invoke):
        code, out, _ = invoke("partition", "0,4,7")
        assert (code, out) == (0, "[3,4,5]\n")

    def test_ordered_gaps(self, invoke):
        code, out, _ = invoke("partition", "--ordered", "0,4,7")
        assert (code, out) == (0, "[4,3,5]\n")


class TestEnumerate:
    def test_harmonic_tetrads_golden(self, invoke):
        code, out, err = invoke("enumerate", "--tones", "4", "--harmonic")
        assert (code, out, err) == (0, GOLDEN_HARMONIC_TETRADS, "")
        assert len(out.splitlines()) == 25

    def test_harmonic_triads_golden(self, invoke):
        code, out, _ = invoke("enumerate", "--tones", "3", "--harmonic")
        assert (code, out) == (0, GOLDEN_HARMONIC_TRIADS)

    def test_the_goldens_list_the_oracles_three_and_four_tone_labels(self):
        lines = (GOLDEN_HARMONIC_TRIADS + GOLDEN_HARMONIC_TETRADS).splitlines()
        listed = {tuple(map(int, text.split(","))): label for text, label in map(str.split, lines)}
        assert len(listed) == len(lines)  # no chord listed twice
        assert listed == {chord: label for chord, label in LABELS.items() if len(chord) in (3, 4)}

    def test_output_is_deterministic(self, invoke):
        first = invoke("enumerate", "--tones", "4", "--harmonic")
        second = invoke("enumerate", "--tones", "4", "--harmonic")
        assert first == second

    def test_single_tone(self, invoke):
        code, out, _ = invoke("enumerate", "--tones", "1")
        assert (code, out) == (0, "0\n")

    def test_plain_enumeration_counts(self, invoke):
        code, out, _ = invoke("enumerate", "--tones", "2")
        assert code == 0
        assert len(out.splitlines()) == 11

    @pytest.mark.parametrize("tones", ["0", "13"])
    def test_invalid_size_is_a_usage_error(self, invoke, tones):
        code, _, _ = invoke("enumerate", "--tones", tones)
        assert code == 2

    @pytest.mark.parametrize("tones", ["2", "5"])
    def test_harmonic_needs_three_or_four_tones(self, invoke, tones):
        code, _, _ = invoke("enumerate", "--tones", tones, "--harmonic")
        assert code == 2


class TestGraph:
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("dot",), EXPORT_SHA256["dot", False]),
            (("dot", "--include-dd"), EXPORT_SHA256["dot", True]),
            (("json",), EXPORT_SHA256["json", False]),
            (("json", "--include-dd"), EXPORT_SHA256["json", True]),
        ],
    )
    def test_export_bytes(self, invoke, argv, digest):
        code, out, _ = invoke("graph", "--format", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        if argv[0] == "json":  # decoded and encoded again, the same text
            assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out

    def test_json_node_count(self, invoke):
        code, out, _ = invoke("graph", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["nodes"]) == 24

    def test_json_with_dd(self, invoke):
        code, out, _ = invoke("graph", "--format", "json", "--include-dd")
        assert len(json.loads(out)["nodes"]) == 25
        assert code == 0

    def test_dot_format(self, invoke):
        code, out, _ = invoke("graph", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")

    def test_default_format_is_dot(self, invoke):
        assert invoke("graph")[1].startswith("digraph")

    def test_unknown_format_is_a_usage_error(self, invoke):
        code, _, _ = invoke("graph", "--format", "xml")
        assert code == 2

    def test_output_file(self, invoke, tmp_path):
        path = tmp_path / "graph.json"
        code, out, _ = invoke("graph", "--format", "json", "--output", str(path))
        assert (code, out) == (0, "")
        assert len(json.loads(path.read_text())["nodes"]) == 24


GOLDEN_VERIFY = """\
core-roundtrip: PASS
chord-counts: PASS
partition-fibers: PASS
relations(k=2): PASS
relations(k=3): PASS
relations(k=4): PASS
relations(k=5): PASS
relations(k=6): PASS
composition-action: PASS
permutation-closure: PASS
triads: PASS
sevenths: PASS
table-1: PASS
spot-checks: PASS
dual-pairing: PASS
degree-regularity: PASS
a-fixed-points: PASS
components: 12+12 PASS
isomorphism: PASS
"""


class TestVerify:
    def test_golden(self, invoke):
        assert invoke("verify") == (0, GOLDEN_VERIFY, "")

    def test_the_golden_is_the_benchmarks_expectation(self):
        # each (name, passed, detail) as the CLI writes it: "name: [detail ]PASS"
        lines = [
            f"{name}: {detail + ' ' if detail else ''}{'PASS' if passed else 'FAIL'}\n"
            for name, passed, detail in VERIFY_RESULTS
        ]
        assert GOLDEN_VERIFY == "".join(lines)

    def test_failed_and_crashed_checks_exit_one(self, invoke, monkeypatch):
        def crash():
            raise RuntimeError("planted")

        checks = [("wrong", lambda: (False, "planted detail")), ("crash", crash)]
        monkeypatch.setattr(verify, "CHECKS", checks)
        out = "wrong: planted detail FAIL\ncrash: RuntimeError: planted FAIL\n"
        assert invoke("verify") == (1, out, "")


# verify, the graph exports, orbit and enumerate walk sets and dicts of
# strings, and orbit collects a set of chords from the chord store
@pytest.mark.parametrize(
    "argv",
    [
        "verify",
        "graph --format dot",
        "graph --format json",
        "graph --format dot --include-dd",
        "graph --format json --include-dd",
        "orbit i,d,a 0,1,3,7",
        "enumerate --tones 4 --harmonic",
        "apply iddaid 0,1,3,7",
        "orbit i,d 0,1,2,5,8,9",
    ],
)
def test_output_does_not_depend_on_the_hash_seed(argv, monkeypatch):
    # one child per seed, without site, in development mode with warnings as errors
    outputs = []
    for seed in "1", "2":
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        child = run_python("-S", "-X", "dev", "-W", "error", "-m", "chordgroups", *argv.split())
        outputs.append(child.stdout)
    assert outputs[0] == outputs[1]
    if argv == "verify":
        assert outputs[0] == GOLDEN_VERIFY


class TestUsage:
    def test_no_arguments_is_a_usage_error(self, invoke):
        assert invoke()[0] == 2

    def test_unknown_command_is_a_usage_error(self, invoke):
        assert invoke("transmogrify")[0] == 2

    def test_no_argv_reads_the_process_arguments(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["chordgroups", "classify", "0,4,7"])
        assert main() == 0
        assert capsys.readouterr().out == "Major0\n"

    def test_the_cli_module_runs_as_a_script(self):
        # ``python -m chordgroups.cli`` reaches main() through cli.py's main guard only
        result = run_python("-m", "chordgroups.cli", "classify", "0,4,7")
        assert (result.stdout, result.stderr) == ("Major0\n", "")


# Words the parser knows, chord texts valid and not, and free text.
ARGV_TOKENS = (
    "apply", "orbit", "classify", "partition", "enumerate", "graph", "verify",
    "i", "d", "a", "iddaid", "i,d", "i,d,a", "x", "0,4,7", "0,4,7,11", "(0,4,7)",
    "0,13", "0,4,4", "5,7", "0,1_1", "", "--ordered", "--tones", "--harmonic",
    "--format", "dot", "json", "--include-dd", "--output", "-h", "3", "12", "13", "-1",
)


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(ARGV_TOKENS), st.text(max_size=6)), max_size=5))
def test_any_argv_ends_with_a_contract_exit_code(scratch_dir, argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(scratch_dir)  # where "graph --output" writes
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors and -h
                code = exc.code
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


# tests/cli_usage.golden, by command line: its exit code, stdout and stderr
_, *_BLOCKS = re.split(
    r"^=== (.*)\n",
    (Path(__file__).parent / "cli_usage.golden").read_text(encoding="utf-8"),
    flags=re.M,
)
GOLDEN_USAGE = dict(zip(_BLOCKS[::2], _BLOCKS[1::2]))


# argparse's help and usage texts, the same bytes on Python 3.10 to 3.13
USAGE_ARGVS = [
    ["-h"],
    *([command, "-h"] for command in GRAMMAR),
    [],
    ["classify"],
    ["frobnicate"],
    ["graph", "--format", "xml"],
    ["enumerate", "--tones", "x"],
    ["classify", "0,4,7", "extra"],
    ["enumerate", "--tones", "4", "--bogus"],
]


@pytest.mark.parametrize("argv", USAGE_ARGVS, ids=shlex.join)
def test_help_and_usage_texts_are_argparses(invoke, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    code, out, err = invoke(*argv)
    header = shlex.join(["chordgroups", *argv])
    assert f"exit {code}\n--- stdout\n{out}--- stderr\n{err}" == GOLDEN_USAGE[header]


# The plain form of every command kind the benchmark's cli-oneshot workload runs.
PLAIN_ARGVS = [
    ["classify", "0,4,7"],
    ["classify", "0,4,x"],
    ["apply", "iddaid", "0,1,3,7"],
    ["apply", "", "0,4,7"],
    ["orbit", "i,d", "0,4,7,11"],
    ["partition", "0,4,7"],
    ["partition", "0,4,7", "--ordered"],
    ["partition", "--ordered", "0,4,7"],
    ["enumerate", "--tones", "4", "--harmonic"],
    ["enumerate", "--harmonic", "--tones", "3"],
    ["enumerate", "--tones", "13"],
    ["graph"],
    ["graph", "--format", "json", "--include-dd"],
    ["graph", "--include-dd", "--format", "dot", "--output", "graph.dot"],
    ["verify"],
]


@pytest.mark.parametrize("argv", PLAIN_ARGVS, ids=shlex.join)
def test_the_reader_reads_each_plain_form_as_argparse_does(argv):
    args = _read(argv)
    assert args is not None
    assert vars(args) == vars(build_parser().parse_args(argv))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(GRAMMAR)),
    st.lists(st.one_of(st.sampled_from(ARGV_TOKENS), st.text(max_size=6)), max_size=5),
)
def test_whatever_the_reader_accepts_argparse_reads_the_same(command, rest):
    argv = [command, *rest]
    args = _read(argv)
    if args is not None:  # refusing is always sound: argparse reads it instead
        assert vars(args) == vars(build_parser().parse_args(argv))


# Not plain, so the reader refuses them; argparse reads each as before.
NOT_PLAIN = [
    (["enumerate", "--tone", "4"], {"tones": 4, "harmonic": False}),  # an abbreviation
    (["graph", "--format=json"], {"format": "json", "include_dd": False, "output": None}),
    (["enumerate", "--tones", "-1"], {"tones": -1, "harmonic": False}),
    (["partition", "--ordered", "--ordered", "0,4,7"], {"chord": "0,4,7", "ordered": True}),
    (["apply", "--", "i", "0,4,7"], {"word": "i", "chord": "0,4,7"}),
    (["classify", "-h"], None),  # help, then exit 0
]


@pytest.mark.parametrize("argv, expected", NOT_PLAIN, ids=[shlex.join(a) for a, _ in NOT_PLAIN])
def test_the_reader_leaves_the_rest_to_argparse(capsys, argv, expected):
    assert _read(argv) is None
    if expected is None:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert (exc.value.code, capsys.readouterr().out.startswith("usage:")) == (0, True)
        return
    args = vars(build_parser().parse_args(argv))
    assert args == {"command": argv[0], "handler": GRAMMAR[argv[0]][1], **expected}


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv", [["verify"], ["enumerate", "--tones", "6"], ["-h"], ["classify", "-h"]], ids=shlex.join
)
def test_a_closed_stdout_ends_quietly_with_128_plus_sigpipe(argv, unbuffered):
    # The read end is closed before the child starts, so its first write to
    # stdout fails, whether print writes through (PYTHONUNBUFFERED) or main's
    # flush does.  141 is what a shell reports for ``seq`` in ``seq | true``.
    # Unbuffered, argparse's help swallows its own failed write from 3.11 on
    # and exits 0; on 3.10 the write's BrokenPipeError reaches main.
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "chordgroups", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    swallowed = unbuffered and "-h" in argv and sys.version_info >= (3, 11)
    assert (child.returncode, child.stderr) == (0 if swallowed else 141, b"")


def test_a_broken_pipe_points_stdout_at_devnull(monkeypatch, tmp_path):
    # In process: main's flush fails as on a closed pipe, and main then points
    # the stream's descriptor at devnull, so the final flush writes there.
    class ClosedPipe(io.StringIO):
        def __init__(self, fd):
            super().__init__()
            self.fd = fd

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as handle:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(handle.fileno()))
        code = main(["classify", "0,4,7"])
        monkeypatch.undo()
        assert os.path.samestat(os.fstat(handle.fileno()), os.stat(os.devnull))
    assert code == 141
