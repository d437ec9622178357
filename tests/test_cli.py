from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordgroups import verify
from chordgroups.cli import main

from conftest import GOLDEN_HARMONIC_TETRADS, GOLDEN_HARMONIC_TRIADS, run_python


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
        code, out, _ = invoke("enumerate", "--tones", "4", "--harmonic")
        assert code == 0
        assert out == GOLDEN_HARMONIC_TETRADS
        assert len(out.splitlines()) == 25

    def test_harmonic_triads_golden(self, invoke):
        code, out, _ = invoke("enumerate", "--tones", "3", "--harmonic")
        assert (code, out) == (0, GOLDEN_HARMONIC_TRIADS)

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
            (("dot",), "96ef744f895f507c38dba4d0bb03785deb5db3e5b213d8d2401d5c5457443ecf"),
            (
                ("dot", "--include-dd"),
                "f8beba61ca658baa949731b755d67635010afba87f3580fa079e283d054c15a6",
            ),
            (("json",), "5b7aa6fdebdd4918296fb0b623055ec9f4631d121efe7754a1d1b3987f2d2a09"),
            (
                ("json", "--include-dd"),
                "a0e961e570c785a182e0f2662271558cfc692af680c4850258532452830e2a59",
            ),
        ],
    )
    def test_export_bytes(self, invoke, argv, digest):
        code, out, _ = invoke("graph", "--format", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    def test_failed_and_crashed_checks_exit_one(self, invoke, monkeypatch):
        def crash():
            raise RuntimeError("planted")

        checks = [("wrong", lambda: (False, "planted detail")), ("crash", crash)]
        monkeypatch.setattr(verify, "CHECKS", checks)
        out = "wrong: planted detail FAIL\ncrash: RuntimeError: planted FAIL\n"
        assert invoke("verify") == (1, out, "")


class TestUsage:
    def test_no_arguments_is_a_usage_error(self, invoke):
        assert invoke()[0] == 2

    def test_unknown_command_is_a_usage_error(self, invoke):
        assert invoke("transmogrify")[0] == 2

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
