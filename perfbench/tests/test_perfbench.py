"""Self-tests of the benchmark harness.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_reference_rows_follow_the_gap_rotation():
    for rows in (oracle.TRIAD_ROWS, oracle.SEVENTH_ROWS):
        for row in rows.values():
            for n, chord in enumerate(row):
                assert oracle.apply("i", chord) == row[(n + 1) % len(row)]


def test_inputs_depend_only_on_the_seed():
    def first(stream):
        return list(islice(stream, 1000))

    assert first(workloads.chord_stream(7)) == first(workloads.chord_stream(7))
    assert first(workloads.chord_stream(7)) != first(workloads.chord_stream(8))
    assert workloads.cli_commands(7) == workloads.cli_commands(7)
    assert first(workloads.graph_sessions(7)) == first(workloads.graph_sessions(7))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_named_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_planted_wrong_answer_is_caught(monkeypatch):
    import chordgroups

    clean = worker.measure("chord-stream", seed=1, seconds=0.3, trace=False, spans_prefix=None)
    assert clean["outcomes"]["failed"] == 0

    monkeypatch.setattr(chordgroups, "invert", lambda chord: chord)
    broken = worker.measure("chord-stream", seed=1, seconds=0.3, trace=False, spans_prefix=None)
    outcomes = broken["outcomes"]
    assert outcomes["failed"] / outcomes["attempted"] > 0
    assert outcomes["by_input"]["invert"]["failed"] > 0


def test_accepted_bad_text_is_caught(monkeypatch):
    import chordgroups

    real = chordgroups.parse_chord

    def lenient(text):
        try:
            return real(text)
        except ValueError:
            return (0, 4, 7)

    monkeypatch.setattr(chordgroups, "parse_chord", lenient)
    broken = worker.measure("chord-stream", seed=1, seconds=0.3, trace=False, spans_prefix=None)
    outcomes = broken["outcomes"]
    assert outcomes["failed"] > 0
    assert any(tag.startswith("text:") and row["failed"]
               for tag, row in outcomes["by_input"].items())


def test_traceback_on_a_cli_error_path_is_caught(tmp_path, monkeypatch):
    """A CLI whose usage-error path crashes fails the run's correctness gate."""
    import run

    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "chordgroups" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    usage_error = 'print(f"error: {exc}", file=sys.stderr)\n        return EXIT_USAGE'
    assert usage_error in text
    cli.write_text(text.replace(usage_error, "raise RuntimeError(exc)"), encoding="utf-8")
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(run.workloads, "cli_commands", lambda seed: [
        ("invalid:classify", ["classify", "0,4,x"], 2, ""),
        ("classify", ["classify", "0,4,7"], 0, "Major0\n"),
    ])
    report = run.cli_loop(seed=1, seconds=0.3)
    by_input = report["outcomes"]["by_input"]
    assert by_input["invalid:classify"]["failed"] == by_input["invalid:classify"]["attempted"] > 0
    assert by_input["classify"]["failed"] == 0
    assert report["outcomes"]["failed"] > 0


def test_known_defects_are_probed_outside_the_timed_stream(monkeypatch):
    """ROADMAP item 4's inputs are reported each run but never timed or counted."""
    import chordgroups

    stream = list(islice(workloads.chord_stream(1), workloads.STREAM_SIZE))
    assert not {q[0] for q in stream} & set(workloads.KNOWN_DEFECT_TONES)

    report = worker.measure("chord-stream", seed=1, seconds=0.3, trace=False, spans_prefix=None)
    rows = report["known_defects"]
    assert len(rows) == sum(map(len, workloads.KNOWN_DEFECT_TONES.values()))
    assert {row["class"] for row in rows} == set(workloads.KNOWN_DEFECT_TONES)

    real = chordgroups.make_chord

    def strict(tones):
        tones = list(tones)
        if any(type(t) is not int for t in tones):
            raise chordgroups.InvalidChordError("tones must be int")
        return real(tones)

    monkeypatch.setattr(chordgroups, "make_chord", strict)
    fixed = worker.measure("chord-stream", seed=1, seconds=0.3, trace=False, spans_prefix=None)
    assert not any(row["fails"] for row in fixed["known_defects"])
    assert fixed["outcomes"]["failed"] == 0


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "chord-stream", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
