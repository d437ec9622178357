from __future__ import annotations

import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from chordgroups import core, transform
from chordgroups.cli import main
from chordgroups.transform import Operator


def pytest_runtest_makereport(item, call):
    """Load hypothesis's patch writer before its plugin does, with deprecations muted.

    After a failing ``@given`` test the hypothesis plugin imports
    ``hypothesis.extra._patching``, which imports ``libcst`` where it is
    installed; ``libcst`` imports ``mypy_extensions.TypedDict``, whose
    DeprecationWarning under ``-W error`` ends the pytest session with an
    INTERNALERROR.  Imported here first, the plugin's import is a cache hit.
    """
    if getattr(item, "_hypothesis_failing_examples", None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:  # no libcst: the plugin skips its patch too
                pass


SRC = str(Path(__file__).resolve().parent.parent / "src")
# perfbench/oracle.py, the library-free oracle of gaps, gap actions, chords, labels
# and export digests; appended last, so its directory shadows no module
PERFBENCH = str(Path(SRC).parent / "perfbench")
sys.path.append(PERFBENCH)


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter that imports the package from this checkout; it must exit 0.

    Any other exit fails the calling test with the child's stderr as the message.
    """
    result = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result


def snapshot_caches() -> list:
    """The dicts the library fills on first use, each with a copy of its contents."""
    caches = core.CHORD_ROWS, core.CHORD_SIZES, core._CHORD_TEXTS, core._FIBERS, transform._ORBITS
    return [(cache, dict(cache)) for cache in caches]


def restore_caches(snapshot: list) -> None:
    # other tests hold the store's own tuples and compare them by identity
    for cache, contents in snapshot:
        cache.clear()
        cache.update(contents)


@pytest.fixture
def restored_caches():
    snapshot = snapshot_caches()
    yield
    restore_caches(snapshot)


def drop_the_chord_store() -> None:
    core.CHORD_ROWS.clear()
    core.CHORD_SIZES.clear()


def race(work, offsets) -> list:
    """``work(offset)`` in one thread per offset, all started at once; the results in order.

    A 1 µs switch interval puts a thread switch between almost any two
    bytecodes, so the threads' fills of a shared cache overlap.
    """
    start = threading.Barrier(len(offsets))

    def run(offset):
        start.wait(timeout=60)
        return work(offset)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(offsets)) as pool:
            return list(pool.map(run, offsets, timeout=60))
    finally:
        sys.setswitchinterval(interval)


# The tone-level oracle: each operator's tone formula from the README's
# operator table, kept separate from the library's gap permutations and from
# oracle.GAP_ACTION, so each checks the others.
def _invert_by_tones(chord):
    if len(chord) < 2:
        return chord
    a1 = chord[1]
    return (0, *(tone - a1 for tone in chord[2:]), 12 - a1)


def _dual_by_tones(chord):
    return (0, *(12 - tone for tone in reversed(chord[1:])))


def _augdim_by_tones(chord):
    _, a1, a2, a3 = chord
    return (0, a1, a1 + a3 - a2, a3)


TONE_FORMULAS = {
    Operator.INVERSION: _invert_by_tones,
    Operator.DUALITY: _dual_by_tones,
    Operator.AUGDIM: _augdim_by_tones,
}


GOLDEN_HARMONIC_TETRADS = """\
0,1,4,8 mM3
0,1,5,8 MM3
0,1,5,9 AM3
0,2,5,8 dm3
0,2,5,9 mm3
0,2,6,9 Mm3
0,3,4,8 AM2
0,3,5,8 mm2
0,3,5,9 Mm2
0,3,6,8 Mm1
0,3,6,9 dd0
0,3,6,10 dm0
0,3,7,8 MM1
0,3,7,9 dm1
0,3,7,10 mm0
0,3,7,11 mM0
0,4,5,8 mM2
0,4,5,9 MM2
0,4,6,9 dm2
0,4,7,8 AM1
0,4,7,9 mm1
0,4,7,10 Mm0
0,4,7,11 MM0
0,4,8,9 mM1
0,4,8,11 AM0
"""

GOLDEN_HARMONIC_TRIADS = """\
0,3,6 Diminished0
0,3,7 Minor0
0,3,8 Major1
0,3,9 Diminished1
0,4,7 Major0
0,4,8 Augmented0
0,4,9 Minor1
0,5,8 Minor2
0,5,9 Major2
0,6,9 Diminished2
"""


@pytest.fixture
def invoke(capsys):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""

    def run(*argv: str):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    return run
