from __future__ import annotations

import pytest

from chordgroups.cli import main


def gaps(chord):
    """The gap sequence of a chord, computed without the library."""
    return [b - a for a, b in zip(chord, chord[1:])] + [12 - chord[-1]]


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
