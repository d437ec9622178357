"""Acceptance suite: every ``verify`` check, then the CLI golden outputs.

The laws and the hand-written reference tables live in
``chordgroups.verify``, one check each.  This suite runs every check as
its own test id, so ``pytest -v tests/test_acceptance.py`` lists the
checks by name and a failing one reports its detail.  The checks run on
fully enumerated domains (at most a few hundred chords per size), so each
law is verified exhaustively rather than sampled.
"""

from __future__ import annotations

import pytest

from chordgroups.verify import CHECKS

from conftest import GOLDEN_HARMONIC_TETRADS


@pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
def test_check(name, check):
    passed, detail = check()
    assert passed, detail


def test_criterion_8_cli_golden(invoke):
    first = invoke("enumerate", "--tones", "4", "--harmonic")
    second = invoke("enumerate", "--tones", "4", "--harmonic")
    assert first == second == (0, GOLDEN_HARMONIC_TETRADS, "")
    assert len(GOLDEN_HARMONIC_TETRADS.splitlines()) == 25

    code, out, _ = invoke("verify")
    assert code == 0
    assert all(line.endswith("PASS") for line in out.splitlines())

    assert invoke("apply", "i", "not-a-chord")[0] == 2
    assert invoke("enumerate", "--tones", "nope")[0] == 2
