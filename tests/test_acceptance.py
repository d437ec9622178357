"""Acceptance suite: every ``verify`` check, one test id each.

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


@pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
def test_check(name, check):
    passed, detail = check()
    assert passed, detail
