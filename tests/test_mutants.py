"""The mutation gate of ``tests/mutants.py``: every listed fault is caught by its tests."""

import os

import pytest
from mutants import MUTANTS, ROOT, run


def test_every_mutant_still_applies_once():
    """Each mutant's old text occurs exactly once in its file.

    A refactor that moves, rewrites or duplicates mutated code fails here:
    it must update the mutant's old and new text in ``tests/mutants.py``,
    so that the gate keeps mutating the code it was written for.
    """
    assert len({m.name for m in MUTANTS}) == len(MUTANTS) >= 10
    for m in MUTANTS:
        text = (ROOT / m.path).read_text(encoding="utf-8")
        assert text.count(m.old) == 1, m.name
        assert m.new != m.old and m.tests, m.name


@pytest.mark.skipif(
    os.environ.get("SPATENT_MUTANTS") != "1",
    reason="set SPATENT_MUTANTS=1 to run the mutation gate",
)
def test_every_mutant_is_killed():
    outcomes = {m.name: run(m)[0] for m in MUTANTS}
    assert {name: o for name, o in outcomes.items() if o != "killed"} == {}
