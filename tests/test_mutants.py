"""The mutants of ``tests/mutants.py`` stay applicable: each one's old text
occurs exactly once in today's ``src/``, so a change that edits a mutated
line must update its triple instead of leaving the mutation gate void."""

import pytest

from mutants import ALL, LABELS, occurrences


@pytest.mark.parametrize("triple", ALL, ids=LABELS)
def test_mutant_applies_exactly_once(triple):
    assert occurrences(triple) == 1
