"""Each mutant in tests/mutants.py still names text that occurs once in its file,
so a source edit that strands a mutant fails here, not only in a full mutant run."""

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    assert (mutants.ROOT / mutant.path).read_text().count(mutant.old) == 1
