"""The answer digests of tests/digests.py, on a tenth of each corpus.

tests/digests.py checks the full corpora; this runs every tenth input (or a
tenth as many draws) against the digests recorded for that size, so a changed
answer on any corpus fails Tier-1 too.
"""

import pytest

import digests

RECORDED = digests.recorded()["tenth"]


@pytest.mark.parametrize("name", list(digests.CORPORA))
def test_answers_match_the_recorded_digest(name):
    assert digests.digest(name, digests.SIZES["tenth"]) == RECORDED[name]
