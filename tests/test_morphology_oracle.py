"""Differential test: the one suffix-undo routine behind plural_bases,
agentive_bases and gerund_bases, which no other test module imports,
against the three hand-written inverses it replaced, kept in oracles.py."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antinomy import (agentive, agentive_bases, gerund, gerund_bases, plural_bases,
                      pluralize)
from oracles import reference_agentive_bases, reference_gerund_bases, reference_plural_bases


PAIRS = (
    (plural_bases, reference_plural_bases),
    (agentive_bases, reference_agentive_bases),
    (gerund_bases, reference_gerund_bases),
)

# Words glued from the pieces the suffix rules look at, so most end in
# one suffix or several overlapping ones.
_PIECES = ("ies", "es", "s", "ier", "er", "r", "ying", "ing", "ie", "ee", "e", "y",
           "a", "o", "t", "x", "z", "ch", "sh")
SUFFIX_HEAVY = st.lists(st.sampled_from(_PIECES), max_size=4).map("".join)
FORWARD_IMAGES = st.builds(lambda word, forward: forward(word),
                           st.from_regex(r"[a-z]{1,10}", fullmatch=True),
                           st.sampled_from((pluralize, agentive, gerund)))


@settings(max_examples=1000, deadline=None)
@given(SUFFIX_HEAVY | FORWARD_IMAGES)
def test_bases_match_the_hand_written_inverses(word):
    for bases, reference in PAIRS:
        assert bases(word) == reference(word)


@pytest.mark.parametrize("length", range(6))
def test_bases_match_on_every_short_word(length):
    # Every word up to five letters over the letters the suffixes use.
    for letters in itertools.product("eginrsy", repeat=length):
        word = "".join(letters)
        for bases, reference in PAIRS:
            assert bases(word) == reference(word), word
