"""Differential test: the one suffix-undo routine behind plural_bases,
agentive_bases and gerund_bases against the three hand-written inverses
it replaced, which are kept here as the reference."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antinomy import (agentive, agentive_bases, gerund, gerund_bases, plural_bases,
                      pluralize)


def _verified(word: str, raw: list[str], forward) -> tuple[str, ...]:
    # Keep only candidates the forward rule actually maps back to `word`.
    out: list[str] = []
    for cand in raw:
        if cand and cand not in out and forward(cand) == word:
            out.append(cand)
    return tuple(out)


def reference_agentive_bases(word: str) -> tuple[str, ...]:
    if not word:
        return ()
    raw = []
    if word.endswith("ier"):
        raw.append(word[:-3] + "y")
    if word.endswith("r"):
        raw.append(word[:-1])
    if word.endswith("er"):
        raw.append(word[:-2])
    return _verified(word, raw, agentive)


def reference_plural_bases(word: str) -> tuple[str, ...]:
    if not word:
        return ()
    raw = []
    if word.endswith("ies"):
        raw.append(word[:-3] + "y")
    if word.endswith("es"):
        raw.append(word[:-2])
    if word.endswith("s"):
        raw.append(word[:-1])
    return _verified(word, raw, pluralize)


def reference_gerund_bases(word: str) -> tuple[str, ...]:
    if not word:
        return ()
    raw = []
    if word.endswith("ying"):
        raw.append(word[:-4] + "ie")
    if word.endswith("ing"):
        raw.append(word[:-3] + "e")
        raw.append(word[:-3])
    return _verified(word, raw, gerund)


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
