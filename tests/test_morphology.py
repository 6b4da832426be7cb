from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from antinomy import (Derivation, EmptyPhraseError, agentive, agentive_bases,
                      apply_derivations, gerund, gerund_bases,
                      indefinite_article, negated_infinitive, plural_bases,
                      pluralize)
from antinomy.lexicon import WORD_PATTERN

AGENTIVE_CASES = [
    ("hate", "hater"),
    ("envy", "envier"),
    ("kick", "kicker"),
    ("vote", "voter"),
    ("justify", "justifier"),
    ("play", "player"),
    ("see", "seer"),
]

PLURAL_CASES = [
    ("hater", "haters"),
    ("fly", "flies"),
    ("box", "boxes"),
    ("church", "churches"),
    ("dish", "dishes"),
    ("quiz", "quizes"),
    ("day", "days"),
    ("bus", "buses"),
]

GERUND_CASES = [
    ("strike", "striking"),
    ("fight", "fighting"),
    ("vote", "voting"),
    ("tie", "tying"),
    ("see", "seeing"),
    ("envy", "envying"),
]


@pytest.mark.parametrize("verb,expected", AGENTIVE_CASES)
def test_agentive(verb, expected):
    assert agentive(verb) == expected


@pytest.mark.parametrize("noun,expected", PLURAL_CASES)
def test_pluralize(noun, expected):
    assert pluralize(noun) == expected


@pytest.mark.parametrize("verb,expected", GERUND_CASES)
def test_gerund(verb, expected):
    assert gerund(verb) == expected


def test_negated_infinitive():
    assert negated_infinitive("speak") == "not to speak"


def test_indefinite_article():
    assert indefinite_article("impossible possibility") == "an"
    assert indefinite_article("sad happiness") == "a"
    assert indefinite_article("Ugly duckling") == "an"


@pytest.mark.parametrize("op", [agentive, pluralize, gerund, negated_infinitive,
                                indefinite_article])
def test_empty_phrase_rejected(op):
    with pytest.raises(EmptyPhraseError):
        op("")


def test_apply_derivations_chain():
    chain = (Derivation.AGENTIVE, Derivation.PLURAL)
    assert apply_derivations("hate", chain) == "haters"
    assert apply_derivations("speak", (Derivation.NEGATED_INFINITIVE,)) == "not to speak"
    assert apply_derivations("word", ()) == "word"


WORDS = st.from_regex(r"[a-z]{1,12}", fullmatch=True)
# Every word a lexicon can hold: digits, inner hyphens and apostrophes too.
# Detection's synonym tables list the forward forms in place of these
# inverses, which is exact only while the two agree on every such word.
LEXICON_WORDS = st.from_regex(WORD_PATTERN, fullmatch=True)


@given(LEXICON_WORDS)
def test_plural_bases_recover_input(word):
    assert word in plural_bases(pluralize(word))


@given(LEXICON_WORDS)
def test_agentive_bases_recover_input(word):
    assert word in agentive_bases(agentive(word))


@given(LEXICON_WORDS)
def test_gerund_bases_recover_input(word):
    assert word in gerund_bases(gerund(word))


@given(LEXICON_WORDS)
def test_inverse_candidates_verify_forward(word):
    # Every candidate any inverse offers must map back exactly.
    for candidate in plural_bases(word):
        assert pluralize(candidate) == word
    for candidate in agentive_bases(word):
        assert agentive(candidate) == word
    for candidate in gerund_bases(word):
        assert gerund(candidate) == word


@given(WORDS)
def test_derivations_change_the_word(word):
    for op in (agentive, pluralize, gerund, negated_infinitive):
        assert op(word) != word


def test_inverse_candidates_may_be_plural_ambiguous():
    # "flies" strips to both "fly" and "flie"; lexicon membership decides later.
    assert set(plural_bases("flies")) == {"fly", "flie"}
    assert plural_bases("sky") == ()
