"""Rule-based English surface forms for slot fills.

Small closed rule set, no exception dictionaries. DERIVATION_RULES is
the one table of the template flags: each flag's rule, the slot symbol
it applies to and the one it yields, read by `apply_derivations` and by
the template parser. The plural, agentive and gerund rules each have an
inverse candidate generator: one routine undoes the rule's suffixes and
keeps the candidates that re-applying the forward rule maps back, so the
two directions cannot drift. Detection no longer uses the inverses: a
synonym slot's table of accepted forms lists the forward forms.
"""
from __future__ import annotations

from enum import Enum
from typing import Callable

VOWELS = "aeiou"


class EmptyPhraseError(ValueError):
    """Raised when a surface-form rule is applied to an empty phrase."""


class Derivation(Enum):
    """Surface derivation applied to a slot fill after word choice."""

    AGENTIVE = "agent"
    GERUND = "ger"
    PLURAL = "pl"
    NEGATED_INFINITIVE = "neginf"

    # Members are singletons compared by identity, so the identity hash agrees
    # with == and spares each DERIVATION_RULES lookup Enum's Python-level hash.
    __hash__ = object.__hash__


def _require(phrase: str) -> None:
    if not phrase:
        raise EmptyPhraseError("empty phrase")


def indefinite_article(phrase: str) -> str:
    """Pick "a" or "an" by the first letter of the phrase."""
    _require(phrase)
    return "an" if phrase[0].lower() in VOWELS else "a"


def agentive(verb: str) -> str:
    """Agent noun for a verb: hate -> hater, envy -> envier, kick -> kicker.
    No consonant doubling."""
    _require(verb)
    if verb.endswith("e"):
        return verb + "r"
    if verb.endswith("y") and len(verb) >= 2 and verb[-2] not in VOWELS:
        return verb[:-1] + "ier"
    return verb + "er"


def pluralize(noun: str) -> str:
    """hater -> haters, fly -> flies, box -> boxes."""
    _require(noun)
    if noun.endswith("y") and len(noun) >= 2 and noun[-2] not in VOWELS:
        return noun[:-1] + "ies"
    if noun.endswith(("s", "x", "z", "ch", "sh")):
        return noun + "es"
    return noun + "s"


def gerund(verb: str) -> str:
    """strike -> striking, fight -> fighting, vote -> voting, tie -> tying.

    A single trailing "e" is dropped, "ee" is kept (see -> seeing).
    No consonant doubling, so some real verbs come out nonstandard;
    the bundled lexicon simply avoids those.
    """
    _require(verb)
    if verb.endswith("ie"):
        return verb[:-2] + "ying"
    if verb.endswith("e") and not verb.endswith("ee"):
        return verb[:-1] + "ing"
    return verb + "ing"


def negated_infinitive(verb: str) -> str:
    """speak -> "not to speak"."""
    _require(verb)
    return "not to " + verb


# flag -> (its rule, the slot symbol it applies to, the symbol it yields);
# "P", a phrase, takes no further flag.
DERIVATION_RULES: dict[Derivation, tuple[Callable[[str], str], str, str]] = {
    Derivation.AGENTIVE: (agentive, "V", "N"),
    Derivation.GERUND: (gerund, "V", "N"),
    Derivation.PLURAL: (pluralize, "N", "N"),
    Derivation.NEGATED_INFINITIVE: (negated_infinitive, "V", "P"),
}


def apply_derivations(word: str, derivations: tuple[Derivation, ...]) -> str:
    """Apply a derivation chain left to right."""
    for step in derivations:
        word = DERIVATION_RULES[step][0](word)
    return word


def _bases(word: str, forward: Callable[[str], str],
           rules: tuple[tuple[str, str], ...]) -> tuple[str, ...]:
    """Undo each (suffix, restored ending) rule in order; keep the distinct
    non-empty candidates that `forward` maps back to `word`."""
    out: list[str] = []
    for suffix, ending in rules:
        if word.endswith(suffix):
            cand = word[:-len(suffix)] + ending
            if cand and cand not in out and forward(cand) == word:
                out.append(cand)
    return tuple(out)


def agentive_bases(word: str) -> tuple[str, ...]:
    """Candidate verbs whose agentive form is `word` (possibly several)."""
    return _bases(word, agentive, (("ier", "y"), ("r", ""), ("er", "")))


def plural_bases(word: str) -> tuple[str, ...]:
    """Candidate nouns whose plural is `word`."""
    return _bases(word, pluralize, (("ies", "y"), ("es", ""), ("s", "")))


def gerund_bases(word: str) -> tuple[str, ...]:
    """Candidate verbs whose gerund is `word`."""
    return _bases(word, gerund, (("ying", "ie"), ("ing", "e"), ("ing", "")))
