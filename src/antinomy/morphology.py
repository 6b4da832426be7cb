"""Rule-based English surface forms for slot fills.

Small closed rule set, no exception dictionaries. Callers that know an
irregular agent noun pass it as an override. The plural, agentive and
gerund rules each have an inverse candidate generator used by
detection; candidates are verified by re-applying the forward rule, so
the two directions cannot drift.
"""
from __future__ import annotations

from enum import Enum

VOWELS = "aeiou"


class EmptyPhraseError(ValueError):
    """Raised when a surface-form rule is applied to an empty phrase."""


class Derivation(Enum):
    """Surface derivation applied to a slot fill after word choice."""

    AGENTIVE = "agent"
    GERUND = "ger"
    PLURAL = "pl"
    NEGATED_INFINITIVE = "neginf"


def _require(phrase: str) -> None:
    if not phrase:
        raise EmptyPhraseError("empty phrase")


def indefinite_article(phrase: str) -> str:
    """Pick "a" or "an" by the first letter of the phrase."""
    _require(phrase)
    return "an" if phrase[0].lower() in VOWELS else "a"


def agentive(verb: str, override: str | None = None) -> str:
    """Agent noun for a verb: hate -> hater, envy -> envier, kick -> kicker.

    No consonant doubling. An override wins outright, for the handful of
    verbs whose agent noun is lexicalized irregularly.
    """
    if override:
        return override
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


def apply_derivations(word: str, derivations: tuple[Derivation, ...]) -> str:
    """Apply a derivation chain left to right."""
    for step in derivations:
        if step is Derivation.AGENTIVE:
            word = agentive(word)
        elif step is Derivation.GERUND:
            word = gerund(word)
        elif step is Derivation.PLURAL:
            word = pluralize(word)
        else:
            word = negated_infinitive(word)
    return word


def _verified(word: str, raw: list[str], forward) -> tuple[str, ...]:
    # Keep only candidates the forward rule actually maps back to `word`.
    out: list[str] = []
    for cand in raw:
        if cand and cand not in out and forward(cand) == word:
            out.append(cand)
    return tuple(out)


def agentive_bases(word: str) -> tuple[str, ...]:
    """Candidate verbs whose agentive form is `word` (possibly several)."""
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


def plural_bases(word: str) -> tuple[str, ...]:
    """Candidate nouns whose plural is `word`."""
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


def gerund_bases(word: str) -> tuple[str, ...]:
    """Candidate verbs whose gerund is `word`."""
    if not word:
        return ()
    raw = []
    if word.endswith("ying"):
        raw.append(word[:-4] + "ie")
    if word.endswith("ing"):
        raw.append(word[:-3] + "e")
        raw.append(word[:-3])
    return _verified(word, raw, gerund)
