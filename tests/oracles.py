"""References that more than one test module judges the package against.

Rule: a reference imports from `antinomy` only record types, the `Lexicon`
read API and the forward surface rules, and reads a schema only through its
tokens. One exception: `reference_classify` splits a line with `normalize`
and tries the schema's compiled regex, required tokens and rank key, which
test_render_oracle.py checks against the ones built from the tokens.
"""
from __future__ import annotations

import re
from typing import Sequence

from antinomy import (Binding, Detection, Evidence, EvidenceKind, Lexicon, PartOfSpeech,
                      Relation, Schema, SlotSpec, SlotToken, agentive, apply_derivations,
                      gerund, negated_infinitive, normalize, pluralize)


def slot_specs(schema: Schema) -> tuple[SlotSpec, ...]:
    """The schema's slot specs in template order; index = the slot's ordinal."""
    return tuple(t.spec for t in schema.tokens if isinstance(t, SlotToken))


def base_ordinals(schema: Schema) -> dict[int, int]:
    """Group id -> ordinal of the group's first bare slot (no ~, no prime,
    no flag), groups in order of first appearance."""
    specs = slot_specs(schema)
    return {gid: next(i for i, s in enumerate(specs) if s.group_id == gid and not s.prime
                      and s.relation is Relation.IDENTITY and not s.derivations)
            for gid in dict.fromkeys(s.group_id for s in specs)}


# The hand-written suffix inverses that `antinomy.morphology`'s one routine
# replaced; test_morphology_oracle.py alone pins that routine to them.
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


class ReferenceSplitMix64:
    """SplitMix64 from the published algorithm: each output steps the
    state by the golden gamma and mixes it in full, and a choice takes
    one output modulo the pool size, also from a one-word pool."""

    def __init__(self, seed: int):
        self.state = seed % 2 ** 64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2 ** 64
        z = self.state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2 ** 64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2 ** 64
        return z ^ (z >> 31)

    def choice(self, pool: Sequence[str]) -> str:
        return pool[self.next_u64() % len(pool)]


def capitalize_first(text: str) -> str:
    for i, c in enumerate(text):
        if c.isalnum():
            return text[:i] + c.upper() + text[i + 1:]
    return text


def reference_check_relation(lexicon: Lexicon, spec: SlotSpec, base: str, realized: str,
                             text: str) -> EvidenceKind | None:
    """The relation check as it was before the accepted-forms tables,
    except that NegInf reads the base as bound, hyphen-joined, as every
    other relation does, not as written."""
    if lexicon.entry(base, spec.symbol) is None:
        return None
    relation = spec.relation
    words = ((base,) if relation is Relation.IDENTITY
             else lexicon.antonym_pool(base, spec.symbol) if relation is Relation.ANTONYM
             else lexicon.synonym_pool(base, spec.symbol))
    if spec.derivations:
        derived = (apply_derivations(w, spec.derivations).replace(" ", "-") for w in words)
        return EvidenceKind.SUFFIX_INVERSE if realized in derived else None
    if realized in words:
        return (EvidenceKind.IDENTITY_REPEAT if relation is Relation.IDENTITY
                else EvidenceKind.LEX_ANTONYM if relation is Relation.ANTONYM
                else EvidenceKind.LEX_SYNONYM)
    if relation is Relation.ANTONYM:
        negated = spec.symbol is PartOfSpeech.VERB and text == negated_infinitive(base)
        return EvidenceKind.NEG_INF if negated else None
    if relation is Relation.SYNONYM:
        stripped = {*reference_plural_bases(realized), *reference_agentive_bases(realized),
                    *reference_gerund_bases(realized)}
        return None if stripped.isdisjoint(words) else EvidenceKind.SUFFIX_INVERSE
    return None


def reference_detection(lexicon: Lexicon, schema: Schema, match: re.Match[str],
                        sentence_index: int) -> Detection:
    """Each non-base slot checked against its group's base, in slot order."""
    captured = match.groups()
    joined = [c.replace(" ", "-") for c in captured]
    base_of = base_ordinals(schema)
    checks = [(slot, spec, base_of[spec.group_id])
              for slot, spec in enumerate(slot_specs(schema)) if slot != base_of[spec.group_id]]
    evidence: list[Evidence] = []
    for slot, spec, base_slot in checks:
        kind = reference_check_relation(lexicon, spec, joined[base_slot], joined[slot],
                                        captured[slot])
        if kind is not None:
            evidence.append(Evidence(slot, kind))
    checked, satisfied = len(checks), len(evidence)
    score = satisfied / checked if checked else 1.0
    bases = tuple([(gid, joined[slot]) for gid, slot in base_of.items()])
    return Detection(schema.class_id, Binding(bases, tuple(joined)), score, checked,
                     satisfied, sentence_index, tuple(evidence))


def reference_classify(lexicon: Lexicon, registry, sentence: str,
                       sentence_index: int = 0) -> list[Detection]:
    """classify as it was before the dispatch plan: every schema in
    registry order, its literals tested, then its own regex."""
    tokens = normalize(sentence)
    if not tokens:
        return []
    text = " ".join(tokens)
    present = set(tokens)
    ranked = []
    for schema in registry:
        form = schema.compiled
        if not form.required <= present:
            continue
        match = form.regex.fullmatch(text)
        if match is None:
            continue
        detection = reference_detection(lexicon, schema, match, sentence_index)
        ranked.append((-detection.score, form.rank_key, detection))
    ranked.sort(key=lambda item: item[:2])
    return [item[2] for item in ranked]
