"""Detection: anchor a schema's literal skeleton, then audit relations.

Matching is two-phase. Phase one aligns the whole normalized token
sequence against the schema: literals must appear verbatim, slots
capture one to three tokens, shortest capture first, leftmost binding
wins. Only that first alignment is scored, even when another one would
satisfy more relations (README detection rule 2). A schema whose
literal tokens are not all among the sentence's tokens cannot align, so
it is not tried; this saves time and changes no result. Phase two
walks the schema's compiled checks, one (slot, spec, base slot) per
non-base slot, and audits each by one rule: the realized word must be
in the relation's word set (the base, its antonyms, or its synonyms and
the base), or for a derived slot be a set word's derived form. Two
fallbacks follow a miss: NegInf for an antonym verb slot, SuffixInverse
for a synonym slot. Each satisfied check records one evidence item.
The skeleton decides whether a sentence has a schema's shape; the
relations decide the score. An unknown base word leaves its relations
checked but unsatisfied, so a skeleton-only match scores 0. A corpus is
classified one line at a time by `iter_scan`, so a caller that writes
each line's detections as they come holds one line at a time;
`scan_corpus` collects them.
"""
from __future__ import annotations

import re
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

from .lexicon import Lexicon, PartOfSpeech
from .morphology import (agentive_bases, apply_derivations, gerund_bases,
                         negated_infinitive, plural_bases)
from .schema import Binding, CompiledSchema, Relation, Schema, SlotSpec, normalize


class EvidenceKind(Enum):
    LEX_ANTONYM = "LexAntonym"
    LEX_SYNONYM = "LexSynonym"
    NEG_INF = "NegInf"
    SUFFIX_INVERSE = "SuffixInverse"
    IDENTITY_REPEAT = "IdentityRepeat"


class Evidence(NamedTuple):
    slot: int
    kind: EvidenceKind


class Detection(NamedTuple):
    class_id: str
    binding: Binding
    score: float
    relations_checked: int
    relations_satisfied: int
    sentence_index: int
    evidence: tuple[Evidence, ...]


def _check_relation(lexicon: Lexicon, spec: SlotSpec, base: str, realized: str,
                    base_text: str, text: str) -> EvidenceKind | None:
    """Evidence kind if the slot's relation to its base holds, else None.
    `base` and `realized` are captures as reported, tokens joined by
    hyphens; `base_text` and `text` are captures as matched, joined by
    spaces. The realized word must be in the relation's word set, or for
    a derived slot be a set word's derived form, tried in sorted word
    order so the calls made do not depend on string hashing. Otherwise
    an antonym verb slot accepts the base verb's negated infinitive (NegInf),
    and a synonym slot a suffixed form of a set word (SuffixInverse)."""
    entry = lexicon.entry(base, spec.symbol)
    if entry is None:
        return None
    relation = spec.relation
    words = ({base} if relation is Relation.IDENTITY
             else entry.antonyms if relation is Relation.ANTONYM
             else lexicon.synonyms(base, spec.symbol))
    if spec.derivations:
        derived = (apply_derivations(w, spec.derivations).replace(" ", "-") for w in sorted(words))
        return EvidenceKind.SUFFIX_INVERSE if realized in derived else None
    if realized in words:
        return (EvidenceKind.IDENTITY_REPEAT if relation is Relation.IDENTITY
                else EvidenceKind.LEX_ANTONYM if relation is Relation.ANTONYM
                else EvidenceKind.LEX_SYNONYM)
    if relation is Relation.ANTONYM:
        negated = spec.symbol is PartOfSpeech.VERB and text == negated_infinitive(base_text)
        return EvidenceKind.NEG_INF if negated else None
    if relation is Relation.SYNONYM:
        stripped = {*plural_bases(realized), *agentive_bases(realized), *gerund_bases(realized)}
        return EvidenceKind.SUFFIX_INVERSE if stripped & words else None
    return None


def _detection(lexicon: Lexicon, class_id: str, form: CompiledSchema,
               match: re.Match[str], sentence_index: int) -> Detection:
    captured = match.groups()
    joined = [c.replace(" ", "-") for c in captured]
    evidence: list[Evidence] = []
    for slot, spec, base_slot in form.checks:
        kind = _check_relation(lexicon, spec, joined[base_slot], joined[slot],
                               captured[base_slot], captured[slot])
        if kind is not None:
            evidence.append(Evidence(slot, kind))
    checked, satisfied = len(form.checks), len(evidence)
    score = satisfied / checked if checked else 1.0
    bases = tuple([(group.group_id, joined[group.base_ordinal]) for group in form.groups])
    return Detection(class_id, Binding(bases, tuple(joined)), score, checked,
                     satisfied, sentence_index, tuple(evidence))


def match_schema(lexicon: Lexicon, schema: Schema, sentence: str,
                 sentence_index: int = 0) -> Detection | None:
    """Match one schema against one sentence; None when the skeleton is absent."""
    found = classify(lexicon, (schema,), sentence, sentence_index)
    return found[0] if found else None


def classify(lexicon: Lexicon, registry: Sequence[Schema], sentence: str,
             sentence_index: int = 0) -> list[Detection]:
    """All matching schemas, best first.

    Ranking: score, then literal token count (more anchoring text wins),
    then the natural class id order, so byte-identical patterns resolve
    to the lower id.
    """
    tokens = normalize(sentence)
    if not tokens:
        return []
    text = " ".join(tokens)
    present = set(tokens)
    ranked: list[tuple[float, tuple[int, tuple[int, str]], Detection]] = []
    for schema in registry:
        form = schema.compiled
        if not form.required <= present:
            continue
        match = form.regex.fullmatch(text)
        if match is None:
            continue
        detection = _detection(lexicon, schema.class_id, form, match, sentence_index)
        ranked.append((-detection.score, form.rank_key, detection))
    ranked.sort(key=lambda item: item[:2])
    return [item[2] for item in ranked]


def iter_scan(lexicon: Lexicon, registry: Sequence[Schema], lines: Iterable[str],
              min_score: float = 0.5) -> Iterator[tuple[int, str, list[Detection]]]:
    """Classify each line as it is read: per line, `(index, line, kept)`,
    where `kept` holds the line's detections scoring at or above
    min_score, best first, and may be empty."""
    for index, line in enumerate(lines):
        yield index, line, [d for d in classify(lexicon, registry, line, sentence_index=index)
                            if d.score >= min_score]


def scan_corpus(lexicon: Lexicon, registry: Sequence[Schema], lines: Iterable[str],
                min_score: float = 0.5) -> tuple[list[Detection], dict[str, int]]:
    """`iter_scan` collected: every kept detection, and a count table.

    The count table tallies each line's top kept detection only, so one
    line increments one class, and starts at zero for every registry
    class.
    """
    counts = {schema.class_id: 0 for schema in registry}
    detections: list[Detection] = []
    for _, _, kept in iter_scan(lexicon, registry, lines, min_score):
        detections.extend(kept)
        if kept:
            counts[kept[0].class_id] += 1
    return detections, counts
