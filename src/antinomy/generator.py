"""Sentence generation: fill schema slots from a lexicon, deterministically.

All randomness flows through one SplitMix64 stream per sentence. Base
word pools are filtered and sorted once per lexicon, and a draw happens
exactly once per choice point, so equal (lexicon, schema, seed,
overrides) always yields the identical sentence. Candidate filtering
happens before sampling; a group with an empty pool raises
NoCandidateError instead of rejection loops.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .lexicon import Lexicon, PartOfSpeech
from .morphology import apply_derivations, indefinite_article, negated_infinitive
from .rng import SplitMix64, sub_seed
from .schema import ARTICLE_MARKER_RE, Relation, Schema


class GenerateError(Exception):
    """Base class for generation failures."""


class NoCandidateError(GenerateError):
    """No lexicon word can fill the group under the schema's constraints."""

    def __init__(self, class_id: str, group_id: int):
        super().__init__(f"class {class_id}: no candidate word for group {group_id}")
        self.class_id = class_id
        self.group_id = group_id


class BadOverrideError(GenerateError):
    """A --slot override names a word the group cannot accept."""

    def __init__(self, group_id: int, word: str, reason: str):
        super().__init__(f"override {group_id}={word}: {reason}")
        self.group_id = group_id
        self.word = word


@dataclass(frozen=True)
class Binding:
    """Chosen base word per group, plus every slot's realized surface."""

    bases: dict[int, str]
    realized: tuple[str, ...]


@dataclass(frozen=True)
class GeneratedSentence:
    class_id: str
    sentence: str
    seed: int
    binding: Binding


@dataclass(frozen=True)
class SkippedSchema:
    class_id: str
    reason: str


@dataclass(frozen=True)
class BatchResult:
    sentences: tuple[GeneratedSentence, ...]
    skips: tuple[SkippedSchema, ...]


def _fix_articles(text: str) -> str:
    def repl(m) -> str:
        tail = text[m.end():].lstrip()
        article = indefinite_article(tail) if tail else "a"
        return article.capitalize() if m.group(0)[0] == "A" else article
    return ARTICLE_MARKER_RE.sub(repl, text)


def _capitalize_first(text: str) -> str:
    for i, c in enumerate(text):
        if c.isalpha():
            return text[:i] + c.upper() + text[i + 1:]
    return text


def generate(lexicon: Lexicon, schema: Schema, seed: int = 0,
             overrides: Mapping[int, str] | None = None) -> GeneratedSentence:
    """Produce one sentence from the schema.

    Base words are drawn per group from the sorted candidate pool, or
    taken from `overrides` (group id -> word) after validation. Antonym
    slots draw from the word's antonyms; a bare verb antonym slot falls
    back to "not to <verb>" for an antonym-less verb. Synonym-prime slots
    prefer a synonym that is neither the base nor already used by an
    earlier prime slot of the group, relaxing in that order until a pool
    is non-empty.
    """
    rng = SplitMix64(seed)
    form = schema.compiled
    overrides = overrides or {}

    bases: dict[int, str] = {}
    for group in form.groups:
        gid, pos = group.group_id, group.pos
        if gid in overrides:
            word = overrides[gid].lower()
            if lexicon.entry(word, pos) is None:
                raise BadOverrideError(gid, word, f"not a known {pos.value} word")
            if group.needs_antonym and not lexicon.antonyms(word, pos):
                reason = ("word has no antonym and is not a verb" if pos is not PartOfSpeech.VERB
                          else "verb has no antonym for its derived antonym slot")
                raise BadOverrideError(gid, word, reason)
            bases[gid] = word
            continue
        pool = lexicon.words_with_antonyms(pos) if group.needs_antonym else lexicon.words(pos)
        if not pool:
            raise NoCandidateError(schema.class_id, gid)
        bases[gid] = rng.choice(pool)

    used_synonyms: dict[int, set[str]] = {gid: set() for gid in bases}
    realized: list[str] = []
    for spec in form.specs:
        base = bases[spec.group_id]
        if spec.relation is Relation.IDENTITY:
            word = base
        elif spec.relation is Relation.ANTONYM:
            antonyms = sorted(lexicon.antonyms(base, spec.symbol))
            if antonyms:
                word = rng.choice(antonyms)
            else:
                # Candidate filtering leaves this branch to bare verb slots.
                word = negated_infinitive(base)
        else:
            synonyms = lexicon.synonyms(base, spec.symbol)
            used = used_synonyms[spec.group_id]
            for pool_set in (synonyms - used - {base}, synonyms - used, synonyms - {base}):
                if pool_set:
                    word = rng.choice(sorted(pool_set))
                    break
            else:
                word = base
            used_synonyms[spec.group_id].add(word)
        realized.append(apply_derivations(word, spec.derivations))

    sentence = _capitalize_first(_fix_articles(form.text_format.format(*realized)))
    return GeneratedSentence(schema.class_id, sentence, seed,
                             Binding(bases, tuple(realized)))


def _overrides_per_schema(lexicon: Lexicon, schemas: Sequence[Schema],
                          overrides: Mapping[int, str]) -> list[Mapping[int, str]]:
    """Per schema, the overrides whose word its group's part of speech
    holds. An override that no schema's group can hold is kept for every
    schema, so generation reports it as a BadOverrideError."""
    def fits(schema: Schema, gid: int, word: str) -> bool:
        return any(group.group_id == gid and lexicon.entry(word, group.pos) is not None
                   for group in schema.compiled.groups)

    usable = {gid for gid, word in overrides.items()
              if any(fits(schema, gid, word) for schema in schemas)}
    return [{gid: word for gid, word in overrides.items()
             if gid not in usable or fits(schema, gid, word)}
            for schema in schemas]


def generate_batch(lexicon: Lexicon, schemas: Sequence[Schema], seed: int,
                   count: int, overrides: Mapping[int, str] | None = None) -> BatchResult:
    """Generate `count` sentences per schema.

    Iteration is schema-major: item (schema i, repetition r) uses
    sub_seed(seed, i*count + r), so a skipped schema never shifts the
    seeds of later items. A schema whose pool comes up empty is skipped
    once and recorded; bad overrides are caller errors and propagate.
    An override applies to the groups whose part of speech holds its
    word, and is an error only when no schema has such a group.
    """
    sentences: list[GeneratedSentence] = []
    skips: list[SkippedSchema] = []
    per_schema = _overrides_per_schema(lexicon, schemas, overrides or {})
    for i, (schema, schema_overrides) in enumerate(zip(schemas, per_schema)):
        for rep in range(count):
            item_seed = sub_seed(seed, i * count + rep)
            try:
                sentences.append(generate(lexicon, schema, item_seed, schema_overrides))
            except NoCandidateError as err:
                skips.append(SkippedSchema(schema.class_id, str(err)))
                break
    return BatchResult(tuple(sentences), tuple(skips))
