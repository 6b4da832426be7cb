"""Sentence generation: fill schema slots from a lexicon, deterministically.

All randomness flows through one SplitMix64 stream per sentence. Base
word, antonym and synonym pools are filtered and sorted once per
lexicon, and a draw happens exactly once per choice point, so equal
(lexicon, schema, seed, overrides) always yields the identical
sentence. Candidate filtering happens before sampling; a group with an
empty pool raises NoCandidateError instead of rejection loops. A batch
is made one item at a time by `iter_batch`, so a caller that writes each
item as it comes holds one sentence at a time; `generate_batch` collects
the same items into lists.
"""
from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple, Sequence

from .lexicon import Lexicon, PartOfSpeech
from .morphology import apply_derivations, indefinite_article, negated_infinitive
from .rng import SplitMix64, sub_seed
from .schema import ARTICLE_MARKERS, Binding, GroupPlan, Relation, Schema


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


class GeneratedSentence(NamedTuple):
    class_id: str
    sentence: str
    seed: int
    binding: Binding


class SkippedSchema(NamedTuple):
    class_id: str
    reason: str


class BatchResult(NamedTuple):
    sentences: tuple[GeneratedSentence, ...]
    skips: tuple[SkippedSchema, ...]


def _render(pieces: Sequence[str | int], realized: Sequence[str]) -> str:
    """The pieces filled from the right, each article marker resolved against
    the text after it; a marker inside a slot fill is printed as it is."""
    text = ""
    for piece in reversed(pieces):
        if isinstance(piece, int):
            piece = realized[piece]
        elif piece in ARTICLE_MARKERS:
            tail = text.lstrip()
            article = indefinite_article(tail) if tail else "a"
            piece = article.capitalize() if piece[0] == "A" else article
        text = piece + text
    return text


def _capitalize_first(text: str) -> str:
    for i, c in enumerate(text):
        if c.isalnum():
            return text[:i] + c.upper() + text[i + 1:]
    return text


def _refusal(lexicon: Lexicon, group: GroupPlan, word: str) -> str | None:
    """Why the group cannot take the lower-case `word` as its base word,
    or None when the pool the group draws from holds it:
    words_with_antonyms(pos) if the group needs an antonym, else words(pos)."""
    pos = group.pos
    if lexicon.entry(word, pos) is None:
        return f"not a known {pos.value} word"
    if group.needs_antonym and not lexicon.antonyms(word, pos):
        return ("word has no antonym and is not a verb" if pos is not PartOfSpeech.VERB
                else "verb has no antonym for its derived antonym slot")
    return None


def generate(lexicon: Lexicon, schema: Schema, seed: int = 0,
             overrides: Mapping[int, str] | None = None) -> GeneratedSentence:
    """Produce one sentence from the schema.

    Base words are drawn per group from the sorted candidate pool, or
    taken from `overrides` (group id -> word) when that pool holds the
    word; an override for a group the schema lacks is ignored. Antonym
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
            reason = _refusal(lexicon, group, word)
            if reason is not None:
                raise BadOverrideError(gid, word, reason)
            bases[gid] = word
            continue
        pool = lexicon.words_with_antonyms(pos) if group.needs_antonym else lexicon.words(pos)
        if not pool:
            raise NoCandidateError(schema.class_id, gid)
        bases[gid] = rng.choice(pool)

    used_synonyms: dict[int, set[str]] = {}
    realized: list[str] = []
    for spec in form.specs:
        base = bases[spec.group_id]
        if spec.relation is Relation.IDENTITY:
            word = base
        elif spec.relation is Relation.ANTONYM:
            antonyms = lexicon.antonym_pool(base, spec.symbol)
            if antonyms:
                word = rng.choice(antonyms)
            else:
                # Candidate filtering leaves this branch to bare verb slots.
                word = negated_infinitive(base)
        else:
            synonyms = lexicon.synonym_pool(base, spec.symbol)
            used = used_synonyms.setdefault(spec.group_id, set())
            unused = [w for w in synonyms if w not in used]
            pool = ([w for w in unused if w != base] or unused
                    or [w for w in synonyms if w != base])
            word = rng.choice(pool) if pool else base
            used.add(word)
        realized.append(apply_derivations(word, spec.derivations))

    sentence = _capitalize_first(_render(form.pieces, realized))
    return GeneratedSentence(schema.class_id, sentence, seed,
                             Binding(tuple(bases.items()), tuple(realized)))


def _overrides_per_schema(lexicon: Lexicon, schemas: Sequence[Schema],
                          overrides: Mapping[int, str]) -> list[dict[int, str]]:
    """Per schema, the overrides whose group there accepts the word (see
    _refusal). An override that no schema's group accepts raises
    BadOverrideError: first one whose group no schema has, in the order
    given, then the one refused first, with that group's reason."""
    if not overrides:
        return [{} for _ in schemas]      # and compile no schema
    per_schema: list[dict[int, str]] = []
    refusals: dict[int, str] = {}
    for schema in schemas:
        accepted: dict[int, str] = {}
        for group in schema.compiled.groups:
            gid = group.group_id
            if gid in overrides:
                reason = _refusal(lexicon, group, overrides[gid].lower())
                if reason is None:
                    accepted[gid] = overrides[gid]
                else:
                    refusals.setdefault(gid, reason)
        per_schema.append(accepted)
    taken = {gid for accepted in per_schema for gid in accepted}
    for gid in [g for g in overrides if g not in refusals] + list(refusals):
        if gid not in taken:
            reason = refusals.get(gid, f"no selected class has group {gid}")
            raise BadOverrideError(gid, overrides[gid].lower(), reason)
    return per_schema


def iter_batch(lexicon: Lexicon, schemas: Sequence[Schema], seed: int, count: int,
               overrides: Mapping[int, str] | None = None
               ) -> Iterator[GeneratedSentence | SkippedSchema]:
    """Generate `count` sentences per schema, one at a time.

    Iteration is schema-major: item (schema i, repetition r) uses
    sub_seed(seed, i*count + r), so a skipped schema never shifts the
    seeds of later items. A schema whose pool comes up empty yields one
    SkippedSchema in place of its remaining sentences. An override
    applies to each group whose candidate pool holds its word; the other
    schemas draw as usual. The overrides are judged by this call, before
    the first item is made: one that no selected group accepts raises
    BadOverrideError here, also when count is 0.
    """
    per_schema = _overrides_per_schema(lexicon, schemas, overrides or {})
    return _batch_items(lexicon, schemas, per_schema, seed, count)


def _batch_items(lexicon: Lexicon, schemas: Sequence[Schema],
                 per_schema: Sequence[Mapping[int, str]], seed: int,
                 count: int) -> Iterator[GeneratedSentence | SkippedSchema]:
    for i, (schema, schema_overrides) in enumerate(zip(schemas, per_schema)):
        for rep in range(count):
            try:
                sentence = generate(lexicon, schema, sub_seed(seed, i * count + rep),
                                    schema_overrides)
            except NoCandidateError as err:
                yield SkippedSchema(schema.class_id, str(err))
                break
            yield sentence


def generate_batch(lexicon: Lexicon, schemas: Sequence[Schema], seed: int,
                   count: int, overrides: Mapping[int, str] | None = None) -> BatchResult:
    """`iter_batch` collected: its sentences and its skips, each in order."""
    items = list(iter_batch(lexicon, schemas, seed, count, overrides))
    return BatchResult(tuple(s for s in items if isinstance(s, GeneratedSentence)),
                       tuple(s for s in items if isinstance(s, SkippedSchema)))
