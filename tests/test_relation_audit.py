"""Differential test: the relation audit over each schema's compiled
(slot, check, base slot) checks against the per-relation audit it
replaced, kept here as the reference. It walks the slots read from the
schema's tokens, skips base slots, reads an entry's sets (the oracle in
oracles.py reads pools) and falls back to the suffix inverses of
oracles.py. Each capture is carried as a token tuple and hyphen-joined;
NegInf compares the tokens with "not", "to" and the base as bound. The
audit under test is reached through `match_schema`, which must return a
detection wherever the schema's regex matches."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antinomy import (Detection, Evidence, EvidenceKind, GenerateError, Lexicon,
                      PartOfSpeech, Relation, Schema, SchemaKind, SlotSpec, apply_derivations,
                      classify, generate, match_schema, normalize, parse_template)
from antinomy.generator import Binding
from antinomy.schema import CompiledSchema, LiteralToken, RelationCheck
from conftest import (hand_built_entries, lex, one_token_edit, random_lexicon_source,
                      random_template)
from oracles import (base_ordinals, reference_agentive_bases, reference_gerund_bases,
                     reference_plural_bases, slot_specs)


def reference_check_relation(lexicon: Lexicon, spec: SlotSpec, base: str, realized: str,
                             span: tuple[str, ...]) -> EvidenceKind | None:
    entry = lexicon.entry(base, spec.symbol)
    if entry is None:
        return None
    words = ({base} if spec.relation is Relation.IDENTITY
             else entry.antonyms if spec.relation is Relation.ANTONYM
             else entry.synonyms | {base})
    if spec.derivations:
        if any(apply_derivations(w, spec.derivations).replace(" ", "-") == realized
               for w in sorted(words)):
            return EvidenceKind.SUFFIX_INVERSE
        return None
    if spec.relation is Relation.IDENTITY:
        return EvidenceKind.IDENTITY_REPEAT if realized == base else None
    if spec.relation is Relation.ANTONYM:
        if realized in words:
            return EvidenceKind.LEX_ANTONYM
        if spec.symbol is PartOfSpeech.VERB and span == ("not", "to", base):
            return EvidenceKind.NEG_INF
        return None
    if realized in words:
        return EvidenceKind.LEX_SYNONYM
    stripped: set[str] = set()
    for invert in (reference_plural_bases, reference_agentive_bases, reference_gerund_bases):
        stripped.update(invert(realized))
    if stripped & words:
        return EvidenceKind.SUFFIX_INVERSE
    return None


def reference_detection(lexicon: Lexicon, schema: Schema, match,
                        sentence_index: int) -> Detection:
    captured = match.groups()
    spans = [tuple(c.split(" ")) for c in captured]
    joined = [c.replace(" ", "-") for c in captured]
    base_of = base_ordinals(schema)
    bases = {gid: joined[slot] for gid, slot in base_of.items()}

    checked = satisfied = 0
    evidence: list[Evidence] = []
    for i, spec in enumerate(slot_specs(schema)):
        if i == base_of[spec.group_id]:
            continue
        checked += 1
        kind = reference_check_relation(lexicon, spec, bases[spec.group_id], joined[i],
                                        spans[i])
        if kind is not None:
            satisfied += 1
            evidence.append(Evidence(i, kind))
    score = satisfied / checked if checked else 1.0
    return Detection(schema.class_id, Binding(tuple(bases.items()), tuple(joined)), score,
                     checked, satisfied, sentence_index, tuple(evidence))


def refilled_from_reference(rng: random.Random, lexicon: Lexicon, form: CompiledSchema,
                            tokens: list[str]) -> list[str]:
    """The tokens with one checked slot refilled from the word set that the
    reference reads for its base, or unchanged when none is at hand, so
    that a lexicon pool that drifts from its entry's set shows."""
    match = form.regex.fullmatch(" ".join(tokens))
    if match is None or not form.checks:
        return tokens
    slot, spec, base_slot = rng.choice(form.checks)
    base = match.group(base_slot + 1).replace(" ", "-")
    entry = lexicon.entry(base, spec.symbol)
    words = (set() if entry is None else {base} if spec.relation is Relation.IDENTITY
             else entry.antonyms if spec.relation is Relation.ANTONYM
             else entry.synonyms | {base})
    if not words:
        return tokens
    word = apply_derivations(rng.choice(sorted(words)), spec.derivations)
    start, end = match.span(slot + 1)
    return list(normalize(match.string[:start] + word + match.string[end:]))


@settings(deadline=None, max_examples=250)
@given(rng=st.randoms(use_true_random=False))
def test_audit_matches_reference(rng, demo_lexicon, registry):
    if rng.random() < 0.3:
        lexicon, schemas = demo_lexicon, rng.sample(registry, 6)
    else:
        lexicon = lex(random_lexicon_source(rng))
        # One-way antonyms and self-listed synonyms, where a stored pool
        # could drift from the entry's set that the reference reads.
        added = hand_built_entries(rng, lexicon)
        if added:
            lexicon = Lexicon({**{(e.surface, e.pos): e for e in lexicon.entries()}, **added})
        schemas = [Schema("u", SchemaKind.PARADOX, parse_template(random_template(rng))),
                   *rng.sample(registry, 2)]
    words = [w for pos in PartOfSpeech for w in lexicon.words(pos)] + ["not", "to", "gleeb"]
    words += [t for schema in schemas for token in schema.tokens
              if isinstance(token, LiteralToken) for t in normalize(token.text)]
    sentences: list[list[str]] = []
    for schema in schemas:
        for _ in range(2):
            try:
                out = generate(lexicon, schema, rng.getrandbits(64))
            except GenerateError:
                break
            tokens = list(normalize(out.sentence))
            words += tokens
            sentences += [tokens, one_token_edit(rng, tokens, words),
                          refilled_from_reference(rng, lexicon, schema.compiled, tokens)]
    for index, tokens in enumerate(sentences):
        text = " ".join(tokens)
        for schema in schemas:
            match = schema.compiled.regex.fullmatch(text)
            if match is not None:
                assert (match_schema(lexicon, schema, text, index)
                        == reference_detection(lexicon, schema, match, index)), text


@settings(deadline=None, max_examples=200)
@given(rng=st.randoms(use_true_random=False))
def test_checks_hold_every_non_base_slot_once(rng, registry):
    schema = (rng.choice(registry) if rng.random() < 0.3 else
              Schema("u", SchemaKind.PARADOX, parse_template(random_template(rng))))
    form = schema.compiled
    base_of = base_ordinals(schema)
    assert [(g.group_id, g.base_ordinal) for g in form.groups] == list(base_of.items())
    assert form.checks == tuple(
        (i, RelationCheck(spec.symbol, spec.relation, spec.derivations), base_of[spec.group_id])
        for i, spec in enumerate(slot_specs(schema)) if i != base_of[spec.group_id])


def test_slots_that_differ_in_prime_or_group_alone_share_one_table():
    # The forms a slot accepts depend on its base, symbol, relation and
    # derivations only, so all three checks read one table.
    lexicon = lex("car\tN\tauto\t\nauto\tN\tcar\t\n")
    schema = Schema("u", SchemaKind.PARADOX,
                    parse_template("{N#1} is {N'#1} or {N''#1}, {N#2} is {N'#2}."))
    det = match_schema(lexicon, schema, "Car is auto or car, car is auto.")
    assert det is not None and det.score == 1.0 and det.relations_checked == 3
    assert len(lexicon._accepted) == 1


SPEAK = lex("speak\tV\t\t\n")
NEGATION = Schema("9", SchemaKind.PARADOX, parse_template("{~V} sometimes means to {V}."))


@pytest.mark.parametrize("sentence", ["Not to-speak sometimes means to speak.",
                                      "Not-to speak sometimes means to speak."])
def test_negated_infinitive_needs_three_separate_tokens(sentence):
    det = match_schema(SPEAK, NEGATION, sentence)
    assert det is not None
    assert det.binding.realized == ("not-to-speak", "speak")
    assert det.score == 0.0
    assert det.evidence == ()


def test_negated_infinitive_over_separate_tokens():
    det = match_schema(SPEAK, NEGATION, "Not to speak sometimes means to speak.")
    assert det is not None
    assert det.binding.realized == ("not-to-speak", "speak")
    assert det.score == 1.0
    assert det.evidence == (Evidence(0, EvidenceKind.NEG_INF),)


GIVE_UP = lex("give-up\tV\t\tkeep\nkeep\tV\t\t\n")


def test_negated_infinitive_reads_the_base_as_bound(registry):
    # "Give up" and "Give-up" both bind the base give-up, so "not to
    # give-up" negates it however the base was written.
    spaced, hyphened = (classify(GIVE_UP, registry, f"{base} what one not to give-up.")
                        for base in ("Give up", "Give-up"))
    assert spaced[:1] == hyphened[:1]
    det = spaced[0]
    assert det.class_id == "13"
    assert det.binding.realized == ("give-up", "not-to-give-up")
    assert det.score == 1.0
    assert det.evidence == (Evidence(1, EvidenceKind.NEG_INF),)
