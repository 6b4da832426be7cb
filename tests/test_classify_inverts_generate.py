"""`classify` inverts `generate`: the top detection of a generated
sentence recovers its schema, its binding and, slot by slot, the
evidence that generation's choices predict.

- Its class is the generating one, or one whose regex is the same.
- Its score is 1.0.
- Its bases are the generated ones.
- Its realized fills are the generated ones, with spaces read as
  hyphens: generate keeps "not to speak", classify reports
  "not-to-speak".
- Each check's evidence kind: SuffixInverse for a derived slot,
  IdentityRepeat for an identity slot, LexSynonym for a synonym slot,
  LexAntonym for an antonym slot, or NegInf where the base has no
  antonym and generation falls back to "not to <base>".

This holds over the built-ins with the bundled lexicon and a synthetic
one, and over random user templates and lexicons.
"""
from __future__ import annotations

import random
from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

from antinomy import (EvidenceKind, GenerateError, GeneratedSentence, Lexicon, Relation,
                      Schema, SchemaKind, classify, generate, iter_batch, parse_template)
from conftest import lex, random_lexicon_source, random_template
from synthetic_lexicon import synthetic_lexicon


def predicted_evidence(lexicon: Lexicon, schema: Schema,
                       out: GeneratedSentence) -> list[tuple[int, EvidenceKind]]:
    """(slot, kind) per check, from the choices generation made."""
    form = schema.compiled
    bases = dict(out.binding.bases)
    predicted = []
    for slot, check, _ in form.checks:
        base = bases[form.specs[slot].group_id]
        if check.derivations:
            kind = EvidenceKind.SUFFIX_INVERSE
        elif check.relation is Relation.IDENTITY:
            kind = EvidenceKind.IDENTITY_REPEAT
        elif check.relation is Relation.SYNONYM:
            kind = EvidenceKind.LEX_SYNONYM
        elif lexicon.antonym_pool(base, check.symbol):
            kind = EvidenceKind.LEX_ANTONYM
        else:
            kind = EvidenceKind.NEG_INF
        predicted.append((slot, kind))
    return predicted


def assert_read_back(lexicon: Lexicon, registry, schema: Schema, out: GeneratedSentence) -> None:
    found = classify(lexicon, registry, out.sentence)
    assert found, out.sentence
    top = found[0]
    pattern = schema.compiled.pattern
    assert any(s.class_id == top.class_id and s.compiled.pattern == pattern
               for s in registry), (out, top)
    assert top.score == 1.0, (out, top)
    assert top.binding.bases == out.binding.bases, (out, top)
    assert top.binding.realized == tuple(r.replace(" ", "-") for r in out.binding.realized)
    assert ([(e.slot, e.kind) for e in top.evidence]
            == predicted_evidence(lexicon, schema, out)), (out, top)


def test_the_built_ins_read_back(registry):
    by_id = {schema.class_id: schema for schema in registry}
    assert len(by_id) == len(registry)
    for text, count in (((resources.files("antinomy") / "data" / "demo.lex").read_text(), 100),
                        (synthetic_lexicon(2000, 1), 20)):
        lexicon = lex(text)
        read = 0
        for out in iter_batch(lexicon, registry, 7, count):
            assert isinstance(out, GeneratedSentence)
            assert_read_back(lexicon, registry, by_id[out.class_id], out)
            read += 1
        assert read == count * len(registry)


@settings(deadline=None, max_examples=500)
@given(template_seed=st.integers(0, 2 ** 32), lexicon_seed=st.integers(0, 2 ** 32),
       seed=st.integers(0, 2 ** 64 - 1))
def test_random_templates_and_lexicons_read_back(template_seed, lexicon_seed, seed):
    lexicon = lex(random_lexicon_source(random.Random(lexicon_seed)))
    schema = Schema("u", SchemaKind.PARADOX,
                    parse_template(random_template(random.Random(template_seed))))
    try:
        out = generate(lexicon, schema, seed)
    except GenerateError:
        return
    assert_read_back(lexicon, [schema], schema, out)
