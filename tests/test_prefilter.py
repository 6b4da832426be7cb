"""Differential test: classify with the required-literal prefilter against
the loop it replaced, which tries every schema's regex and is kept here
as the reference. The reference builds each detection by `match_schema`,
which must return one wherever the schema's regex matches, so a token
bound that rules out a sentence the regex matches fails here too."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antinomy import (Detection, PartOfSpeech, Schema, SchemaKind, classify, generate,
                      match_schema, normalize, parse_template)
from conftest import (literal_words, one_edit, prose_line, random_template, skeleton_sentence,
                      with_article)


def reference_classify(lexicon, registry, sentence: str,
                       sentence_index: int = 0) -> list[Detection]:
    """classify without the prefilter: every schema's regex is tried."""
    tokens = normalize(sentence)
    if not tokens:
        return []
    text = " ".join(tokens)
    ranked = []
    for schema in registry:
        form = schema.compiled
        match = form.regex.fullmatch(text)
        if match is None:
            continue
        detection = match_schema(lexicon, schema, sentence, sentence_index)
        assert detection is not None, (schema.class_id, sentence)
        ranked.append((-detection.score, form.rank_key, detection))
    ranked.sort(key=lambda item: item[:2])
    return [item[2] for item in ranked]


@pytest.fixture(scope="session")
def vocabulary(demo_lexicon, registry) -> list[str]:
    """Lexicon words, the built-in literals and both articles."""
    words = {w for pos in PartOfSpeech for w in demo_lexicon.words(pos)}
    words.update(w for schema in registry for w in literal_words(schema))
    return sorted(words | {"a", "an"})


@settings(deadline=None, max_examples=300)
@given(rng=st.randoms(use_true_random=False))
def test_prefilter_keeps_classify_results(rng, demo_lexicon, registry, vocabulary):
    if rng.random() < 0.3:
        schema = rng.choice(registry)
        schemas = registry
    else:
        schema = Schema("u", SchemaKind.PARADOX,
                        parse_template(with_article(rng, random_template(rng))))
        schemas = (*registry, schema)
    words = literal_words(schema) + ["a", "an"] + rng.sample(vocabulary, 12)
    sentences = [prose_line(rng, vocabulary)]
    if schema.class_id != "u":
        sentences.append(one_edit(rng, generate(demo_lexicon, schema,
                                                rng.getrandbits(64)).sentence, words))
    for _ in range(6):
        sentences.append(one_edit(rng, skeleton_sentence(rng, schema, words), words))
    for sentence in sentences:
        assert (classify(demo_lexicon, schemas, sentence)
                == reference_classify(demo_lexicon, schemas, sentence)), sentence


@pytest.mark.parametrize("dsl,required", [
    ("{N} is a(n) {N}.", {"is", "."}),
    ("An {N} is A(n) {N}.", {"an", "is", "."}),
    ("{A}; {~A}", {";"}),
    ("{N} isn't self-made {~N}.", {"isn't", "self-made", "."}),
    ("{A} Don’t {~A}!", {"don't", "!"}),
    ("{N} {~N}", set()),
])
def test_required_literal_tokens(dsl, required):
    assert Schema("u", SchemaKind.PARADOX, parse_template(dsl)).compiled.required == required
