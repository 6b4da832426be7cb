"""Property test for the dispatch plan's token bounds: each unit skips a
line whose token count its regex cannot match, so every line the regex
fullmatches must have a count inside the unit's range, and sentences at
both edges of the range, one token and MAX_SLOT_SPAN tokens per slot,
must classify as the oracle does. `test_classify_matches_the_oracle`
stays the differential test for the whole of classify."""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from antinomy import (PartOfSpeech, Schema, SchemaKind, classify, detector, normalize,
                      parse_template)
from antinomy.schema import MAX_SLOT_SPAN
from conftest import (literal_words, one_edit, random_template, skeleton_sentence, with_article,
                      with_edges)
from oracles import reference_classify

# Templates with no literal token, which every line tries.
NO_LITERAL = ("{N}", "{N} {~N}", "{N} a(n) {~N}", "A(n) {A} {A'}")


@settings(deadline=None, max_examples=250)
@given(rng=st.randoms(use_true_random=False))
def test_every_match_has_a_token_count_inside_the_bounds(rng, demo_lexicon):
    dsl = (rng.choice(NO_LITERAL) if rng.random() < 0.2
           else with_edges(rng, with_article(rng, random_template(rng))))
    schema = Schema("u", SchemaKind.PARADOX, parse_template(dsl))
    plan = detector._build_plan((schema,))
    (unit,) = [*plan.always, *(u for units in plan.index.values() for u in units)]
    lexicon_words = sorted({w for pos in PartOfSpeech for w in demo_lexicon.words(pos)})
    words = literal_words(schema) + ["a", "an"] + rng.sample(lexicon_words, 12)
    low = skeleton_sentence(rng, schema, words, (1, 1))
    high = skeleton_sentence(rng, schema, words, (MAX_SLOT_SPAN, MAX_SLOT_SPAN))
    assert len(normalize(low)) == unit.lengths.start
    assert len(normalize(high)) == unit.lengths[-1]
    for edge in (low, high):
        found = classify(demo_lexicon, [schema], edge)
        assert found and found == reference_classify(demo_lexicon, [schema], edge), edge
    sentences = [one_edit(rng, sentence, words) for sentence in (low, high)]
    sentences += [one_edit(rng, skeleton_sentence(rng, schema, words), words) for _ in range(4)]
    for sentence in sentences:
        tokens = normalize(sentence)
        if unit.regex.fullmatch(" ".join(tokens)):
            assert len(tokens) in unit.lengths, sentence
        assert (classify(demo_lexicon, [schema], sentence)
                == reference_classify(demo_lexicon, [schema], sentence)), sentence
