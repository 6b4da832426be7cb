"""Differential test: a floor applied inside `classify` against the full
list filtered afterwards. `classify(..., min_score=f)` and `iter_scan`
at floor f must return `[d for d in classify(...) if d.score >= f]`,
item for item and in order. Registries hold templates of two and three
checks, whose scores of 1/3, 1/2 and 2/3 meet the floors of the same
value, so the `>=` edge is crossed from both sides."""
from __future__ import annotations

import math
import random
import re
from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

from antinomy import (GenerateError, Lexicon, PartOfSpeech, Schema, SchemaKind, classify,
                      generate, iter_batch, iter_scan, normalize, parse_template)
from conftest import (lex, literal_words, one_edit, random_lexicon_source, random_template,
                      skeleton_sentence, with_article)

FLOORS = (0.0, 1 / 3, 1 / 2, 2 / 3, 1.0)


def assert_floors_filter(lexicon: Lexicon, registry, lines: list[str]) -> None:
    full = [classify(lexicon, registry, line, index) for index, line in enumerate(lines)]
    for floor in FLOORS:
        expected = [[d for d in found if d.score >= floor] for found in full]
        assert [classify(lexicon, registry, line, index, min_score=floor)
                for index, line in enumerate(lines)] == expected, floor
        assert [kept for _, _, kept in iter_scan(lexicon, registry, lines, floor)] == expected


# Per symbol, the bodies of slots that a check audits against the group's base.
CHECKED = {"N": ("~N", "N'", "N''", "N", "N:pl"),
           "V": ("~V", "V'", "V", "V:ger", "V:agent+pl"),
           "A": ("~A", "A'", "A")}


def schema_with_checks(rng: random.Random, count: int) -> Schema:
    """A random schema of one or two groups whose slots hold exactly
    `count` relation checks, separated by literal words."""
    symbols = rng.sample(sorted(CHECKED), rng.randint(1, 2))
    slots = [f"{{{symbol}}}" for symbol in symbols]
    slots += [f"{{{rng.choice(CHECKED[rng.choice(symbols)])}}}" for _ in range(count)]
    rng.shuffle(slots)
    dsl = " ".join(slot + " " + rng.choice(("so", "of", "under", ",")) for slot in slots)
    schema = Schema(f"c{count}", SchemaKind.PARADOX, parse_template(with_article(rng, dsl)))
    assert len(schema.compiled.checks) == count
    return schema


def refilled(rng: random.Random, schema: Schema, sentence: str, words: list[str]) -> str:
    """The sentence with one slot's capture replaced by a word, so that a
    sentence satisfying every check at times satisfies all but one."""
    text = " ".join(normalize(sentence))
    match = re.fullmatch(schema.compiled.pattern, text)
    if match is None:
        return sentence
    start, end = match.span(rng.randrange(len(schema.compiled.specs)) + 1)
    return text[:start] + rng.choice(words) + text[end:]


@settings(deadline=None, max_examples=150)
@given(rng=st.randoms(use_true_random=False))
def test_floor_keeps_what_the_full_list_scores_at_or_above_it(rng, registry):
    lexicon = lex(random_lexicon_source(rng))
    schemas = [schema_with_checks(rng, 2), schema_with_checks(rng, 3),
               Schema("u", SchemaKind.PARADOX, parse_template(random_template(rng))),
               *rng.sample(registry, 3)]
    rng.shuffle(schemas)
    words = sorted({w for pos in PartOfSpeech for w in lexicon.words(pos)}
                   | {w for schema in schemas for w in literal_words(schema)}
                   | {"a", "an", "gleeb"})
    lines = ["", "Gleeb."]
    for schema in schemas:
        try:
            sentence = generate(lexicon, schema, rng.getrandbits(64)).sentence
        except GenerateError:
            sentence = skeleton_sentence(rng, schema, words)
        once = refilled(rng, schema, sentence, words)
        lines += [sentence, once, refilled(rng, schema, once, words),
                  one_edit(rng, skeleton_sentence(rng, schema, words), words)]
    assert_floors_filter(lexicon, schemas, lines)


def test_floor_on_the_golden_corpus_and_round_trip(demo_lexicon, registry):
    text = (resources.files("antinomy") / "data" / "golden_corpus.tsv").read_text()
    golden = [row.split("\t")[2] for row in text.splitlines()
              if row.strip() and not row.startswith("#")]
    round_trip = [s.sentence for s in iter_batch(demo_lexicon, registry, 7, 100)]
    assert len(golden) > 40 and len(round_trip) == 3600
    assert_floors_filter(demo_lexicon, registry, golden + round_trip)


WORST = lex("worst\tN\t\t\n")
THREE = Schema("3", SchemaKind.PARADOX, parse_template("{N} of the {N'} of the {N''} or {N'''}."))


def test_a_score_equal_to_the_floor_is_kept():
    for sentence, score in (("Worst of the worst of the gleeb or gleeb.", 1 / 3),
                            ("Worst of the worst of the worst or gleeb.", 2 / 3)):
        (found,) = classify(WORST, [THREE], sentence)
        assert found.score == score
        assert classify(WORST, [THREE], sentence, min_score=score) == [found]
        assert classify(WORST, [THREE], sentence, min_score=math.nextafter(score, 1)) == []
