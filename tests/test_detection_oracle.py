"""Differential test: `classify` through its cached dispatch plan and the
per-(base, slot) accepted-forms tables against the loop and the relation
check they replaced, kept as the oracle in oracles.py. The oracle tries
every schema of the registry in order, runs each schema's regex, and for
each check reads the lexicon's pools again and derives every pool word,
for list and tuple registries alike; a synonym slot's miss falls back to
the hand-written suffix inverses in oracles.py, whose forward forms the
tables hold. Then the caches' own safety. The kept plan serves any registry that holds equal
schemas in the same order: one list classified again, a list and a tuple
of the same schemas, and equal copies of them share one plan, while a
changed list gets a new one, and calls that alternate over several
registries, each passed as a tuple, a list and equal copies, classify as
the oracle does. A one-schema match leaves the kept plan in place, and
unknown words leave the memo as it was."""
from __future__ import annotations

import random
from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

from antinomy import (Evidence, EvidenceKind, GenerateError, GeneratedSentence, Lexicon,
                      PartOfSpeech, Relation, Schema, SchemaKind, agentive, classify, detector,
                      dump_catalog, generate, gerund, iter_batch, iter_scan, load_catalog,
                      match_schema, normalize, parse_template, pluralize)
from antinomy.generator import _fill
from conftest import (lex, literal_words, one_edit, one_token_edit, prose_line, random_lexicon,
                      random_template, skeleton_sentence, with_article)
from oracles import reference_classify
from synthetic_lexicon import synthetic_lexicon


def fresh_demo_lexicon() -> Lexicon:
    """The bundled lexicon with an empty memo, so the tables fill during the test."""
    return lex((resources.files("antinomy") / "data" / "demo.lex").read_text())


def random_class_id(rng: random.Random) -> str:
    return f"{rng.randint(1, 40)}{rng.choice(('', 'a', 'n', 'x'))}"


def random_registry(rng: random.Random, registry) -> list[Schema]:
    """User schemas, one with the template of another under its own id and
    one under the id of another, at times one with no literal token, which
    every line tries, and a few built-ins, shuffled."""
    dsls = [with_article(rng, random_template(rng)) for _ in range(rng.randint(1, 4))]
    schemas = [Schema(random_class_id(rng), SchemaKind.PARADOX, parse_template(dsl))
               for dsl in dsls]
    schemas.append(Schema(random_class_id(rng), SchemaKind.TAUTOLOGY,
                          parse_template(rng.choice(dsls))))
    schemas.append(Schema(rng.choice(schemas).class_id, SchemaKind.PARADOX,
                          parse_template(random_template(rng))))
    if rng.random() < 0.5:
        schemas.append(Schema(random_class_id(rng), SchemaKind.PARADOX,
                              parse_template(rng.choice(("{N}", "{N} a(n) {~N}")))))
    schemas += rng.sample(registry, 4)
    rng.shuffle(schemas)
    return schemas


@settings(deadline=None, max_examples=200)
@given(rng=st.randoms(use_true_random=False))
def test_classify_matches_the_oracle(rng, registry):
    lexicon = random_lexicon(rng)
    schemas = random_registry(rng, registry)
    vocabulary = sorted({w for pos in PartOfSpeech for w in lexicon.words(pos)}
                        | {w for schema in schemas for w in literal_words(schema)}
                        | {"a", "an", "not", "to", "gleeb"})
    lines = [prose_line(rng, vocabulary) for _ in range(2)] + ["", "   "]
    for schema in schemas:
        try:
            sentence = generate(lexicon, schema, rng.getrandbits(64)).sentence
        except GenerateError:
            sentence = skeleton_sentence(rng, schema, vocabulary)
        tokens = list(normalize(sentence))
        lines += [sentence, " ".join(one_token_edit(rng, tokens, vocabulary)),
                  one_edit(rng, skeleton_sentence(rng, schema, vocabulary), vocabulary)]
    expected = [reference_classify(lexicon, schemas, line, index)
                for index, line in enumerate(lines)]
    for passed in (schemas, tuple(schemas)):
        assert [classify(lexicon, passed, line, index)
                for index, line in enumerate(lines)] == expected
        assert [found for _, _, found in iter_scan(lexicon, passed, lines, 0.0)] == expected


def test_golden_corpus_and_round_trip_match_the_oracle(registry):
    lexicon = fresh_demo_lexicon()
    text = (resources.files("antinomy") / "data" / "golden_corpus.tsv").read_text()
    golden = [row.split("\t")[2] for row in text.splitlines()
              if row.strip() and not row.startswith("#")]
    round_trip = [s.sentence for s in iter_batch(lexicon, registry, 7, 100)]
    assert len(golden) > 40 and len(round_trip) == 3600
    for passed, lines in ((list(registry), golden), (registry, golden + round_trip)):
        for index, line in enumerate(lines):
            assert (classify(lexicon, passed, line, index)
                    == reference_classify(lexicon, registry, line, index)), line


def suffix_form_lines(lexicon: Lexicon, schemas: list[Schema], count: int) -> list[str]:
    """`count` sentences per schema, each also re-rendered with one
    underived synonym fill replaced by the plural, agent-noun or gerund
    form of a word of that slot's synonym pool; duplicates dropped."""
    forms = {schema.class_id: schema.compiled for schema in schemas}
    lines: list[str] = []
    for item in iter_batch(lexicon, schemas, 1, count):
        assert isinstance(item, GeneratedSentence)
        form = forms[item.class_id]
        bases = dict(item.binding.bases)
        lines.append(item.sentence)
        for slot, (symbol, relation, _, derivations, gid) in enumerate(form.specs):
            if relation is not Relation.SYNONYM or derivations:
                continue
            for word in lexicon.synonym_pool(bases[gid], symbol):
                for derive in (pluralize, agentive, gerund):
                    realized = list(item.binding.realized)
                    realized[slot] = derive(word)
                    lines.append(_fill(form.plan, realized))
    return list(dict.fromkeys(lines))


def test_synonym_suffix_forms_match_the_oracle(registry):
    """Lines carrying the forms the inverse fallback accepts on a synonym
    slot, and the generated sentences they were made from, classify as
    the oracle, which keeps that fallback, classifies them."""
    schemas = [s for s in registry
               if any(relation is Relation.SYNONYM and not derivations
                      for _, relation, _, derivations, _ in s.compiled.specs)]
    assert len(schemas) == 12
    for text, count, sizes in (
            ((resources.files("antinomy") / "data" / "demo.lex").read_text(), 100, (2486, 2138)),
            (synthetic_lexicon(2000, 1), 20, (2482, 2544))):
        lexicon = lex(text)
        lines = suffix_form_lines(lexicon, schemas, count)
        suffix_items = 0
        for index, line in enumerate(lines):
            found = classify(lexicon, registry, line, index, min_score=0)
            assert found == reference_classify(lexicon, registry, line, index), line
            suffix_items += sum(e.kind is EvidenceKind.SUFFIX_INVERSE
                                for d in found for e in d.evidence)
        assert (len(lines), suffix_items) == sizes


def test_a_synonym_that_is_also_a_suffix_form_keeps_its_own_kind():
    lexicon = lex("car\tN\tcars\t\ncars\tN\tcar\t\n")
    schema = Schema("u", SchemaKind.PARADOX, parse_template("{N} of the {N'}."))
    for sentence, kind in (("Car of the cars.", EvidenceKind.LEX_SYNONYM),
                           ("Car of the carses.", EvidenceKind.SUFFIX_INVERSE)):
        assert match_schema(lexicon, schema, sentence).evidence == (Evidence(1, kind),)


HELL = "Hell without hell."


def test_a_list_registry_is_read_afresh_on_each_call(demo_lexicon, registry):
    schemas = [s for s in registry if s.class_id == "10"]
    assert [d.class_id for d in classify(demo_lexicon, schemas, HELL)] == ["10"]
    schemas.append(Schema("10", SchemaKind.TAUTOLOGY, parse_template("{N} without {N}.")))
    assert [d.class_id for d in classify(demo_lexicon, schemas, HELL)] == ["10", "10"]
    schemas[:] = [Schema("u", SchemaKind.PARADOX, parse_template("{N} without {~N}."))]
    assert [d.class_id for d in classify(demo_lexicon, schemas, HELL)] == ["u"]
    schemas.clear()
    assert classify(demo_lexicon, schemas, HELL) == []


def test_match_schema_keeps_the_cached_plan(demo_lexicon, registry, monkeypatch):
    classify(demo_lexicon, registry, HELL)
    plan = detector._last_plan
    assert plan is not None and plan.registry is registry
    built = []
    build = detector._build_plan
    monkeypatch.setattr(detector, "_build_plan",
                        lambda schemas: built.append(schemas) or build(schemas))
    one = next(s for s in registry if s.class_id == "10")
    assert match_schema(demo_lexicon, one, HELL).class_id == "10"
    assert classify(demo_lexicon, registry, HELL)[0].class_id == "10"
    assert detector._last_plan is plan
    assert built == [(one,)]


def count_plans(monkeypatch) -> list[tuple[Schema, ...]]:
    """Forget the kept plan, and record each registry a plan is built for."""
    monkeypatch.setattr(detector, "_last_plan", None)
    built: list[tuple[Schema, ...]] = []
    build = detector._build_plan
    monkeypatch.setattr(detector, "_build_plan",
                        lambda schemas: built.append(schemas) or build(schemas))
    return built


def test_repeated_calls_over_one_list_build_one_plan(demo_lexicon, registry, monkeypatch):
    built = count_plans(monkeypatch)
    schemas = list(registry)
    for _ in range(3):
        assert classify(demo_lexicon, schemas, HELL)[0].class_id == "10"
    assert built == [registry]


def test_a_list_and_a_tuple_of_the_same_schemas_share_one_plan(demo_lexicon, registry,
                                                              monkeypatch):
    built = count_plans(monkeypatch)
    for passed in (list(registry), registry, list(registry), registry):
        assert classify(demo_lexicon, passed, HELL)[0].class_id == "10"
    assert len(built) == 1
    assert detector._last_plan.registry is registry


def test_equal_schemas_reuse_the_kept_plan(registry, monkeypatch):
    copies = load_catalog(dump_catalog(registry))
    assert copies == registry and not any(a is b for a, b in zip(copies, registry))
    lexicon = fresh_demo_lexicon()
    lines = [s.sentence for s in iter_batch(lexicon, registry, 3, 2)] + [HELL, "Nothing."]
    built = count_plans(monkeypatch)
    expected = [classify(lexicon, registry, line, index) for index, line in enumerate(lines)]
    assert [classify(lexicon, copies, line, index)
            for index, line in enumerate(lines)] == expected
    assert [found for _, _, found in iter_scan(lexicon, copies, lines, 0.0)] == expected
    assert built == [registry]


@settings(deadline=None, max_examples=100)
@given(rng=st.randoms(use_true_random=False))
def test_calls_alternating_over_registries_match_the_oracle(rng, registry):
    # Each call may meet the plan another registry left, so one compared
    # wrongly, or kept too long, classifies a line against the wrong schemas.
    lexicon = random_lexicon(rng)
    registries = [random_registry(rng, registry) for _ in range(rng.randint(2, 4))]
    vocabulary = sorted({w for pos in PartOfSpeech for w in lexicon.words(pos)}
                        | {w for schemas in registries for schema in schemas
                           for w in literal_words(schema)})
    lines = [prose_line(rng, vocabulary), ""]
    for schema in rng.sample([s for schemas in registries for s in schemas], 8):
        try:
            lines.append(generate(lexicon, schema, rng.getrandbits(64)).sentence)
        except GenerateError:
            lines.append(skeleton_sentence(rng, schema, vocabulary))
    passed = [(r, form) for r, schemas in enumerate(registries)
              for form in (tuple(schemas), list(schemas),
                           [Schema(s.class_id, s.kind, s.tokens, s.label) for s in schemas])]
    expected: dict[tuple[int, int], list] = {}
    for _ in range(40):
        (r, schemas), index = rng.choice(passed), rng.randrange(len(lines))
        if (r, index) not in expected:
            expected[r, index] = reference_classify(lexicon, registries[r], lines[index], index)
        assert classify(lexicon, schemas, lines[index], index) == expected[r, index]


def test_unknown_words_leave_the_memo_as_it_was(registry):
    lexicon = fresh_demo_lexicon()
    list(iter_scan(lexicon, registry, [HELL, "All is possible, the impossible too."]))
    size = len(lexicon._accepted)
    assert size > 0
    unknown = [f"w{i} without w{i}." for i in range(300)]
    unknown += [f"All is w{i}, the w{i + 1} too." for i in range(300)]
    unknown += [f"Hell without w{i}." for i in range(300)]
    list(iter_scan(lexicon, registry, unknown, 0.0))
    assert len(lexicon._accepted) == size


def test_equal_ranks_keep_registry_order(demo_lexicon):
    # One class id, two literal tokens each and score 0, but indexed under
    # different tokens: only the registry order can order the two.
    first = Schema("u", SchemaKind.PARADOX, parse_template("{N} cats {N}."))
    second = Schema("u", SchemaKind.TAUTOLOGY, parse_template("{N} like {N}."))
    realized = {first: ("some", "like-dogs"), second: ("some-cats", "dogs")}
    for order in ((first, second), (second, first)):
        found = classify(demo_lexicon, order, "Some cats like dogs.")
        assert [d.binding.realized for d in found] == [realized[s] for s in order]
