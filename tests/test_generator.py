from __future__ import annotations

import copy
import linecache
import pickle
import random
import traceback

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antinomy import (BadOverrideError, LexEntry, Lexicon, LiteralToken, NoCandidateError,
                      PartOfSpeech, SchemaKind, Schema, SlotToken, SplitMix64, classify,
                      generate, generate_batch, parse_template, sub_seed)
from antinomy import generator
from antinomy.generator import _draw_source, _fill
from antinomy.schema import _render_plan
from conftest import lex, make_schema, random_template, with_article, with_edges
from oracles import ReferenceSplitMix64

N = PartOfSpeech.NOUN

# Published reference outputs for seed 0.
SEED0_OUTPUTS = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_splitmix64_reference_outputs():
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in range(3)) == SEED0_OUTPUTS


def test_splitmix64_seed_masked_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


def test_sub_seed_is_nth_output():
    for seed in (0, 42, 2**63):
        rng = SplitMix64(seed)
        outputs = [rng.next_u64() for _ in range(5)]
        assert [sub_seed(seed, i) for i in range(5)] == outputs


def test_choice_empty_pool_raises():
    with pytest.raises(IndexError):
        SplitMix64(1).choice([])


# 0 stands for a next_u64 call, n > 0 for a choice from an n-word pool;
# one-word pools come often, as they do in demo.lex.
_STEPS = st.lists(st.just(1) | st.integers(min_value=0, max_value=60), max_size=40)


@settings(deadline=None, max_examples=500)
@given(seed=st.integers(min_value=-2 ** 70, max_value=2 ** 70), steps=_STEPS)
def test_choice_and_next_u64_follow_the_reference_stream(seed, steps):
    # Each choice advances the stream by one step, whatever its pool's
    # size, so every later output equals the reference's.
    rng, reference = SplitMix64(seed), ReferenceSplitMix64(seed)
    for n in steps:
        if n:
            pool = [f"w{i}" for i in range(n)]
            assert rng.choice(pool) == reference.choice(pool)
        else:
            assert rng.next_u64() == reference.next_u64()
    assert [rng.next_u64() for _ in range(3)] == [reference.next_u64() for _ in range(3)]


def test_choice_depends_on_pool_order():
    a = SplitMix64(5).choice(["x", "y", "z"])
    b = SplitMix64(5).choice(["z", "y", "x"])
    assert {a, b} <= {"x", "y", "z"}
    # same draw, different pool order, different element unless it hit the middle
    assert (a == b) == (a == "y")


OPPOSITES = lex(
    "possible\tA\t\timpossible\n"
    "impossible\tA\t\tpossible\n"
)


def test_override_fills_the_base_group():
    schema = make_schema("1", "All is {A}, the {~A} too.")
    out = generate(OPPOSITES, schema, seed=3, overrides={0: "possible"})
    assert out.sentence == "All is possible, the impossible too."
    assert out.binding.bases == ((0, "possible"),)
    assert out.binding.realized == ("possible", "impossible")
    assert out.class_id == "1"
    assert out.seed == 3


def test_override_is_case_insensitive():
    schema = make_schema("1", "All is {A}, the {~A} too.")
    out = generate(OPPOSITES, schema, overrides={0: "Possible"})
    assert out.binding.bases == ((0, "possible"),)


def test_generation_is_deterministic():
    schema = make_schema("1", "All is {A}, the {~A} too.")
    runs = {generate(OPPOSITES, schema, seed=9).sentence for _ in range(5)}
    assert len(runs) == 1


def test_different_seeds_cover_the_pool():
    schema = make_schema("1", "All is {A}, the {~A} too.")
    seen = {dict(generate(OPPOSITES, schema, seed=s).binding.bases)[0] for s in range(20)}
    assert seen == {"possible", "impossible"}


def test_no_candidate_when_pos_is_empty():
    schema = make_schema("10", "{N} without {N}.")
    with pytest.raises(NoCandidateError) as err:
        generate(OPPOSITES, schema)
    assert err.value.class_id == "10"
    assert err.value.group_id == 0


def test_no_candidate_when_no_word_has_an_antonym():
    lonely = lex("lone\tA\t\t\n")
    schema = make_schema("16", "{~A} is {A}.")
    with pytest.raises(NoCandidateError):
        generate(lonely, schema)


def test_verb_without_antonym_negates_the_infinitive():
    verbs = lex("wait\tV\t\t\n")
    schema = make_schema("7", "To {V}, even when {~V}.")
    out = generate(verbs, schema)
    assert out.sentence == "To wait, even when not to wait."


def test_lexical_antonym_wins_over_negation():
    verbs = lex("appear\tV\t\tdisappear\ndisappear\tV\t\tappear\n")
    schema = make_schema("7", "To {V}, even when {~V}.")
    for seed in range(10):
        out = generate(verbs, schema, seed=seed)
        assert "not to" not in out.sentence


MIXED_VERBS = lex("speak\tV\t\t\nwin\tV\t\tlose\nlose\tV\t\twin\n")


@pytest.mark.parametrize("dsl,sentence", [("I {V} by {~V:ger}.", "I win by losing."),
                                          ("I {V}, {~V:neginf}.", "I win, not to lose.")])
def test_derived_verb_antonym_slot_needs_a_lexical_antonym(dsl, sentence):
    # "speak" has no antonym to derive from: no "not to speaking" and no
    # "not to not to speak".
    schema = make_schema("u", dsl)
    bases = {dict(generate(MIXED_VERBS, schema, seed=s).binding.bases)[0] for s in range(20)}
    assert bases == {"win", "lose"}
    assert generate(MIXED_VERBS, schema, overrides={0: "win"}).sentence == sentence
    with pytest.raises(BadOverrideError, match="verb has no antonym"):
        generate(MIXED_VERBS, schema, overrides={0: "speak"})


def test_synonym_primes_prefer_distinct_words():
    nouns = lex(
        "alpha\tN\tbeta,gamma\t\n"
        "beta\tN\talpha,gamma\t\n"
        "gamma\tN\talpha,beta\t\n"
    )
    schema = make_schema("20b", "{N} of the {N'} of the {N''}.")
    out = generate(nouns, schema, overrides={0: "alpha"})
    assert out.binding.realized[0] == "alpha"
    assert set(out.binding.realized[1:]) == {"beta", "gamma"}


def test_synonym_primes_relax_to_reuse_when_starved():
    nouns = lex("alpha\tN\tbeta\t\nbeta\tN\talpha\t\n")
    schema = make_schema("20b", "{N} of the {N'} of the {N''}.")
    out = generate(nouns, schema, overrides={0: "alpha"})
    # only one synonym exists, so the third slot falls back to the base
    assert out.binding.realized == ("alpha", "beta", "alpha")


def test_synonym_prime_without_any_synonym_repeats_the_base():
    nouns = lex("echo\tN\t\t\n")
    schema = make_schema("20a", "{N} of the {N'}.")
    out = generate(nouns, schema)
    assert out.sentence == "Echo of the echo."


def test_article_resolves_against_next_word():
    nouns = lex("end\tN\t\torigin\norigin\tN\t\tend\n")
    schema = make_schema("3n", "Only {N} is truly a(n) {~N}.")
    out = generate(nouns, schema, overrides={0: "end"})
    assert out.sentence == "Only end is truly an origin."
    out = generate(nouns, schema, overrides={0: "origin"})
    assert out.sentence == "Only origin is truly an end."


def test_capitalized_article_marker():
    nouns = lex("end\tN\t\torigin\norigin\tN\t\tend\n")
    schema = make_schema("17", "A(n) {~N} {N}.")
    out = generate(nouns, schema, overrides={0: "origin"})
    assert out.sentence == "An end origin."


def test_article_marker_in_a_slot_fill_is_printed_as_it_is():
    # No lexicon holds a word such as "ba(n)d", so the plan is filled with it directly.
    with pytest.raises(ValueError, match="is not a lexicon word"):
        Lexicon({("ba(n)d", N): LexEntry("ba(n)d", N, frozenset(), frozenset())})
    plan = make_schema("10", "{N} without {N}.").compiled.plan
    assert _fill(plan, ["ba(n)d"] * 2) == "Ba(n)d without ba(n)d."
    plan = make_schema("u", "A(n) {N} is a(n) {N}.").compiled.plan
    assert _fill(plan, ["ba(n)d"] * 2) == "A ba(n)d is a ba(n)d."


def test_first_letter_is_capitalized():
    nouns = lex("hell\tN\t\t\n")
    schema = make_schema("10", "{N} without {N}.")
    out = generate(nouns, schema, overrides={0: "hell"})
    assert out.sentence == "Hell without hell."


@pytest.mark.parametrize("class_id,sentence", [("10", "0 without 0."),
                                               ("22n", "0 is not enough 0.")])
def test_a_leading_digit_stays_and_nothing_after_it_is_capitalized(registry, class_id, sentence):
    schema = next(s for s in registry if s.class_id == class_id)
    assert generate(lex("0\tN\t\t\n"), schema).sentence == sentence


# str.upper turns "ß" into "SS" and "ς" into "Σ", which normalize reads as
# other words, so those stay as they are; "é" reads back as "É" does.
@pytest.mark.parametrize("literal,printed", [("ß", "ß"), ("ﬁ", "ﬁ"), ("ŉ", "ŉ"), ("ς", "ς"),
                                             ("é", "É"), ("only", "Only")])
def test_a_leading_literal_is_capitalized_only_where_it_reads_back(literal, printed):
    nouns = lex("car\tN\t\t\n")
    schema = make_schema("u", f"{literal} {{N}} without {{N}}.")
    out = generate(nouns, schema)
    assert out.sentence == f"{printed} car without car."
    assert classify(nouns, [schema], out.sentence)[0].score == 1.0


def test_first_letter_after_leading_punctuation_is_capitalized():
    out = generate(lex("hell\tN\t\t\n"), make_schema("u", '"{N}" without {N}.'))
    assert out.sentence == '"Hell" without hell.'


def test_derivation_chain_realizes_on_the_synonym():
    verbs = lex("hate\tV\tdetest\t\ndetest\tV\thate\t\n")
    schema = make_schema("30", "I {V} the {V':agent+pl}.")
    out = generate(verbs, schema, overrides={0: "hate"})
    assert out.sentence == "I hate the detesters."
    assert out.binding.realized == ("hate", "detesters")


def test_gerund_slot():
    verbs = lex("strike\tV\t\t\n")
    schema = make_schema("14", "Let's {V} by not {V:ger}.")
    out = generate(verbs, schema, overrides={0: "strike"})
    assert out.sentence == "Let's strike by not striking."


def test_bad_override_unknown_word():
    schema = make_schema("1", "All is {A}, the {~A} too.")
    with pytest.raises(BadOverrideError) as err:
        generate(OPPOSITES, schema, overrides={0: "gleeb"})
    assert err.value.group_id == 0
    assert err.value.word == "gleeb"


def test_bad_override_word_without_antonym():
    mixed = lex("possible\tA\t\timpossible\nimpossible\tA\t\tpossible\nplain\tA\t\t\n")
    schema = make_schema("1", "All is {A}, the {~A} too.")
    with pytest.raises(BadOverrideError):
        generate(mixed, schema, overrides={0: "plain"})


def test_override_on_foreign_group_is_ignored():
    schema = make_schema("1", "All is {A}, the {~A} too.")
    for word in ("possible", "POSSIBLE"):
        out = generate(OPPOSITES, schema, seed=4, overrides={7: word})
        assert out.sentence == generate(OPPOSITES, schema, seed=4).sentence


def test_an_override_takes_no_draw_from_the_stream():
    # So the group after a pinned one draws first, as it would on its own.
    nouns = lex("possible\tA\t\timpossible\nimpossible\tA\t\tpossible\n"
                "bus\tN\t\t\ncar\tN\t\t\nhell\tN\t\t\n")
    pinned, alone = make_schema("2", "{A} or {N}."), make_schema("3", "{N}.")
    drawn = set()
    for seed in range(20):
        out = generate(nouns, pinned, seed, {0: "impossible"})
        noun = out.binding.bases[1][1]
        assert noun == generate(nouns, alone, seed).binding.bases[0][1]
        drawn.add(noun)
    assert drawn == {"bus", "car", "hell"}


# A draw judges its groups in order, so the first group that fails names the
# error, whether its pool is empty or its override is refused.
def test_an_empty_pool_before_a_refused_override_raises_no_candidate():
    schema = make_schema("2", "{N} or {A}, never {~A}.")    # no nouns in OPPOSITES
    with pytest.raises(NoCandidateError) as err:
        generate(OPPOSITES, schema, 0, {1: "gleeb"})
    assert (err.value.class_id, err.value.group_id) == ("2", 0)


def test_a_refused_override_before_an_empty_pool_raises_bad_override():
    schema = make_schema("3", "{A} or {N}.")
    with pytest.raises(BadOverrideError) as err:
        generate(OPPOSITES, schema, 0, {0: "Gleeb"})
    assert (err.value.group_id, err.value.word) == (0, "gleeb")
    assert str(err.value) == "override 0=gleeb: not a known A word"


def test_batch_uses_schema_major_sub_seeds():
    schemas = [make_schema("1", "All is {A}, the {~A} too."),
               make_schema("16", "{~A} is {A}.")]
    batch = generate_batch(OPPOSITES, schemas, seed=11, count=3)
    assert len(batch.sentences) == 6
    assert batch.skips == ()
    for i, schema in enumerate(schemas):
        for rep in range(3):
            expect = generate(OPPOSITES, schema, sub_seed(11, i * 3 + rep))
            assert batch.sentences[i * 3 + rep] == expect


def test_batch_skip_does_not_shift_later_seeds():
    blocked = make_schema("10", "{N} without {N}.")  # no nouns in OPPOSITES
    good = make_schema("16", "{~A} is {A}.")
    batch = generate_batch(OPPOSITES, [blocked, good], seed=5, count=2)
    assert [s.class_id for s in batch.skips] == ["10"]
    assert len(batch.sentences) == 2
    for rep in range(2):
        assert batch.sentences[rep] == generate(OPPOSITES, good, sub_seed(5, 1 * 2 + rep))


def test_batch_skips_a_schema_once_not_per_repetition():
    blocked = make_schema("10", "{N} without {N}.")
    batch = generate_batch(OPPOSITES, [blocked], seed=0, count=50)
    assert len(batch.skips) == 1


def test_batch_count_zero():
    schemas = [make_schema("1", "All is {A}, the {~A} too.")]
    batch = generate_batch(OPPOSITES, schemas, seed=0, count=0)
    assert batch == generate_batch(OPPOSITES, schemas, seed=0, count=0)
    assert batch.sentences == () and batch.skips == ()


def test_batch_propagates_bad_overrides():
    schemas = [make_schema("1", "All is {A}, the {~A} too.")]
    with pytest.raises(BadOverrideError):
        generate_batch(OPPOSITES, schemas, seed=0, count=1, overrides={0: "gleeb"})


def test_full_registry_runs_on_bundled_lexicon(demo_lexicon, registry):
    batch = generate_batch(demo_lexicon, registry, seed=1, count=1)
    assert batch.skips == ()
    assert len(batch.sentences) == 36
    for sentence in batch.sentences:
        assert sentence.sentence[0].isupper() or not sentence.sentence[0].isalpha()
        assert "a(n)" not in sentence.sentence.lower()


def test_braces_in_literal_text_render_verbatim():
    # No Schema holds literal braces, as the template parser rejects them,
    # so the render plan is built from the split template directly.
    slot = parse_template("{A}")[0]
    assert isinstance(slot, SlotToken)
    with pytest.raises(ValueError, match="brace"):
        Schema("u", SchemaKind.PARADOX, (LiteralToken("{x} is "), slot, LiteralToken(" }")))
    plan = _render_plan(("{x} is ", 0, " }"))
    assert plan == ("{X} is ", 0, " }")
    assert _fill(plan, ["possible"]) == "{X} is possible }"


def test_schemas_of_one_shape_share_one_code_object():
    # Literal text and class id reach the draw function as arguments, so
    # two templates that differ only in them run the same code.
    first = make_schema("1", "All is {A}, the {~A} too.")
    second = make_schema("2x", "Nothing {A} is ever {~A}!")
    a, b = generate(OPPOSITES, first, 3), generate(OPPOSITES, second, 3)
    assert first._draw.__code__ is second._draw.__code__
    assert first._draw is not second._draw
    assert (a.class_id, b.class_id) == ("1", "2x")
    assert b.sentence == f"Nothing {a.binding.realized[0]} is ever {a.binding.realized[1]}!"


def test_quotes_backslashes_and_hashes_in_literal_text_print_verbatim():
    schema = make_schema("q", '''It's "{A}", a back\\slash, """ and # {~A}.''')
    out = generate(OPPOSITES, schema, 0, {0: "possible"})
    assert out.sentence == '''It's "possible", a back\\slash, """ and # impossible.'''


# Text that would end, escape or format a string literal or an f-string.
_QUOTES = '%s \\ \' " """ \\n '
_HAZARDS = "{ } {0} {{x}} " + _QUOTES


def test_fstring_hazards_in_literal_text_print_verbatim_through_generate():
    # The parser rejects braces, so the plan's literal pieces are replaced
    # after parsing: at the start, in the middle and at the end.
    schema = make_schema("h", "x {A} x {~A} x")
    plan = (_HAZARDS, 0, _HAZARDS + "a ", (1, True, False), " ", 1, _HAZARDS)
    schema.__dict__["compiled"] = schema.compiled._replace(plan=plan)
    out = generate(OPPOSITES, schema, 0, {0: "possible"})
    assert out.sentence == f"{_HAZARDS}possible{_HAZARDS}a an impossible{_HAZARDS}"
    parsed = make_schema("q", f"{_QUOTES}{{A}}{_QUOTES}{{~A}}{_QUOTES}")
    out = generate(OPPOSITES, parsed, 0, {0: "possible"})
    assert out.sentence == f"%S{_QUOTES[2:]}possible{_QUOTES}impossible{_QUOTES}"


def test_the_builtins_share_nineteen_draw_code_objects(demo_lexicon, registry):
    # Literal text reaches the draw functions as arguments; were it in their
    # source, each of the 36 built-ins would have a code object of its own.
    for schema in registry:
        generate(demo_lexicon, schema, 0)
    assert len({schema._draw.__code__ for schema in registry}) == 19


def test_the_builtin_draw_sources_hold_only_the_draw_and_the_print(registry):
    # Refusals and empty pools are raised by plain functions the draw calls,
    # so no source carries an error branch, and each group takes 3 lines.
    sources = {_draw_source(schema.compiled) for schema in registry}
    assert len(sources) == 19
    for source in sources:
        for name in ("raise", "BadOverrideError", "NoCandidateError"):
            assert name not in source, source
    assert sum(source.count("\n") for source in sources) <= 360


def test_fill_renders_as_generate_does_on_the_builtins(demo_lexicon, registry):
    for schema in registry:
        for seed in range(100):
            out = generate(demo_lexicon, schema, seed)
            assert out.sentence == _fill(schema.compiled.plan, out.binding.realized)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_fill_renders_as_generate_does_on_random_templates(demo_lexicon, seed):
    rng = random.Random(seed)
    schema = make_schema("u", with_edges(rng, with_article(rng, random_template(rng))))
    try:
        out = generate(demo_lexicon, schema, seed)
    except NoCandidateError:
        return
    assert out.sentence == _fill(schema.compiled.plan, out.binding.realized)


def test_generate_calls_the_morphology_functions_bound_in_its_module(demo_lexicon, registry,
                                                                     monkeypatch):
    # A tracer wraps these names in antinomy.generator, so draw functions
    # built before the patch must look them up there when they run.
    for schema in registry:
        generate(demo_lexicon, schema, 0)
    calls = {name: 0 for name in ("indefinite_article", "negated_infinitive", "apply_derivations")}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(generator, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(generator, name, counting)
    for schema in registry:
        for seed in range(20):
            generate(demo_lexicon, schema, seed)
    assert all(calls.values()), calls


class _BrokenLexicon(Lexicon):
    def words(self, pos):
        raise RuntimeError("no words today")


def test_a_traceback_through_a_draw_function_shows_its_line():
    with pytest.raises(RuntimeError) as info:
        generate(_BrokenLexicon({}), make_schema("1", "All is {A}."), 0)
    text = "".join(traceback.format_exception(info.value))
    assert '<antinomy draw ' in text
    assert "pool = lexicon.words(pos0)" in text


def _draw_files() -> set[str]:
    return {name for name in linecache.cache if name.startswith("<antinomy draw ")}


def test_a_recompiled_shape_keeps_its_one_linecache_entry():
    rng = random.Random(5)
    texts = [with_edges(rng, with_article(rng, random_template(rng))) for _ in range(40)]
    shapes = {_draw_source(make_schema("u", text).compiled) for text in texts}
    before = _draw_files()
    for _ in range(3):
        generator._draw_factory.cache_clear()
        for text in texts:
            try:
                generate(OPPOSITES, make_schema("u", text), 0)
            except NoCandidateError:
                pass
    assert len(_draw_files() - before) <= len(shapes)
    files = []
    for _ in range(2):
        generator._draw_factory.cache_clear()
        with pytest.raises(RuntimeError) as info:
            generate(_BrokenLexicon({}), make_schema("1", "All is {A}."), 0)
        text = "".join(traceback.format_exception(info.value))
        assert "pool = lexicon.words(pos0)" in text
        files += [frame.filename for frame in traceback.extract_tb(info.tb)
                  if frame.filename.startswith("<antinomy draw ")]
    assert len(files) == 2 and files[0] == files[1]


def test_a_schema_that_generated_copies_and_pickles():
    schema = make_schema("1", "All is {A}, the {~A} too.")
    out = generate(OPPOSITES, schema, 5)
    for copied in (pickle.loads(pickle.dumps(schema)), copy.deepcopy(schema), copy.copy(schema)):
        assert copied == schema and copied.compiled == schema.compiled
        assert generate(OPPOSITES, copied, 5) == out
