"""Differential test: `generate` over compiled schemas and stored lexicon
pools against the per-sentence version it replaced, kept here as the
reference, and against the article resolution it replaced, kept here too
and applied to each literal token. The reference reads slots and groups
from the schema's tokens and draws through the SplitMix64 oracles.py
writes from the published algorithm, so a change to `antinomy.SplitMix64`
shows as a difference. Lexicons come from seeded random sources and from
hypothesis strategies, overrides from both, and templates at times open
with a marker or punctuation or end in a marker."""
from __future__ import annotations

import random
from typing import Mapping, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antinomy import (BadOverrideError, Binding, GeneratedSentence, LexEntry, Lexicon,
                      NoCandidateError, PartOfSpeech, Relation, Schema, SchemaKind,
                      SlotSpec, apply_derivations, generate, generate_batch,
                      indefinite_article, negated_infinitive, parse_template, sub_seed)
from antinomy.schema import ARTICLE_MARKER_RE, LiteralToken, _compile_schema
from conftest import (random_lexicon, random_overrides, random_template, with_article,
                      with_edges)
from oracles import ReferenceSplitMix64, base_ordinals, capitalize_first, slot_specs


def reference_fix_articles(text: str, rest: str) -> str:
    """Each article marker of `text` resolved against the text after it,
    `rest` included."""
    def repl(m) -> str:
        tail = (text[m.end():] + rest).lstrip()
        article = indefinite_article(tail) if tail else "a"
        return article.capitalize() if m.group(0)[0] == "A" else article
    return ARTICLE_MARKER_RE.sub(repl, text)


def reference_needs_antonym(specs: Sequence[SlotSpec], group_id: int) -> bool:
    return any(s.group_id == group_id and s.relation is Relation.ANTONYM for s in specs)


def reference_candidates(lexicon: Lexicon, pos: PartOfSpeech, need_antonym: bool) -> list[str]:
    words = lexicon.words(pos)
    if not need_antonym:
        return list(words)
    if pos is PartOfSpeech.VERB:
        return list(words)
    return [w for w in words if lexicon.antonyms(w, pos)]


def reference_generate(lexicon: Lexicon, schema: Schema, seed: int = 0,
                       overrides: Mapping[int, str] | None = None) -> GeneratedSentence:
    rng = ReferenceSplitMix64(seed)
    specs = slot_specs(schema)
    overrides = dict(overrides or {})

    bases: dict[int, str] = {}
    for gid in base_ordinals(schema):       # groups in order of first appearance
        pos = next(s.symbol for s in specs if s.group_id == gid)
        need_ant = reference_needs_antonym(specs, gid)
        if gid in overrides:
            word = overrides[gid].lower()
            if lexicon.entry(word, pos) is None:
                raise BadOverrideError(gid, word, f"not a known {pos.value} word")
            if need_ant and word not in reference_candidates(lexicon, pos, True):
                raise BadOverrideError(gid, word, "word has no antonym and is not a verb")
            bases[gid] = word
            continue
        pool = reference_candidates(lexicon, pos, need_ant)
        if not pool:
            raise NoCandidateError(schema.class_id, gid)
        bases[gid] = rng.choice(pool)

    used_synonyms: dict[int, set[str]] = {gid: set() for gid in bases}
    realized: list[str] = []
    for spec in specs:
        base = bases[spec.group_id]
        if spec.relation is Relation.IDENTITY:
            word = base
        elif spec.relation is Relation.ANTONYM:
            antonyms = sorted(lexicon.antonyms(base, spec.symbol))
            if antonyms:
                word = rng.choice(antonyms)
            else:
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

    slot_iter = iter(realized)
    parts = [token.text if isinstance(token, LiteralToken) else next(slot_iter)
             for token in schema.tokens]
    # Only the template's literal text holds article markers; a slot fill
    # is printed as it is, and the text after a marker reads unresolved.
    sentence = capitalize_first("".join(
        reference_fix_articles(part, "".join(parts[k + 1:]))
        if isinstance(token, LiteralToken) else part
        for k, (token, part) in enumerate(zip(schema.tokens, parts))))
    return GeneratedSentence(schema.class_id, sentence, seed,
                             Binding(tuple(bases.items()), tuple(realized)))


def clique_lexicon(synonyms: int) -> Lexicon:
    """Nouns in two cliques of `synonyms` + 1 words each, every word the
    synonym of the rest of its clique and the antonym of each word of the
    other clique, so any base has exactly `synonyms` synonyms and at least
    one antonym."""
    p, q = ([f"{side}{i}" for i in range(synonyms + 1)] for side in "pq")
    n = PartOfSpeech.NOUN
    return Lexicon({(w, n): LexEntry(w, n, frozenset(clique) - {w}, frozenset(other))
                    for clique, other in ((p, q), (q, p)) for w in clique})


@pytest.mark.parametrize("synonyms", [0, 1, 2, 3])
@pytest.mark.parametrize("template", ["{N} of the {N'}.", "{N} of the {N'} of the {N''}.",
                                      "{N} of the {N'} of the {N''}, not {~N}."])
def test_synonym_slots_match_reference_for_each_pool_size(synonyms, template):
    # The first synonym slot of a group meets no used synonym, and the ~N
    # slot's draw comes after the synonym slots' draws.
    lexicon = clique_lexicon(synonyms)
    schema = Schema("u", SchemaKind.PARADOX, parse_template(template))
    for seed in range(300):
        assert generate(lexicon, schema, seed) == reference_generate(lexicon, schema, seed)


def outcome(fn, *args) -> tuple:
    try:
        return ("ok", fn(*args))
    except (BadOverrideError, NoCandidateError) as err:
        return (type(err), str(err))


@settings(deadline=None, max_examples=500)
@given(seed=st.integers(min_value=0, max_value=2 ** 32))
def test_generate_matches_reference(seed, demo_lexicon, registry):
    rng = random.Random(seed)
    if rng.random() < 0.2:
        lexicon, schema = demo_lexicon, rng.choice(registry)
    else:
        lexicon = random_lexicon(rng)
        schema = Schema("u", SchemaKind.PARADOX,
                        parse_template(with_edges(rng, with_article(rng, random_template(rng)))))
    for _ in range(6):
        item_seed = rng.getrandbits(64)
        overrides = random_overrides(rng, lexicon, schema) if rng.random() < 0.5 else None
        assert (outcome(generate, lexicon, schema, item_seed, overrides)
                == outcome(reference_generate, lexicon, schema, item_seed, overrides))


# Words open with a vowel, a consonant, an "h" or a digit, so articles and
# capitals meet each kind; one letter words have odd derived forms ("e" -> "ing").
_WORDS = st.from_regex(r"[aehioux07]{1,3}(?:-[a-z]{1,2})?", fullmatch=True)


@st.composite
def lexicons(draw) -> Lexicon:
    """A `Lexicon` built from drawn entries: each word's synonyms and
    antonyms are any words of its part of speech, itself among them, and
    antonym links need not go both ways."""
    keys = draw(st.lists(st.tuples(_WORDS, st.sampled_from(PartOfSpeech)),
                         unique=True, max_size=10))
    entries = {}
    for word, pos in keys:
        same = [w for w, p in keys if p is pos]
        synonyms, antonyms = (frozenset(draw(st.lists(st.sampled_from(same), max_size=3)))
                              for _ in range(2))
        entries[(word, pos)] = LexEntry(word, pos, synonyms, antonyms)
    return Lexicon(entries)


@settings(deadline=None, max_examples=300)
@given(st.data(), st.integers(min_value=0, max_value=2 ** 32))
def test_generate_matches_reference_on_drawn_lexicons(data, template_seed):
    lexicon = data.draw(lexicons())
    rng = random.Random(template_seed)
    schema = Schema("u", SchemaKind.PARADOX,
                    parse_template(with_edges(rng, with_article(rng, random_template(rng)))))
    words = [w for pos in PartOfSpeech for w in lexicon.words(pos)] + ["gleeb"]
    word = st.sampled_from(words) | st.sampled_from(words).map(str.upper)
    for _ in range(4):
        overrides = data.draw(st.dictionaries(st.integers(0, 9), word, max_size=2))
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 64 - 1))
        expected = outcome(reference_generate, lexicon, schema, seed, overrides)
        assert outcome(generate, lexicon, schema, seed, overrides) == expected
        if expected[0] == "ok":
            # What the compiled render plan relies on.
            assert all(f[0].isalnum() and not f[0].isupper()
                       for f in expected[1].binding.realized)


def test_generate_compiles_each_schema_once(demo_lexicon, monkeypatch):
    calls = []
    monkeypatch.setattr("antinomy.schema._compile_schema",
                        lambda schema: calls.append(schema) or _compile_schema(schema))
    schema = Schema("u", SchemaKind.PARADOX, parse_template("All is {A}, the {~A} too."))
    for seed in range(6):
        generate(demo_lexicon, schema, seed)
    assert calls == [schema]


def pool_holds(lexicon: Lexicon, schema: Schema, group_id: int, word: str) -> bool:
    """Whether the schema's group draws from a pool holding the word."""
    return any(g.group_id == group_id
               and word.lower() in (lexicon.words_with_antonyms(g.pos) if g.needs_antonym
                                    else lexicon.words(g.pos))
               for g in schema.compiled.groups)


@settings(deadline=None, max_examples=300)
@given(seed=st.integers(min_value=0, max_value=2 ** 32))
def test_batch_overrides_go_to_the_groups_whose_pool_holds_the_word(seed, demo_lexicon,
                                                                    registry):
    rng = random.Random(seed)
    if rng.random() < 0.3:
        lexicon, schemas = demo_lexicon, rng.sample(registry, rng.randint(1, 6))
    else:
        lexicon = random_lexicon(rng)
        schemas = [Schema(f"u{i}", SchemaKind.PARADOX, parse_template(random_template(rng)))
                   for i in range(rng.randint(1, 4))]
    words = [w for pos in PartOfSpeech for w in lexicon.words(pos)] + ["gleeb"]
    group_ids = sorted({g.group_id for s in schemas for g in s.compiled.groups}) + [7]
    overrides = {}
    for _ in range(rng.randint(1, 2)):
        word = rng.choice(words)
        overrides[rng.choice(group_ids)] = word.upper() if rng.random() < 0.2 else word
    batch_seed, count = rng.getrandbits(64), rng.randint(0, 2)

    if any(not any(pool_holds(lexicon, s, gid, w) for s in schemas)
           for gid, w in overrides.items()):
        with pytest.raises(BadOverrideError):
            generate_batch(lexicon, schemas, batch_seed, count, overrides)
        return
    expected = []
    for i, schema in enumerate(schemas):
        accepted = {gid: w for gid, w in overrides.items() if pool_holds(lexicon, schema, gid, w)}
        for rep in range(count):
            try:
                expected.append(generate(lexicon, schema, sub_seed(batch_seed, i * count + rep),
                                         accepted))
            except NoCandidateError:
                break
    assert generate_batch(lexicon, schemas, batch_seed, count, overrides).sentences == tuple(expected)
