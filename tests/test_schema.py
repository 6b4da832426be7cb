from __future__ import annotations

import copy
import pickle
import random
import re
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antinomy import (Derivation, GenerateError, LiteralToken, PartOfSpeech, Relation, Schema,
                      SchemaKind, SlotSpec, SlotToken, TemplateError, builtin_registry,
                      class_sort_key, classify, dump_catalog, generate, load_catalog,
                      parse_template, render_template, render_tokens)
from antinomy import schema as schema_mod
from conftest import lex, random_lexicon_source, random_template

A = PartOfSpeech.ATTRIBUTE
N = PartOfSpeech.NOUN
V = PartOfSpeech.VERB


def spec(symbol, relation, prime, derivations, group_id):
    return SlotSpec(symbol, relation, prime, tuple(derivations), group_id)


@pytest.mark.parametrize("member", [*Relation, *Derivation])
def test_relation_and_derivation_hash_by_identity(member):
    # A slot spec key hashes its members; each must stay one object.
    assert hash(member) == object.__hash__(member)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(member, protocol)) is member
    assert copy.deepcopy(member) is member and copy.copy(member) is member
    assert type(member)(member.value) is member
    key = spec(V, member, 0, (), 0) if isinstance(member, Relation) else member
    assert {key: 1}[copy.deepcopy(key)] == 1


def test_class_1_token_structure():
    tokens = parse_template("All is {A}, the {~A} too.")
    assert tokens == (
        LiteralToken("All is "),
        SlotToken(spec(A, Relation.IDENTITY, 0, (), 0)),
        LiteralToken(", the "),
        SlotToken(spec(A, Relation.ANTONYM, 0, (), 0)),
        LiteralToken(" too."),
    )


def test_agent_plural_slot():
    tokens = parse_template("I {V} the {V':agent+pl}.")
    derived = tokens[3].spec
    assert derived == spec(V, Relation.SYNONYM, 1,
                           (Derivation.AGENTIVE, Derivation.PLURAL), 0)
    assert not derived.is_base
    assert tokens[1].spec.is_base


def test_explicit_groups():
    tokens = parse_template("How {A#1} is a(n) {A'#1} {N#2}?")
    form = Schema("x", SchemaKind.TAUTOLOGY, tokens).compiled
    assert [s.group_id for s in form.specs] == [1, 1, 2]
    assert [(g.group_id, g.base_ordinal) for g in form.groups] == [(1, 0), (2, 2)]


def test_implicit_groups_first_appearance_order():
    form = Schema("x", SchemaKind.PARADOX, parse_template("{V} the {N} near {A}.")).compiled
    assert [s.group_id for s in form.specs] == [0, 1, 2]
    assert [g.group_id for g in form.groups] == [0, 1, 2]


def test_implicit_numbering_skips_explicit_ids():
    tokens = parse_template("{N#0} meets {V} and {A}.")
    assert [t.spec.group_id for t in tokens if isinstance(t, SlotToken)] == [0, 1, 2]


def test_same_symbol_shares_implicit_group():
    tokens = parse_template("{N} without {N}.")
    a, b = (t.spec for t in tokens if isinstance(t, SlotToken))
    assert a.group_id == b.group_id == 0
    assert a.is_base and b.is_base


def test_explicit_and_implicit_same_symbol_stay_apart():
    tokens = parse_template("{A#3} mixes {A}.")
    ids = [t.spec.group_id for t in tokens if isinstance(t, SlotToken)]
    assert ids == [3, 0]


def test_single_space_is_a_valid_separator():
    tokens = parse_template("{N} {N'}")
    assert tokens[1] == LiteralToken(" ")


@pytest.mark.parametrize("dsl,kind", [
    ("{X} is odd.", schema_mod.UNKNOWN_SYMBOL),
    ("{} is odd.", schema_mod.UNKNOWN_SYMBOL),
    ("{N$} junk.", schema_mod.UNKNOWN_SYMBOL),
    ("{N#12} wide.", schema_mod.UNKNOWN_SYMBOL),
    ("{N#²} superscript.", schema_mod.UNKNOWN_SYMBOL),
    ("{N#٣} arabic-indic.", schema_mod.UNKNOWN_SYMBOL),
    ("{N:ger#12} wide.", schema_mod.UNKNOWN_SYMBOL),
    ("{N is open.", schema_mod.UNBALANCED_BRACES),
    ("closed} is.", schema_mod.UNBALANCED_BRACES),
    ("{N {V} nested.", schema_mod.UNBALANCED_BRACES),
    ("{N}{N} stuck.", schema_mod.ADJACENT_SLOTS),
    ("{V:zap} flagged.", schema_mod.BAD_DERIVATION_FLAG),
    ("{N:ger} wrong pos.", schema_mod.BAD_DERIVATION_FLAG),
    ("{N:agent} wrong pos.", schema_mod.BAD_DERIVATION_FLAG),
    ("{V:neginf+pl} past the end.", schema_mod.BAD_DERIVATION_FLAG),
    ("{A:#} no flag.", schema_mod.BAD_DERIVATION_FLAG),
    ("{N:zap#12} both bad.", schema_mod.BAD_DERIVATION_FLAG),
    ("{N#1} and {V#1}.", schema_mod.GROUP_CONFLICT),
    ("{~A} alone.", schema_mod.MISSING_BASE),
    ("{N'} of it.", schema_mod.MISSING_BASE),
    ("{V:ger} only.", schema_mod.MISSING_BASE),
    ("{N}'s {~N}.", schema_mod.GLUED_SLOT),
    ("{N}-{~N} now.", schema_mod.GLUED_SLOT),
    ("x{N} and {~N}.", schema_mod.GLUED_SLOT),
    ("It is a(n)x {N}.", schema_mod.GLUED_SLOT),
    ("{N} is A(n){N'}.", schema_mod.GLUED_SLOT),
    ("{~A} glued{A'}.", schema_mod.MISSING_BASE),
    ("", schema_mod.EMPTY_TEMPLATE),
    ("   ", schema_mod.EMPTY_TEMPLATE),
    ("\t\u2028", schema_mod.EMPTY_TEMPLATE),
])
def test_rejected_templates(dsl, kind):
    with pytest.raises(TemplateError) as err:
        parse_template(dsl)
    assert err.value.kind == kind


# Punctuation beside a slot or marker, or a space, keeps each one a word.
@pytest.mark.parametrize("dsl", ["{N}, {~N}.", "({N}) and {~N}!", "{N} - {~N}.",
                                 "A(n) {~N} {N}.", "\"{N}\" is a(n) {N'}", "{N} 's {~N}."])
def test_templates_that_keep_each_slot_a_word_parse(dsl):
    parse_template(dsl)


def test_later_bare_slot_is_not_the_base():
    form = Schema("x", SchemaKind.PARADOX, parse_template("{N} without {N}.")).compiled
    assert [(g.group_id, g.base_ordinal) for g in form.groups] == [(0, 0)]


_BASE = SlotToken(spec(N, Relation.IDENTITY, 0, (), 0))
_ANTONYM = SlotToken(spec(N, Relation.ANTONYM, 0, (), 0))


# Three shapes print sentences that detection cannot read back, and one
# has no base word to draw: a Schema refuses each as the parser does.
@pytest.mark.parametrize("tokens,kind", [
    ((_BASE, LiteralToken("'s "), _ANTONYM, LiteralToken(".")), schema_mod.GLUED_SLOT),
    ((_BASE, _ANTONYM, LiteralToken(".")), schema_mod.ADJACENT_SLOTS),
    ((_BASE, LiteralToken(" x "), SlotToken(spec(V, Relation.ANTONYM, 0, (), 0)),
      LiteralToken(".")), schema_mod.GROUP_CONFLICT),
    ((_ANTONYM, LiteralToken(" without "), SlotToken(spec(N, Relation.SYNONYM, 1, (), 0)),
      LiteralToken(".")), schema_mod.MISSING_BASE),
], ids=["glued", "adjacent-slots", "mixed-group", "no-base"])
def test_a_schema_refuses_what_the_parser_refuses(tokens, kind):
    with pytest.raises(TemplateError) as built:
        Schema("u", SchemaKind.PARADOX, tokens)
    with pytest.raises(TemplateError) as parsed:
        parse_template(render_tokens(tokens))
    assert built.value.kind == parsed.value.kind == kind
    assert str(built.value) == str(parsed.value)


_DERIVATIONS = st.lists(st.sampled_from(Derivation), max_size=2).map(tuple)
_ANY_SLOT = st.builds(SlotSpec, st.sampled_from(PartOfSpeech), st.sampled_from(Relation),
                      st.integers(-1, 3), _DERIVATIONS, st.integers(-1, 11)).map(SlotToken)
_ANY_LITERAL = (st.sampled_from(["", " ", " so ", "'s ", "s ", ".", " a(n) ", "a(n)", "{", "}",
                                 "{N}", " x{N} "]) | st.text(max_size=3)).map(LiteralToken)


@st.composite
def _edited_tokens(draw) -> tuple:
    """The tokens of a valid template, then up to three edits: a slot or
    a literal (braces, empty or glued text among them) put in, one taken
    out, or two swapped, so that glue, adjacency and mixed groups come up."""
    tokens = list(parse_template(random_template(random.Random(draw(st.integers(0, 2 ** 32))))))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["slot", "literal", "drop", "swap"]))
        if edit in ("slot", "literal"):
            tokens.insert(at, draw(_ANY_SLOT if edit == "slot" else _ANY_LITERAL))
        elif tokens:
            i, j = at % len(tokens), draw(st.integers(0, len(tokens) - 1))
            if edit == "drop":
                del tokens[i]
            else:
                tokens[i], tokens[j] = tokens[j], tokens[i]
    return tuple(tokens)


@settings(max_examples=500, deadline=None)
@given(_edited_tokens(), st.integers(0, 2 ** 32))
def test_a_schema_is_built_only_from_tokens_that_read_back(tokens, seed):
    try:
        schema = Schema("u", SchemaKind.PARADOX, tokens)
    except ValueError:      # TemplateError among them
        return
    assert parse_template(render_tokens(schema.tokens)) == schema.tokens
    # What a built schema generates, detection reads back in full.
    rng = random.Random(seed)
    lexicon = lex(random_lexicon_source(rng))
    try:
        out = generate(lexicon, schema, rng.getrandbits(64))
    except GenerateError:
        return
    ranked = classify(lexicon, [schema], out.sentence)
    assert ranked and ranked[0].score == 1.0, out.sentence


def test_a_template_without_a_slot_or_a_word_is_refused():
    # It would print a blank sentence, which classify reads as nothing.
    with pytest.raises(TemplateError, match="^template has no slot and no word$") as err:
        Schema("u", SchemaKind.PARADOX, ())
    assert err.value.kind == schema_mod.EMPTY_TEMPLATE
    with pytest.raises(TemplateError) as err:
        load_catalog("1\tparadox\t{N} without {N}.\n2\tparadox\t \tblank template\n")
    assert err.value.kind == schema_mod.EMPTY_TEMPLATE
    # A template of punctuation alone still holds a word.
    assert parse_template(" . ") == (LiteralToken(" . "),)


def test_tokens_given_as_a_list_are_refused_by_type():
    with pytest.raises(TypeError, match="^class 'u': tokens must be a tuple, not list$"):
        Schema("u", SchemaKind.PARADOX, list(parse_template("{N} without {N}.")))


def test_hand_built_schema_without_a_base_slot_raises_the_parsers_error():
    # Tokens of "{~N} without {N'}.", which parse_template refuses, so no
    # Schema holding them is built for generation or detection to meet.
    tokens = (SlotToken(SlotSpec(PartOfSpeech.NOUN, Relation.ANTONYM, 0, (), 0)),
              LiteralToken(" without "),
              SlotToken(SlotSpec(PartOfSpeech.NOUN, Relation.SYNONYM, 1, (), 0)),
              LiteralToken("."))
    with pytest.raises(TemplateError, match="^group 0 has no bare base slot$") as err:
        Schema("x", SchemaKind.PARADOX, tokens)
    assert err.value.kind == schema_mod.MISSING_BASE


def test_registry_has_36_unique_classes():
    registry = builtin_registry()
    assert len(registry) == 36
    ids = [s.class_id for s in registry]
    assert len(set(ids)) == 36


def test_registry_kind_counts():
    registry = builtin_registry()
    by_kind = {k: sum(1 for s in registry if s.kind is k) for k in SchemaKind}
    assert by_kind[SchemaKind.PARADOX] == 23
    assert by_kind[SchemaKind.SEMI_PARADOX] == 2
    assert by_kind[SchemaKind.TAUTOLOGY] == 11


def test_only_one_duplicated_pattern_pair():
    registry = builtin_registry()
    by_pattern: dict[str, list[str]] = {}
    for s in registry:
        by_pattern.setdefault(render_template(s), []).append(s.class_id)
    dupes = {p: ids for p, ids in by_pattern.items() if len(ids) > 1}
    assert dupes == {"More {A} than {A'}.": ["23", "27"]}


def test_registry_patterns_round_trip():
    for sch in builtin_registry():
        assert parse_template(render_template(sch)) == sch.tokens


def test_render_omits_group_marks_when_implicit():
    assert render_template(builtin_registry()[0]) == "All is {A}, the {~A} too."


def test_render_marks_every_slot_when_explicit():
    dsl = "How {A#1} is a(n) {A'#1} {N#2}?"
    assert render_tokens(parse_template(dsl)) == dsl


def test_render_rejects_unprintable_group_id():
    tokens = (SlotToken(spec(N, Relation.IDENTITY, 0, (), 11)),)
    with pytest.raises(ValueError):
        render_tokens(tokens)


@pytest.mark.parametrize("text", ["{x} is ", " }", "{"])
def test_render_rejects_braces_in_literal_text(text):
    tokens = (LiteralToken(text), SlotToken(spec(N, Relation.IDENTITY, 0, (), 0)))
    with pytest.raises(ValueError, match="brace"):
        render_tokens(tokens)


def test_class_sort_key_order():
    ids = ["10", "2a", "2n", "1", "20b", "3a", "20a"]
    assert sorted(ids, key=class_sort_key) == ["1", "2a", "2n", "3a", "10", "20a", "20b"]


def test_catalog_round_trip():
    registry = builtin_registry()
    loaded = load_catalog(dump_catalog(registry))
    assert loaded == registry  # labels are display-only, not compared


def test_catalog_rejects_bad_rows():
    with pytest.raises(ValueError):
        load_catalog("1\tparadox\n")
    with pytest.raises(ValueError):
        load_catalog("1\tnonsense-kind\t{N} here.\n")
    with pytest.raises(TemplateError):
        load_catalog("1\tparadox\t{N}{N} stuck.\n")


def test_random_templates_round_trip():
    rng = random.Random(7)
    for _ in range(150):
        dsl = random_template(rng)
        tokens = parse_template(dsl)
        rendered = render_tokens(tokens)
        assert parse_template(rendered) == tokens
        # rendering is a fixed point after one pass
        assert render_tokens(parse_template(rendered)) == rendered


def test_each_catalog_template_text_is_parsed_once():
    # 36 rows hold 35 texts, 23 and 27 sharing one. The Schema's read-back
    # check and dump_catalog's row check find each text in the parser's memo.
    text = (resources.files("antinomy") / "data" / "classes.tsv").read_text(encoding="utf-8")
    parse_template.cache_clear()
    load_catalog(text)
    info = parse_template.cache_info()
    assert info.misses == 35 and info.maxsize is not None
    dump_catalog(builtin_registry())
    assert parse_template.cache_info().misses == 35


def test_catalog_label_column_is_optional():
    loaded = load_catalog("1\tparadox\t{N} without {N}.\n"
                          "2\tparadox\t{~N} in the {N}.\tthe opposite in the thing\n")
    assert [s.label for s in loaded] == ["", "the opposite in the thing"]


def test_builtin_labels_come_from_the_catalog():
    registry = builtin_registry()
    assert registry[0].label == "everything includes its opposite"
    assert registry[-1].label == "acting on one's own agents"
    assert all(s.label for s in registry)


def test_catalog_ignores_leading_bom():
    text = dump_catalog(builtin_registry())
    assert load_catalog("\ufeff" + text) == builtin_registry()
    assert load_catalog("\ufeff1\tparadox\t{N} without {N}.\n")[0].class_id == "1"


def test_catalog_rejects_duplicate_class_id():
    text = "1\tparadox\t{N} without {N}.\n# note\n1\tparadox\t{~N} in the {N}.\n"
    with pytest.raises(ValueError, match="catalog line 3: duplicate class id '1'"):
        load_catalog(text)


@pytest.mark.parametrize("class_id,label", [
    ("u", "a\tb"), ("u", "a\nb"), ("u", "a\rb"),
    ("u", "trailing\r"), ("u\tv", ""), ("#u", ""), ("  #u", ""), ("u\n", ""),
])
def test_dump_catalog_rejects_rows_that_do_not_read_back(class_id, label):
    schema = Schema(class_id, SchemaKind.PARADOX, parse_template("{N} without {N}."), label)
    with pytest.raises(ValueError, match=re.escape(f"class {class_id!r}")):
        dump_catalog((schema,))


# A catalog row ends only at "\n", "\r\n" or "\r", so the other breaks
# of str.splitlines stay inside a field.
@pytest.mark.parametrize("class_id,label", [
    ("u", "a\x0bb"), ("u", "a\u2028b"), ("u", "a\x0cb\x1c\x85\u2029c"),
])
def test_dump_catalog_reads_back_labels_holding_other_line_breaks(class_id, label):
    schema = Schema(class_id, SchemaKind.PARADOX, parse_template("{N} without {N}."), label)
    loaded = load_catalog(dump_catalog((schema,)))
    assert loaded == (schema,) and loaded[0].label == label


def test_catalog_rows_end_only_at_universal_newlines():
    text = "# note\x85x\n1\tparadox\tAll is {A}, the {~A} too.\n"
    assert [s.class_id for s in load_catalog(text)] == ["1"]
    text = "1\tparadox\t{N} without {N}.\tone\x0ctwo\r\n# a\u2028b\r2\tparadox\t{~N} in {N}.\n"
    assert [(s.class_id, s.label) for s in load_catalog(text)] == [("1", "one\x0ctwo"), ("2", "")]


_WITHOUT = parse_template("{N} without {N}.")


def test_dump_catalog_rejects_a_repeated_class_id():
    schema = Schema("1", SchemaKind.PARADOX, _WITHOUT)
    with pytest.raises(ValueError, match=re.escape("class '1'")):
        dump_catalog((schema, schema))


def test_dump_catalog_keeps_a_class_id_that_starts_with_a_bom():
    schema = Schema("\ufeff1", SchemaKind.PARADOX, _WITHOUT, "label")
    loaded = load_catalog(dump_catalog((schema,)))
    assert loaded == (schema,) and loaded[0].label == "label"


# Tokens parse_template never produces: they render to template text
# that parses to other tokens or not at all, or they do not render. No
# Schema holds them, so dump_catalog never meets them.
@pytest.mark.parametrize("tokens,error", [
    ((LiteralToken("so "), LiteralToken("very "), *_WITHOUT), "class 'u': tokens are not what"),
    ((LiteralToken(""), *_WITHOUT), "class 'u': tokens are not what"),
    ((*_WITHOUT[:2], LiteralToken(""), *_WITHOUT[2:]), "class 'u': tokens are not what"),
    ((_WITHOUT[0], _WITHOUT[2], LiteralToken(".")), "adjacent slots at offset 3"),
    ((LiteralToken("x{y "), *_WITHOUT), "literal 'x{y ' holds a brace"),
    ((*_WITHOUT[:2], SlotToken(spec(N, Relation.SYNONYM, 0, (), 0)), _WITHOUT[3]),
     "class 'u': tokens are not what '{N} without {N}.' parses to"),
], ids=["adjacent-literals", "leading-empty-literal", "inner-empty-literal", "adjacent-slots",
        "brace-literal", "prime-disagrees"])
def test_dump_catalog_rejects_tokens_that_do_not_read_back(tokens, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        Schema("u", SchemaKind.PARADOX, tokens)


# Arbitrary text, or short text over characters that a catalog row
# cannot carry in some places and can in others, so that both outcomes
# are common.
_FIELD_TEXT = (st.text(max_size=6)
               | st.text(st.sampled_from("#\t\n\r\x0b\x1c\x85\u2028 \ufeffa"), max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_FIELD_TEXT, _FIELD_TEXT, st.sampled_from(SchemaKind),
                          st.integers(0, 2 ** 32)),
                max_size=3))
def test_dump_catalog_reads_back_or_raises(rows):
    schemas = tuple(Schema(class_id, kind, parse_template(random_template(random.Random(seed))),
                           label)
                    for class_id, label, kind, seed in rows)
    try:
        text = dump_catalog(schemas)
    except ValueError:
        return
    loaded = load_catalog(text)
    assert loaded == schemas
    assert [s.label for s in loaded] == [s.label for s in schemas]
