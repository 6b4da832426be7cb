"""Differential test: the compiled schema's render plan, filled by
`generate`, against two references kept here. One is the renderer the
plan replaced, which filled the template's split pieces from the right,
resolving each article marker against the text after it, and then
upper-cased the first letter or digit. The other is the `str.format`
string and per-marker regex substitution that renderer replaced. The
plan is also checked against the regex, required tokens and rank key
the replaced compiler built from the template's tokens. The two
references are also run on tokens no Schema accepts (braces, glued or
side-by-side markers), split as the compiler splits a template."""
from __future__ import annotations

import itertools
import random
import re
from typing import Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from antinomy import (LiteralToken, PartOfSpeech, Relation, Schema, SchemaKind, SlotSpec,
                      SlotToken, apply_derivations, class_sort_key, indefinite_article,
                      negated_infinitive, normalize, parse_template)
from antinomy.generator import _fill
from antinomy.morphology import Derivation
from antinomy.schema import ARTICLE_MARKERS, MAX_SLOT_SPAN, Token
from conftest import random_template, with_article, with_edges
from oracles import capitalize_first, slot_specs

_MARKER_RE = re.compile(r"[Aa]\(n\)")


def reference_text_format(tokens: Sequence[Token]) -> str:
    """Literal text with braces escaped, "{i}" per slot i."""
    slot_index = itertools.count()
    return "".join(
        f"{{{next(slot_index)}}}" if isinstance(t, SlotToken)
        else t.text.replace("{", "{{").replace("}", "}}") for t in tokens)


def reference_render(text_format: str, realized: Sequence[str]) -> str:
    def repl(m) -> str:
        tail = text_format[m.end():].format(*realized).lstrip()
        article = indefinite_article(tail) if tail else "a"
        return article.capitalize() if m.group(0)[0] == "A" else article
    return _MARKER_RE.sub(repl, text_format).format(*realized)


def render_pieces(pieces: Sequence[str | int], realized: Sequence[str]) -> str:
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


def reference_compile(schema: Schema) -> tuple[str, frozenset[str], tuple[int, tuple[int, str]]]:
    """(regex pattern, required tokens, rank key) as built token by token."""
    parts: list[str] = []
    required: set[str] = set()
    for token in schema.tokens:
        if isinstance(token, SlotToken):
            parts.append(r"(\S+(?: \S+){0,%d}?)" % (MAX_SLOT_SPAN - 1))
            continue
        for i, piece in enumerate(_MARKER_RE.split(token.text)):
            if i:
                parts.append("(?:a|an)")
            literals = normalize(piece)
            required.update(literals)
            parts.extend(re.escape(t) for t in literals)
    slots = sum(isinstance(t, SlotToken) for t in schema.tokens)
    return " ".join(parts), frozenset(required), (slots - len(parts),
                                                  class_sort_key(schema.class_id))


_SLOT = SlotToken(SlotSpec(PartOfSpeech.NOUN, Relation.IDENTITY, 0, (), 0))


def pieces_of(tokens: Sequence[Token]) -> tuple[str | int, ...]:
    """The tokens split as the compiler splits a template: slot ordinals,
    and the text between slots split at its article markers."""
    slot_index = itertools.count()
    pieces: list[str | int] = []
    for is_slot, run in itertools.groupby(tokens, lambda t: isinstance(t, SlotToken)):
        if is_slot:
            pieces.extend(next(slot_index) for _ in run)
        else:
            text = "".join(t.text for t in run)
            pieces.extend(p for p in re.split(r"([Aa]\(n\))", text) if p)
    return tuple(pieces)


def reference_sentence(tokens: Sequence[Token], realized: Sequence[str]) -> str:
    """What generation printed for the tokens: both references agree on it."""
    sentence = capitalize_first(render_pieces(pieces_of(tokens), realized))
    assert sentence == capitalize_first(reference_render(reference_text_format(tokens), realized))
    return sentence


# What a slot holds: a lexicon word, at times derived, or "not to <verb>".
# Words open with a vowel, a consonant, an "h" or a digit.
_WORD = st.from_regex(r"[aehiouxy07]{1,4}(?:['\-][a-z0-9]{1,2})?", fullmatch=True)
_SLOT_FILL = (_WORD
              | st.tuples(_WORD, st.lists(st.sampled_from(Derivation), min_size=1, max_size=2))
              .map(lambda wd: apply_derivations(wd[0], tuple(wd[1])))
              | _WORD.map(negated_infinitive))


# Literal text over braces, format fields, whole and split article
# markers, spaces and words; any of it may come out empty.
_LITERAL = st.lists(st.sampled_from(["{", "}", "{0}", "{1}", "a(n)", "A(n)", "a(", "n)", "A",
                                     " ", "  ", "x", "owl", "so ", ".", "'"]),
                    max_size=5).map(lambda parts: LiteralToken("".join(parts)))
_TOKENS = st.lists(st.one_of(_LITERAL, st.just(_SLOT)), max_size=8)
# Slot fills: markers and braces printed as they are, leading spaces,
# vowels and consonants, nothing at all, or any text.
_FILL = st.sampled_from(["", " ", "  owl", "a(n)", "A(n) x", "{", "}", "{0}", "owl", "hell",
                         "Apple", "1x"]) | st.text(max_size=4)


@settings(max_examples=500, deadline=None)
@given(st.data(), _TOKENS)
def test_render_matches_reference(data, tokens):
    slots = sum(t is _SLOT for t in tokens)
    realized = data.draw(st.lists(_FILL, min_size=slots, max_size=slots))
    assert (render_pieces(pieces_of(tokens), realized)
            == reference_render(reference_text_format(tokens), realized))
    try:
        schema = Schema("u", SchemaKind.PARADOX, tuple(tokens))
    except ValueError:
        return
    realized = data.draw(st.lists(_SLOT_FILL, min_size=slots, max_size=slots))
    assert _fill(schema.compiled.plan, realized) == reference_sentence(tokens, realized)


@settings(max_examples=500, deadline=None)
@given(st.data(), st.integers(min_value=0, max_value=2 ** 32))
def test_compiled_render_matches_reference(data, seed):
    rng = random.Random(seed)
    schema = Schema("u", SchemaKind.PARADOX,
                    parse_template(with_edges(rng, with_article(rng, random_template(rng)))))
    slots = len(slot_specs(schema))
    realized = data.draw(st.lists(_SLOT_FILL, min_size=slots, max_size=slots))
    assert _fill(schema.compiled.plan, realized) == reference_sentence(schema.tokens, realized)


def test_markers_at_either_end_and_side_by_side():
    # Markers side by side are glued, so no Schema holds them.
    tokens = (LiteralToken("A(n)a(n) "), _SLOT, LiteralToken(" a(n)"))
    pieces = pieces_of(tokens)
    assert pieces == ("A(n)", "a(n)", " ", 0, " ", "a(n)")
    assert render_pieces(pieces, ["owl"]) == "Anan owl a"
    assert render_pieces(pieces, ["owl"]) == reference_render(reference_text_format(tokens),
                                                              ["owl"])
    # A marker before a marker is resolved with the schema, one before a
    # slot from the slot's fill, one at the end as "a".
    tokens = parse_template("A(n) a(n) {N} a(n)")
    plan = Schema("u", SchemaKind.PARADOX, tokens).compiled.plan
    assert plan == ("An ", (0, True, False), " ", 0, " a")
    for fill in ("owl", "hell"):
        assert _fill(plan, [fill]) == reference_sentence(tokens, [fill])
    assert _fill(plan, ["owl"]) == "An an owl a"
    # A lower-case marker that opens the sentence prints its capital.
    tokens = parse_template("a(n) {N}, not a(n) {~N}.")
    plan = Schema("u", SchemaKind.PARADOX, tokens).compiled.plan
    assert plan == ((0, True, True), " ", 0, ", not ", (1, True, False), " ", 1, ".")
    assert _fill(plan, ["owl", "hawk"]) == "An owl, not a hawk."


def compiled_facts(schema: Schema) -> tuple[str, frozenset[str], tuple[int, tuple[int, str]]]:
    form = schema.compiled
    return form.pattern, form.required, form.rank_key


def test_builtin_schemas_compile_as_before(registry):
    for schema in registry:
        assert compiled_facts(schema) == reference_compile(schema), schema.class_id


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_random_schemas_compile_as_before(seed):
    rng = random.Random(seed)
    schema = Schema("u", SchemaKind.PARADOX,
                    parse_template(with_edges(rng, with_article(rng, random_template(rng)))))
    assert compiled_facts(schema) == reference_compile(schema)
