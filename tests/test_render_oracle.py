"""Differential test: the compiled schema's pieces and the renderer that
fills them from the right, against the `str.format` string and the
per-marker regex substitution they replaced, which are kept here as the
reference, and against the regex, required tokens and rank key the
replaced compiler built from the template's tokens. The renderer is also
given pieces of tokens no Schema accepts (braces, glued or side-by-side
markers), split as the compiler splits a template."""
from __future__ import annotations

import itertools
import random
import re
from typing import Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from antinomy import (LiteralToken, PartOfSpeech, Relation, Schema, SchemaKind, SlotSpec,
                      SlotToken, class_sort_key, indefinite_article, normalize,
                      parse_template)
from antinomy.generator import _render
from antinomy.schema import MAX_SLOT_SPAN, Token
from conftest import random_template, with_article

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
    """The tokens split as `CompiledSchema.pieces` splits a template: slot
    ordinals, and the text between slots split at its article markers."""
    slot_index = itertools.count()
    pieces: list[str | int] = []
    for is_slot, run in itertools.groupby(tokens, lambda t: isinstance(t, SlotToken)):
        if is_slot:
            pieces.extend(next(slot_index) for _ in run)
        else:
            text = "".join(t.text for t in run)
            pieces.extend(p for p in re.split(r"([Aa]\(n\))", text) if p)
    return tuple(pieces)

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
    pieces = pieces_of(tokens)
    assert _render(pieces, realized) == reference_render(reference_text_format(tokens), realized)
    try:
        schema = Schema("u", SchemaKind.PARADOX, tuple(tokens))
    except ValueError:
        return
    assert schema.compiled.pieces == pieces


def test_markers_at_either_end_and_side_by_side():
    # Markers side by side are glued, so no Schema holds them.
    tokens = (LiteralToken("A(n)a(n) "), _SLOT, LiteralToken(" a(n)"))
    pieces = pieces_of(tokens)
    assert pieces == ("A(n)", "a(n)", " ", 0, " ", "a(n)")
    assert _render(pieces, ["owl"]) == "Anan owl a"
    assert _render(pieces, ["owl"]) == reference_render(reference_text_format(tokens), ["owl"])
    tokens = parse_template("A(n) a(n) {N} a(n)")
    pieces = Schema("u", SchemaKind.PARADOX, tokens).compiled.pieces
    assert pieces == ("A(n)", " ", "a(n)", " ", 0, " ", "a(n)")
    assert _render(pieces, ["owl"]) == "An an owl a"
    assert _render(pieces, ["owl"]) == reference_render(reference_text_format(tokens), ["owl"])


def compiled_facts(schema: Schema) -> tuple[str, frozenset[str], tuple[int, tuple[int, str]]]:
    form = schema.compiled
    return form.regex.pattern, form.required, form.rank_key


def test_builtin_schemas_compile_as_before(registry):
    for schema in registry:
        assert compiled_facts(schema) == reference_compile(schema), schema.class_id


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_random_schemas_compile_as_before(seed):
    rng = random.Random(seed)
    schema = Schema("u", SchemaKind.PARADOX,
                    parse_template(with_article(rng, random_template(rng))))
    assert compiled_facts(schema) == reference_compile(schema)
