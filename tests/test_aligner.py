"""Differential test: the compiled skeleton regex against the recursive
aligner it replaced, which is kept here as the reference."""
from __future__ import annotations

import random
import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antinomy import (PartOfSpeech, Schema, SchemaKind, classify, match_schema,
                      normalize, parse_template)
from antinomy.schema import ARTICLE_MARKER_RE, MAX_SLOT_SPAN, SlotToken
from conftest import random_template, with_article


@dataclass(frozen=True)
class Lit:
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class Article:
    pass


@dataclass(frozen=True)
class Slot:
    ordinal: int


Element = Lit | Article | Slot


def reference_elements(schema: Schema) -> tuple[tuple[Element, ...], int]:
    """Schema -> match elements + literal token count; an article marker
    is one element accepting "a" or "an" and counts as one literal token."""
    elements: list[Element] = []
    literal_count = 0
    ordinal = 0

    def push_literal(text: str) -> None:
        nonlocal literal_count
        toks = normalize(text)
        if toks:
            elements.append(Lit(toks))
            literal_count += len(toks)

    for token in schema.tokens:
        if isinstance(token, SlotToken):
            elements.append(Slot(ordinal))
            ordinal += 1
            continue
        pos = 0
        for m in ARTICLE_MARKER_RE.finditer(token.text):
            push_literal(token.text[pos:m.start()])
            elements.append(Article())
            literal_count += 1
            pos = m.end()
        push_literal(token.text[pos:])
    return tuple(elements), literal_count


def reference_align(elements: tuple[Element, ...],
                    tokens: tuple[str, ...]) -> dict[int, tuple[int, int]] | None:
    """First alignment in shortest-capture order, or None."""
    n = len(tokens)

    def rec(ei: int, pos: int) -> dict[int, tuple[int, int]] | None:
        if ei == len(elements):
            return {} if pos == n else None
        el = elements[ei]
        if isinstance(el, Lit):
            end = pos + len(el.tokens)
            if tokens[pos:end] == el.tokens:
                return rec(ei + 1, end)
            return None
        if isinstance(el, Article):
            if pos < n and tokens[pos] in ("a", "an"):
                return rec(ei + 1, pos + 1)
            return None
        for span in range(1, MAX_SLOT_SPAN + 1):
            if pos + span > n:
                break
            rest = rec(ei + 1, pos + span)
            if rest is not None:
                rest[el.ordinal] = (pos, pos + span)
                return rest
        return None

    return rec(0, 0)


def reference_captures(elements, tokens) -> tuple[str, ...] | None:
    captures = reference_align(elements, tokens)
    if captures is None:
        return None
    return tuple(" ".join(tokens[a:b]) for a, b in (captures[i] for i in sorted(captures)))


def compiled_captures(schema: Schema, tokens: tuple[str, ...]) -> tuple[str, ...] | None:
    match = re.fullmatch(schema.compiled.pattern, " ".join(tokens))
    return None if match is None else match.groups()


def skeleton_tokens(rng: random.Random, elements, words: list[str]) -> list[str]:
    """Tokens that follow the skeleton, each slot filled with 1 to
    MAX_SLOT_SPAN + 1 words drawn from `words`."""
    out: list[str] = []
    for el in elements:
        if isinstance(el, Lit):
            out.extend(el.tokens)
        elif isinstance(el, Article):
            out.append(rng.choice(("a", "an")))
        else:
            out.extend(rng.choice(words) for _ in range(rng.randint(1, MAX_SLOT_SPAN + 1)))
    return out


def perturbed(rng: random.Random, tokens: list[str], words: list[str]) -> list[str]:
    """Up to three random insertions, deletions or substitutions."""
    tokens = list(tokens)
    for _ in range(rng.randint(0, 3)):
        i = rng.randint(0, len(tokens))
        edit = rng.choice(("insert", "delete", "replace"))
        if edit == "insert":
            tokens.insert(i, rng.choice(words))
        elif tokens:
            i = min(i, len(tokens) - 1)
            if edit == "delete":
                del tokens[i]
            else:
                tokens[i] = rng.choice(words)
    return tokens


@pytest.fixture(scope="session")
def lexicon_words(demo_lexicon) -> list[str]:
    return sorted({t for pos in PartOfSpeech for w in demo_lexicon.words(pos)
                   for t in normalize(w)})


@settings(deadline=None, max_examples=300)
@given(rng=st.randoms(use_true_random=False))
def test_compiled_regex_matches_reference_aligner(rng, registry, lexicon_words):
    if rng.random() < 0.2:
        schema = rng.choice(registry)
    else:
        dsl = with_article(rng, random_template(rng))
        schema = Schema("u", SchemaKind.PARADOX, parse_template(dsl))
    elements, literal_count = reference_elements(schema)
    assert schema.compiled.rank_key[0] == -literal_count
    literals = [t for el in elements if isinstance(el, Lit) for t in el.tokens]
    words = literals + ["a", "an", "the"] + rng.sample(lexicon_words, 12)
    for _ in range(8):
        tokens = skeleton_tokens(rng, elements, words)
        if rng.random() < 0.6:
            tokens = perturbed(rng, tokens, words)
        tokens = tuple(tokens)
        assert compiled_captures(schema, tokens) == reference_captures(elements, tokens)


def test_schemas_are_never_hashed_per_line(demo_lexicon, registry, monkeypatch):
    # The compiled form lives on the schema instance; building it and
    # looking it up must not hash the schema's token tree.
    def refuse(_self):
        raise AssertionError("Schema hashed on the per-line path")

    monkeypatch.setattr(Schema, "__hash__", refuse)
    assert classify(demo_lexicon, registry, "Hell without hell.")[0].class_id == "10"
    assert match_schema(demo_lexicon, registry[0], "All is good, the bad too.") is not None
