"""Differential test: the regex template parser and its one group-numbering
rule against the character scanner they replaced, which is kept here as
the reference. The reference carries three intended changes: a group id
must be an ASCII digit (the scanner took any character `str.isdigit`
accepts), a template whose literal text glues onto a slot or an article
marker is refused as `glued-slot`, and a blank template, with no slot and
no word, as `empty-template` (the scanner accepted both)."""
from __future__ import annotations

import random
import re
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from antinomy import (Derivation, LiteralToken, PartOfSpeech, Relation, SlotSpec,
                      SlotToken, TemplateError, normalize, parse_template, render_tokens)
from antinomy.schema import (ADJACENT_SLOTS, BAD_DERIVATION_FLAG, EMPTY_TEMPLATE, GLUED_SLOT,
                             GROUP_CONFLICT, MISSING_BASE, UNBALANCED_BRACES, UNKNOWN_SYMBOL,
                             Token)

_FLAGS = {d.value: d for d in Derivation}

_TRANSITIONS = {
    Derivation.AGENTIVE: ("V", "N"),
    Derivation.GERUND: ("V", "N"),
    Derivation.PLURAL: ("N", "N"),
    Derivation.NEGATED_INFINITIVE: ("V", "P"),
}


@dataclass
class RawSlot:
    tilde: bool
    symbol: PartOfSpeech
    prime: int
    derivations: tuple[Derivation, ...]
    explicit_group: int | None


def reference_slot_body(body: str, at: int) -> RawSlot:
    rest = body
    tilde = rest.startswith("~")
    if tilde:
        rest = rest[1:]
    if not rest or rest[0] not in "NVA":
        got = rest[:1] or "nothing"
        raise TemplateError(UNKNOWN_SYMBOL, f"unknown slot symbol {got!r} at offset {at}")
    symbol = PartOfSpeech(rest[0])
    rest = rest[1:]
    prime = 0
    while rest.startswith("'"):
        prime += 1
        rest = rest[1:]
    derivations: tuple[Derivation, ...] = ()
    if rest.startswith(":"):
        flag_text, had_hash, tail = rest[1:].partition("#")
        steps = []
        for name in flag_text.split("+"):
            if name not in _FLAGS:
                raise TemplateError(BAD_DERIVATION_FLAG, f"bad derivation flag {name!r} at offset {at}")
            steps.append(_FLAGS[name])
        derivations = tuple(steps)
        rest = ("#" + tail) if had_hash else ""
    explicit_group: int | None = None
    if rest.startswith("#"):
        digits = rest[1:]
        # The one change: ASCII digits only, where the scanner had isdigit().
        if len(digits) != 1 or digits not in "0123456789":
            raise TemplateError(UNKNOWN_SYMBOL, f"bad group id {digits!r} at offset {at}")
        explicit_group = int(digits)
        rest = ""
    if rest:
        raise TemplateError(UNKNOWN_SYMBOL, f"unexpected {rest!r} in slot at offset {at}")

    category = symbol.value
    for step in derivations:
        needs, yields = _TRANSITIONS[step]
        if category != needs:
            raise TemplateError(
                BAD_DERIVATION_FLAG,
                f"flag {step.value!r} does not apply to {category} at offset {at}")
        category = yields
    return RawSlot(tilde, symbol, prime, derivations, explicit_group)


def reference_glued(tokens: list[Token]) -> bool:
    """The second change: whether the skeleton, one word per slot and "a"
    per article marker, tokenizes to anything but the literal text's
    tokens with one token per slot and per marker in between."""
    skeleton = ""
    expected: list[str] = []
    for t in tokens:
        if isinstance(t, SlotToken):
            skeleton += "x"
            expected.append("x")
            continue
        chunks = re.split(r"[aA]\(n\)", t.text)
        skeleton += "a".join(chunks)
        for i, chunk in enumerate(chunks):
            if i:
                expected.append("a")
            expected.extend(normalize(chunk))
    return normalize(skeleton) != tuple(expected)


def reference_parse(dsl: str) -> tuple[Token, ...]:
    if dsl.isspace() or not dsl:     # the third change
        raise TemplateError(EMPTY_TEMPLATE, "template has no slot and no word")
    raw: list[LiteralToken | RawSlot] = []
    i = 0
    literal_start = 0
    while i < len(dsl):
        c = dsl[i]
        if c == "}":
            raise TemplateError(UNBALANCED_BRACES, f"stray '}}' at offset {i}")
        if c != "{":
            i += 1
            continue
        close = dsl.find("}", i + 1)
        reopen = dsl.find("{", i + 1)
        if close == -1 or (reopen != -1 and reopen < close):
            raise TemplateError(UNBALANCED_BRACES, f"unclosed '{{' at offset {i}")
        literal = dsl[literal_start:i]
        if literal:
            raw.append(LiteralToken(literal))
        elif raw and isinstance(raw[-1], RawSlot):
            raise TemplateError(ADJACENT_SLOTS, f"adjacent slots at offset {i}")
        raw.append(reference_slot_body(dsl[i + 1:close], i))
        i = close + 1
        literal_start = i
    if literal_start < len(dsl):
        raw.append(LiteralToken(dsl[literal_start:]))

    slots = [r for r in raw if isinstance(r, RawSlot)]
    used = {r.explicit_group for r in slots if r.explicit_group is not None}
    implicit: dict[PartOfSpeech, int] = {}
    assigned: list[int] = []
    for r in slots:
        if r.explicit_group is not None:
            assigned.append(r.explicit_group)
            continue
        if r.symbol not in implicit:
            g = 0
            while g in used:
                g += 1
            implicit[r.symbol] = g
            used.add(g)
        assigned.append(implicit[r.symbol])

    group_symbol: dict[int, PartOfSpeech] = {}
    for r, gid in zip(slots, assigned):
        if gid in group_symbol and group_symbol[gid] is not r.symbol:
            raise TemplateError(GROUP_CONFLICT, f"group {gid} mixes slot symbols")
        group_symbol.setdefault(gid, r.symbol)

    tokens: list[Token] = []
    it = iter(zip(slots, assigned))
    for r in raw:
        if isinstance(r, LiteralToken):
            tokens.append(r)
            continue
        slot, gid = next(it)
        relation = (Relation.ANTONYM if slot.tilde
                    else Relation.SYNONYM if slot.prime else Relation.IDENTITY)
        tokens.append(SlotToken(SlotSpec(slot.symbol, relation, slot.prime,
                                         slot.derivations, gid)))

    has_base = {gid: False for gid in group_symbol}
    for t in tokens:
        if isinstance(t, SlotToken) and t.spec.is_base:
            has_base[t.spec.group_id] = True
    for gid, ok in has_base.items():
        if not ok:
            raise TemplateError(MISSING_BASE, f"group {gid} has no bare base slot")
    if reference_glued(tokens):
        raise TemplateError(GLUED_SLOT, "slot or article marker glued to its neighbours")
    return tuple(tokens)


def reference_implicit_ids(tokens: tuple[Token, ...]) -> list[int]:
    implicit: dict[PartOfSpeech, int] = {}
    out = []
    for t in tokens:
        if not isinstance(t, SlotToken):
            continue
        sym = t.spec.symbol
        if sym not in implicit:
            implicit[sym] = len(implicit)
        out.append(implicit[sym])
    return out


def reference_render(tokens: tuple[Token, ...]) -> str:
    stored = [t.spec.group_id for t in tokens if isinstance(t, SlotToken)]
    explicit = stored != reference_implicit_ids(tokens)
    if explicit and any(g > 9 for g in stored):
        raise ValueError("group ids above 9 cannot be rendered")
    parts = []
    for t in tokens:
        if isinstance(t, LiteralToken):
            parts.append(t.text)
            continue
        s = t.spec
        body = "~" if s.relation is Relation.ANTONYM else ""
        body += s.symbol.value + "'" * s.prime
        if s.derivations:
            body += ":" + "+".join(d.value for d in s.derivations)
        if explicit:
            body += f"#{s.group_id}"
        parts.append("{" + body + "}")
    return "".join(parts)


def outcome(fn, arg) -> tuple:
    try:
        return ("ok", fn(arg))
    except TemplateError as err:
        return ("TemplateError", err.kind)
    except ValueError:
        return ("ValueError",)


ALPHABET = ("{", "}", "~", "N", "V", "A", "X", "'", ":", "#", "+", "pl", "ger",
            "agent", "neginf", "zap", "0", "1", "12", "$", "\u00b2", "\u0663", "\n")
LITERALS = (" so ", " the ", "Of ", " a(n) ", ".", " ", "")
CHAINS = {"N": (":pl", ":pl+pl"), "V": (":ger", ":agent", ":agent+pl", ":neginf"), "A": ()}
BAD_FLAGS = (":ger", ":pl", ":neginf+pl", ":zap", ":", ":pl+", ":ger#", ":zap#12", ":zap#\n")
BAD_GROUPS = ("#12", "#", "#$", "#\u00b2", "#\u0663", "#1#")


def random_slot(rng: random.Random, explicit: bool) -> str:
    """Mostly well-formed slots, each part at times replaced by a bad one,
    so templates reach every error kind and many parse; now and then a
    body of arbitrary alphabet pieces."""
    if rng.random() < 0.05:
        return "{" + "".join(rng.choices(ALPHABET, k=rng.randint(0, 5))) + "}"
    symbol = rng.choice("NVA") if rng.random() < 0.95 else "X"
    body = rng.choice(("", "", "~")) + symbol + "'" * rng.choice((0, 0, 1, 2))
    chains = CHAINS.get(symbol, ())
    roll = rng.random()
    if roll < 0.05 or (roll < 0.4 and not chains):
        body += rng.choice(BAD_FLAGS)
    elif roll < 0.4:
        body += rng.choice(chains)
    roll = rng.random()
    if roll < 0.05:
        body += rng.choice(BAD_GROUPS)
    elif explicit and roll < 0.8:
        body += f"#{rng.randint(0, 2)}"
    return "{" + body + "}"


def random_dsl(rng: random.Random) -> str:
    explicit = rng.random() < 0.5
    parts = []
    for _ in range(rng.randint(0, 6)):
        parts.append(rng.choice(LITERALS))
        if rng.random() < 0.95:
            parts.append(random_slot(rng, explicit))
        else:
            parts.append("".join(rng.choices(ALPHABET, k=rng.randint(1, 4))))
    return "".join(parts)


@settings(deadline=None, max_examples=500)
@given(seed=st.integers(min_value=0, max_value=2 ** 32))
def test_parser_matches_reference(seed):
    rng = random.Random(seed)
    for _ in range(20):
        dsl = random_dsl(rng)
        got = outcome(parse_template, dsl)
        assert got == outcome(reference_parse, dsl), dsl
        if got[0] == "ok":
            assert outcome(render_tokens, got[1]) == outcome(reference_render, got[1])


def random_tokens(rng: random.Random) -> tuple[Token, ...]:
    """Token tuples no parser would build: any relation, prime, derivation
    chain and group id from 0 to 11 on any symbol."""
    tokens: list[Token] = []
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.3:
            tokens.append(LiteralToken(rng.choice((" so ", "."))))
            continue
        derivations = tuple(rng.choices(list(Derivation), k=rng.randint(0, 2)))
        tokens.append(SlotToken(SlotSpec(rng.choice(list(PartOfSpeech)),
                                         rng.choice(list(Relation)), rng.randint(0, 2),
                                         derivations, rng.randint(0, 11))))
    return tuple(tokens)


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(min_value=0, max_value=2 ** 32))
def test_render_matches_reference_on_any_tokens(seed):
    rng = random.Random(seed)
    for _ in range(20):
        tokens = random_tokens(rng)
        assert outcome(render_tokens, tokens) == outcome(reference_render, tokens)
