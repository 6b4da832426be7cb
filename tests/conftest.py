"""Shared fixtures and input builders; shared references live in oracles.py."""
from __future__ import annotations

import random
import re
import string
from importlib import resources

import pytest

from antinomy import (LexEntry, Lexicon, LiteralToken, PartOfSpeech, Schema, SchemaKind,
                      SlotToken, builtin_registry, normalize, parse_lexicon, parse_template)
from antinomy.schema import ARTICLE_MARKER_RE, MAX_SLOT_SPAN
from oracles import slot_specs

POS_LETTERS = ("N", "V", "A")


@pytest.fixture(scope="session")
def demo_lexicon() -> Lexicon:
    return lex((resources.files("antinomy") / "data" / "demo.lex").read_text())


@pytest.fixture(scope="session")
def registry():
    return builtin_registry()


def lex(source: str) -> Lexicon:
    parsed = parse_lexicon(source)
    assert isinstance(parsed, Lexicon), str(parsed)
    return parsed


def make_schema(class_id: str, dsl: str) -> Schema:
    return Schema(class_id, SchemaKind.PARADOX, parse_template(dsl))


def random_word(rng: random.Random, taken: set[str]) -> str:
    while True:
        length = rng.randint(3, 9)
        word = "".join(rng.choice(string.ascii_lowercase) for _ in range(length))
        if rng.random() < 0.1:
            word += "-" + "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
        if word not in taken:
            taken.add(word)
            return word


def random_lexicon_source(rng: random.Random) -> str:
    """Well-formed lexicon text: unique entries, resolvable references.

    Antonym links are deliberately left one-directional at random, which
    a correct parser must repair, never reject.
    """
    taken: set[str] = set()
    by_pos: dict[str, list[str]] = {p: [] for p in POS_LETTERS}
    count = rng.randint(1, 20)
    words = []
    for _ in range(count):
        pos = rng.choice(POS_LETTERS)
        word = random_word(rng, taken)
        by_pos[pos].append(word)
        words.append((word, pos))

    lines = []
    if rng.random() < 0.3:
        lines.append("# generated source")
    for word, pos in words:
        others = [w for w in by_pos[pos] if w != word]
        synonyms = rng.sample(others, min(len(others), rng.randint(0, 2)))
        antonyms = rng.sample([w for w in others if w not in synonyms],
                              min(len(others) - len(synonyms), rng.randint(0, 2)))
        surface = word.upper() if rng.random() < 0.1 else word
        lines.append(f"{surface}\t{pos}\t{','.join(synonyms)}\t{','.join(antonyms)}")
        if rng.random() < 0.1:
            lines.append("")
    return "\n".join(lines) + "\n"


def hand_built_entries(rng: random.Random,
                       lexicon: Lexicon) -> dict[tuple[str, PartOfSpeech], LexEntry]:
    """Entries for the `Lexicon` constructor that `parse_lexicon` never
    makes: at times "car" with antonyms that do not list it back, and at
    times a copy of an entry whose synonyms list its own surface."""
    added = {}
    if rng.random() < 0.4:
        pos = rng.choice(list(PartOfSpeech))
        words = [w for w in lexicon.words(pos) if w != "car"]
        synonyms, antonyms = (frozenset(rng.sample(words, min(len(words), rng.randint(0, 2))))
                              for _ in range(2))
        added[("car", pos)] = LexEntry("car", pos, synonyms, antonyms)
    entries = lexicon.entries()
    if entries and rng.random() < 0.4:
        e = rng.choice(entries)
        added[(e.surface, e.pos)] = e._replace(synonyms=e.synonyms | {e.surface})
    return added


def random_lexicon(rng: random.Random) -> Lexicon:
    """A parsed random lexicon; at times one part of speech loses every
    antonym, so antonym groups of that POS have no candidate at all, and
    at times it gains the entries of `hand_built_entries`, where stored
    pools could drift from the case folding and unions of `synonyms` and
    `antonyms`."""
    lines = random_lexicon_source(rng).splitlines()
    if rng.random() < 0.4:
        bare = rng.choice("NVA")
        lines = ["\t".join(f[:3] + [""]) if len(f) == 4 and f[1] == bare else line
                 for line, f in ((line, line.split("\t")) for line in lines)]
    lexicon = lex("\n".join(lines) + "\n")
    added = hand_built_entries(rng, lexicon)
    if not added:
        return lexicon
    entries = {(e.surface, e.pos): e for e in lexicon.entries()}
    return Lexicon({**entries, **added}, lexicon.report)


def random_overrides(rng: random.Random, lexicon: Lexicon, schema: Schema) -> dict[int, str]:
    """Valid and invalid overrides: groups of the schema and foreign
    ones, words of any POS (so often the wrong one), words without
    antonyms, unknown words and upper-case spellings."""
    words = [w for pos in PartOfSpeech for w in lexicon.words(pos)] + ["gleeb"]
    group_pos = {s.group_id: s.symbol for s in slot_specs(schema)}
    overrides = {}
    for _ in range(rng.randint(0, 2)):
        group = rng.choice(list(group_pos) + [7])
        same_pos = lexicon.words(group_pos.get(group, PartOfSpeech.NOUN))
        word = rng.choice(same_pos if same_pos and rng.random() < 0.6 else words)
        overrides[group] = word.upper() if rng.random() < 0.2 else word
    return overrides


_LITERAL_WORDS = ("so", "very", "quite", "beyond", "of", "under", "their", "one")

# (pos letter, allowed derivation flag strings)
_CHAINS = {
    "N": ("", ":pl"),
    "V": ("", ":ger", ":agent", ":agent+pl", ":neginf"),
    "A": ("",),
}


def random_template(rng: random.Random) -> str:
    """Valid template text: every group gets a bare base slot, slots stay
    separated by literals, derivation chains respect the slot symbol."""
    explicit = rng.random() < 0.4
    group_count = rng.randint(1, 3)
    if explicit:
        group_ids = rng.sample(range(10), group_count)
        symbols = [rng.choice(POS_LETTERS) for _ in range(group_count)]
    else:
        group_ids = list(range(group_count))
        symbols = rng.sample(POS_LETTERS, group_count)

    slots: list[str] = []
    for gid, symbol in zip(group_ids, symbols):
        tag = f"#{gid}" if explicit else ""
        slots.append("{" + symbol + tag + "}")
        for _ in range(rng.randint(0, 2)):
            mode = rng.choice(("antonym", "synonym", "repeat", "derived"))
            if mode == "antonym":
                body = "~" + symbol
            elif mode == "synonym":
                body = symbol + "'" * rng.randint(1, 2)
                if rng.random() < 0.3:
                    body += rng.choice(_CHAINS[symbol])
            elif mode == "derived":
                body = symbol + rng.choice(_CHAINS[symbol])
            else:
                body = symbol
            slots.append("{" + body + tag + "}")
    rng.shuffle(slots)

    parts = []
    if rng.random() < 0.7:
        parts.append(rng.choice(_LITERAL_WORDS).capitalize() + " ")
    for i, slot in enumerate(slots):
        if i:
            parts.append(" " + " ".join(rng.sample(_LITERAL_WORDS, rng.randint(1, 2))) + " ")
        parts.append(slot)
    parts.append(".")
    return "".join(parts)


def with_article(rng: random.Random, dsl: str) -> str:
    """The template with one mid-sentence literal word, at random, turned
    into an article marker, so the marker meets every kind of neighbour."""
    words = re.findall(r"(?<= )[a-z]+(?= )", dsl)
    if not words or rng.random() < 0.5:
        return dsl
    return re.sub(rf"(?<= ){rng.choice(words)}(?= )", "a(n)", dsl, count=1)


def with_edges(rng: random.Random, dsl: str) -> str:
    """The template at times opening with an article marker before its
    first slot ("A(n) {N} ...") or with punctuation, and at times ending
    in a marker, so that the sentence's first letter and a marker's next
    word come from every kind of neighbour."""
    roll = rng.random()
    if roll < 0.25:
        dsl = rng.choice(("A(n) ", "a(n) ")) + re.sub(r"^[A-Z][a-z]* ", "", dsl)
    elif roll < 0.5:
        dsl = rng.choice(("— ", "\"", "(", "... ", "¿", "'")) + dsl
    if rng.random() < 0.3:
        dsl = dsl.removesuffix(".") + rng.choice((" a(n)", " A(n)", ", a(n)."))
    return dsl


def literal_words(schema: Schema) -> list[str]:
    return [word for token in schema.tokens if isinstance(token, LiteralToken)
            for word in normalize(ARTICLE_MARKER_RE.sub(" ", token.text))]


def skeleton_sentence(rng: random.Random, schema: Schema, words: list[str],
                      spans: tuple[int, int] = (1, MAX_SLOT_SPAN)) -> str:
    """Sentence text following the schema's tokens: literal text as
    written, "a" or "an" per article marker, and per slot a number of
    words drawn from `spans`, one to MAX_SLOT_SPAN by default."""
    out = []
    for token in schema.tokens:
        if isinstance(token, SlotToken):
            out.append(" ".join(rng.choice(words) for _ in range(rng.randint(*spans))))
        else:
            out.append(ARTICLE_MARKER_RE.sub(lambda _: rng.choice(("a", "an")), token.text))
    return "".join(out)


def one_edit(rng: random.Random, sentence: str, words: list[str]) -> str:
    """The sentence unchanged, or its tokens after one insertion, deletion
    or swap of two neighbours."""
    edit = rng.choice(("none", "insert", "delete", "swap"))
    if edit == "none":
        return sentence
    tokens = list(normalize(sentence))
    i = rng.randrange(len(tokens) + 1)
    if edit == "insert":
        tokens.insert(i, rng.choice(words))
    elif edit == "delete" and i < len(tokens):
        del tokens[i]
    elif edit == "swap" and i + 1 < len(tokens):
        tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    return " ".join(tokens)


def one_token_edit(rng: random.Random, tokens: list[str], words: list[str]) -> list[str]:
    """The tokens after one edit: a token inserted, deleted or replaced,
    two neighbours joined by a hyphen, or a hyphenated token split."""
    tokens = list(tokens)
    i = rng.randrange(len(tokens))
    edit = rng.choice(("insert", "delete", "replace", "join", "split"))
    if edit == "insert":
        tokens.insert(i, rng.choice(words))
    elif edit == "delete":
        del tokens[i]
    elif edit == "replace":
        tokens[i] = rng.choice(words)
    elif edit == "join" and i + 1 < len(tokens):
        tokens[i:i + 2] = [tokens[i] + "-" + tokens[i + 1]]
    elif edit == "split" and "-" in tokens[i]:
        tokens[i:i + 1] = tokens[i].split("-", 1)
    return tokens


def prose_line(rng: random.Random, vocabulary: list[str]) -> str:
    """A sentence-shaped line of 4 to 30 tokens over the vocabulary, with
    occasional commas and a closing mark."""
    tokens: list[str] = []
    for _ in range(rng.randint(4, 30) - 1):
        comma = tokens and tokens[-1] != "," and rng.random() < 0.08
        tokens.append("," if comma else rng.choice(vocabulary))
    text = " ".join(tokens).replace(" ,", ",")
    return text[0].upper() + text[1:] + rng.choice(".?!")
