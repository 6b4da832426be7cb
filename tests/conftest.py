"""Shared fixtures and builders for randomized inputs."""
from __future__ import annotations

import random
import re
import string
from importlib import resources

import pytest

from antinomy import LexEntry, Lexicon, PartOfSpeech, builtin_registry, parse_lexicon

POS_LETTERS = ("N", "V", "A")


@pytest.fixture(scope="session")
def demo_lexicon() -> Lexicon:
    source = (resources.files("antinomy") / "data" / "demo.lex").read_text()
    lexicon = parse_lexicon(source)
    assert isinstance(lexicon, Lexicon)
    return lexicon


@pytest.fixture(scope="session")
def registry():
    return builtin_registry()


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
