"""Tab-separated synonym/antonym lexicon: parsing, validation, repair.

One entry per line: ``surface<TAB>pos<TAB>synonyms<TAB>antonyms`` with
comma-separated word lists. `#` lines and blank lines are skipped; a
line ends at "\n", "\r\n" or "\r" only. Antonymy is kept symmetric by
construction: a one-directional antonym pair is repaired (the reverse
direction is added) and the repair is reported. Synonym lists stay
directed, as thesaurus sources have them.

A `Lexicon` keeps each entry as given, plus each relation once in the
form both directions read: a sorted pool per entry, which generation
draws from and detection checks against.
"""
from __future__ import annotations

import re
from enum import Enum
from typing import Iterator, Mapping, NamedTuple

# A word is one token of `schema.normalize`, so `detect` binds what `generate` prints.
WORD_PATTERN = r"[a-z0-9]+(?:['\-][a-z0-9]+)*"
_WORD_RE = re.compile(WORD_PATTERN)
_LINE_END_RE = re.compile(r"\r\n?|\n")


class PartOfSpeech(Enum):
    NOUN = "N"
    VERB = "V"
    ATTRIBUTE = "A"

    # Members are singletons compared by identity, so the identity hash agrees
    # with == and spares every (surface, pos) key Enum's Python-level hash.
    __hash__ = object.__hash__


class LexEntry(NamedTuple):
    surface: str
    pos: PartOfSpeech
    synonyms: frozenset[str]
    antonyms: frozenset[str]


class MalformedLine(NamedTuple):
    line_no: int
    reason: str

    def __str__(self) -> str:
        return f"line {self.line_no}: malformed line ({self.reason})"


class DuplicateEntry(NamedTuple):
    surface: str
    pos: PartOfSpeech
    line_no: int

    def __str__(self) -> str:
        return f"line {self.line_no}: duplicate entry {self.surface}/{self.pos.value}"


class DanglingReference(NamedTuple):
    from_word: str
    to_word: str

    def __str__(self) -> str:
        return f"dangling reference: {self.from_word} -> {self.to_word}"


Defect = MalformedLine | DuplicateEntry | DanglingReference


class SymmetryRepair(NamedTuple):
    """`surface` gained `antonym` to restore symmetric antonymy."""

    surface: str
    pos: PartOfSpeech
    antonym: str

    def __str__(self) -> str:
        return f"repair: added {self.antonym} to antonyms of {self.surface}/{self.pos.value}"


class SelfReferenceDropped(NamedTuple):
    """A word listed itself as its own antonym; the reference was dropped."""

    surface: str
    pos: PartOfSpeech
    line_no: int

    def __str__(self) -> str:
        return f"repair: line {self.line_no}: dropped self-antonym of {self.surface}/{self.pos.value}"


Repair = SymmetryRepair | SelfReferenceDropped


class ValidationReport(NamedTuple):
    defects: tuple[Defect, ...] = ()
    repairs: tuple[Repair, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.defects

    def __str__(self) -> str:
        lines = [str(d) for d in self.defects] + [str(r) for r in self.repairs]
        return "\n".join(lines) if lines else "ok"


class Lexicon:
    """Immutable word store keyed by (surface, pos). Lookups are case-insensitive:
    they lower-case the word. A key whose surface is not a lower-case word of
    WORD_PATTERN, which no lookup could find or detect read back, raises
    ValueError, as does a key holding an entry of another surface or pos, which
    would not serialize to a valid file, and an entry listing a synonym or
    antonym that is not the key of an entry of its pos, which no lookup could bind."""

    def __init__(self, entries: Mapping[tuple[str, PartOfSpeech], LexEntry],
                 report: ValidationReport | None = None):
        self._entries = dict(entries)
        for (surface, pos), e in self._entries.items():
            if not _WORD_RE.fullmatch(surface):
                why = "is not lower case" if surface != surface.lower() else "is not a lexicon word"
                raise ValueError(f"lexicon key {surface!r}/{pos.value} {why}")
            if (e.surface, e.pos) != (surface, pos):
                raise ValueError(f"lexicon key {surface!r}/{pos.value} holds the entry "
                                 f"{e.surface!r}/{e.pos.value}")
            for relation, words in (("synonym", e.synonyms), ("antonym", e.antonyms)):
                unbound = sorted(w for w in words if (w, pos) not in self._entries)
                if unbound:
                    word = unbound[0]
                    why = ("is not lower case" if word != word.lower()
                           else f"names no {pos.value} entry")
                    raise ValueError(f"lexicon entry {surface!r}/{pos.value}: "
                                     f"{relation} {word!r} {why}")
        self.report = report if report is not None else ValidationReport()
        # Beside each entry, one sorted pool per relation (the synonyms with
        # the word itself); then the base-word pools per POS.
        self._synonym_pools = {key: tuple(sorted(e.synonyms | {e.surface}))
                               for key, e in self._entries.items()}
        self._antonym_pools = {key: tuple(sorted(e.antonyms))
                               for key, e in self._entries.items()}
        self._words = {pos: tuple(sorted(s for (s, p) in self._entries if p is pos))
                       for pos in PartOfSpeech}
        self._antonym_words = {pos: tuple(w for w in words if self._antonym_pools[(w, pos)])
                               for pos, words in self._words.items()}
        # Detection's accepted forms per (base, relation check), kept here so
        # they live as long as the words they derive from. `detector` fills a
        # key on first use, and only for a base with an entry under its pos.
        self._accepted: dict[tuple[str, object], dict[str, object]] = {}

    @classmethod
    def empty(cls) -> "Lexicon":
        return cls({})

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        # The attached report is provenance, not content.
        if not isinstance(other, Lexicon):
            return NotImplemented
        return self._entries == other._entries

    def entries(self) -> tuple[LexEntry, ...]:
        return tuple(self._entries[k] for k in sorted(self._entries, key=_entry_key))

    def entry(self, surface: str, pos: PartOfSpeech) -> LexEntry | None:
        return self._entries.get((surface.lower(), pos))

    def words(self, pos: PartOfSpeech) -> tuple[str, ...]:
        """All surfaces of one part of speech, sorted."""
        return self._words[pos]

    def words_with_antonyms(self, pos: PartOfSpeech) -> tuple[str, ...]:
        """The surfaces of `words(pos)` that have at least one antonym, sorted."""
        return self._antonym_words[pos]

    def synonym_pool(self, surface: str, pos: PartOfSpeech) -> tuple[str, ...]:
        """`synonyms(surface, pos)` sorted: the word itself for an unknown word."""
        surface = surface.lower()
        return self._synonym_pools.get((surface, pos)) or (surface,)

    def antonym_pool(self, surface: str, pos: PartOfSpeech) -> tuple[str, ...]:
        """`antonyms(surface, pos)` sorted: empty for an unknown word."""
        return self._antonym_pools.get((surface.lower(), pos), ())

    def synonyms(self, surface: str, pos: PartOfSpeech) -> frozenset[str]:
        """Synonym set of the word, always including the word itself."""
        return frozenset(self.synonym_pool(surface, pos))

    def antonyms(self, surface: str, pos: PartOfSpeech) -> frozenset[str]:
        """Antonym set of the word; empty for unknown words."""
        e = self._entries.get((surface.lower(), pos))
        return e.antonyms if e is not None else frozenset()


def _entry_key(key: tuple[str, PartOfSpeech]) -> tuple[str, str]:
    surface, pos = key
    return (surface, pos.value)


def _split_words(field_text: str) -> list[str]:
    words = (w.strip().lower() for w in field_text.split(","))
    return list(dict.fromkeys(w for w in words if w))


def _data_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tab-split fields) per line after one leading BOM; blank and
    `#` lines skipped. A line ends at "\n", "\r\n" or "\r" only; any other
    break of `str.splitlines`, such as a form feed or U+2028, stays inside it."""
    for line_no, line in enumerate(_LINE_END_RE.split(text.removeprefix("\ufeff")), start=1):
        if line.strip() and not line.lstrip().startswith("#"):
            yield line_no, line.split("\t")


def parse_lexicon(source: str) -> Lexicon | ValidationReport:
    """Parse lexicon text; a report (instead of a lexicon) means rejection.

    Unrecoverable defects: malformed lines, duplicate (surface, pos)
    entries, references to words with no entry under the same pos.
    Recoverable, repaired with a report entry: one-directional antonym
    pairs, self-antonyms. A returned Lexicon carries its repair report
    in `.report`. One leading byte order mark is ignored.
    """
    defects: list[Defect] = []
    repairs: list[Repair] = []
    parsed: dict[tuple[str, PartOfSpeech], tuple[list[str], list[str]]] = {}

    for line_no, fields in _data_rows(source):
        if len(fields) != 4:
            defects.append(MalformedLine(line_no, f"expected 4 tab-separated fields, got {len(fields)}"))
            continue
        surface = fields[0].strip().lower()
        synonyms = _split_words(fields[2])
        antonyms = _split_words(fields[3])
        bad = [w for w in [surface, *synonyms, *antonyms] if not _WORD_RE.fullmatch(w)]
        if bad:
            defects.append(MalformedLine(line_no, f"bad word {bad[0]!r}"))
            continue
        try:
            pos = PartOfSpeech(fields[1].strip().upper())
        except ValueError:
            defects.append(MalformedLine(line_no, f"bad pos {fields[1]!r}"))
            continue
        key = (surface, pos)
        if key in parsed:
            defects.append(DuplicateEntry(surface, pos, line_no))
            continue
        if surface in antonyms:
            antonyms.remove(surface)
            repairs.append(SelfReferenceDropped(surface, pos, line_no))
        parsed[key] = (synonyms, antonyms)

    # References must resolve within the same part of speech.
    for (surface, pos), (synonyms, antonyms) in parsed.items():
        for ref in synonyms + antonyms:
            if (ref, pos) not in parsed:
                defects.append(DanglingReference(surface, ref))

    if defects:
        return ValidationReport(tuple(defects), tuple(repairs))

    # Symmetric closure over antonyms, among existing entries only.
    for (surface, pos), (_, antonyms) in parsed.items():
        for ant in sorted(antonyms):
            back = parsed[(ant, pos)][1]
            if surface not in back:
                back.append(surface)
                repairs.append(SymmetryRepair(ant, pos, surface))

    entries = {key: LexEntry(*key, frozenset(synonyms), frozenset(antonyms))
               for key, (synonyms, antonyms) in parsed.items()}
    return Lexicon(entries, ValidationReport(repairs=tuple(repairs)))


def serialize_lexicon(lexicon: Lexicon) -> str:
    """Render a lexicon back to its file format, sorted, one entry per line."""
    lines = []
    for e in lexicon.entries():
        lines.append("\t".join([
            e.surface,
            e.pos.value,
            ",".join(sorted(e.synonyms)),
            ",".join(sorted(e.antonyms)),
        ]))
    return "\n".join(lines) + ("\n" if lines else "")
