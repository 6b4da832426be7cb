"""Template DSL: parsing, rendering, and the built-in class registry.

A template mixes literal text with slots. Slot grammar:

    slot  := "{" ["~"] symbol prime* [":" flag ("+" flag)*] ["#" digit] "}"
    symbol: N (noun), V (verb), A (attribute)
    ~     : fill with an antonym of the group's base word
    '     : synonym prime; {X'} and {X''} are distinct synonym picks
    flags : agent, ger, pl, neginf -- surface derivations, applied in order
    #d    : explicit group id, one ASCII digit; slots sharing a group
            share one base word

Slots without #d group implicitly: all unmarked slots of one symbol share
a group, numbered from the smallest id not claimed explicitly, in order
of first appearance. Every group needs one bare base slot (no ~, no
primes, no flags); the first such slot carries the group's base word.

The literal text "a(n)" is an article marker: generation prints "a" or
"an" by the word after it, detection accepts exactly one "a" or "an".
Each slot and marker must read as a word of its own: a template whose
literal text would glue onto one ("x{N}", "{N}'s", "a(n)x") is rejected.
A Schema accepts only the tokens its template text parses back to, so
tokens built by hand pass the parser's checks when the Schema is built.

Each schema compiles once, on first use, to a CompiledSchema kept on the
instance: the template split once at slots and markers, from which both
detection's anchored regex pattern and generation's render plan are built.
"""
from __future__ import annotations

import functools
import itertools
import re
from importlib import resources
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import NamedTuple, Sequence

from .lexicon import WORD_PATTERN, PartOfSpeech, _data_rows
from .morphology import DERIVATION_RULES, Derivation, indefinite_article

ARTICLE_MARKER_RE = re.compile(r"([Aa]\(n\))")     # the group keeps markers in a split
ARTICLE_MARKERS = ("a(n)", "A(n)")
MAX_SLOT_SPAN = 3

_WORD_RE = re.compile(rf"{WORD_PATTERN}|[^a-z0-9\s]")   # a lexicon word, or one other character

UNKNOWN_SYMBOL = "unknown-symbol"
UNBALANCED_BRACES = "unbalanced-braces"
ADJACENT_SLOTS = "adjacent-slots"
BAD_DERIVATION_FLAG = "bad-derivation-flag"
GROUP_CONFLICT = "group-conflict"
MISSING_BASE = "missing-base"
GLUED_SLOT = "glued-slot"
EMPTY_TEMPLATE = "empty-template"


class TemplateError(ValueError):
    """Template rejected; `kind` is one of the module's error kind constants."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class Relation(Enum):
    IDENTITY = "identity"
    ANTONYM = "antonym"
    SYNONYM = "synonym"

    # Members are singletons compared by identity, so the identity hash agrees
    # with == and spares every key holding a slot spec Enum's Python-level hash.
    __hash__ = object.__hash__


class SchemaKind(Enum):
    PARADOX = "paradox"
    SEMI_PARADOX = "semi-paradox"
    TAUTOLOGY = "tautology"


class SlotSpec(NamedTuple):
    symbol: PartOfSpeech
    relation: Relation
    prime: int
    derivations: tuple[Derivation, ...]
    group_id: int

    @property
    def is_base(self) -> bool:
        return (self.relation is Relation.IDENTITY and self.prime == 0
                and not self.derivations)


class LiteralToken(NamedTuple):
    text: str


class SlotToken(NamedTuple):
    spec: SlotSpec


Token = LiteralToken | SlotToken


@dataclass(frozen=True)
class Schema:
    class_id: str
    kind: SchemaKind
    tokens: tuple[Token, ...]
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.tokens, tuple):
            raise TypeError(f"class {self.class_id!r}: tokens must be a tuple, "
                            f"not {type(self.tokens).__name__}")
        if parse_template(text := render_tokens(self.tokens)) != self.tokens:
            raise ValueError(f"class {self.class_id!r}: tokens are not what {text!r} parses to")

    def slot_specs(self) -> tuple[SlotSpec, ...]:
        """Slot specs in template order; index = the slot's ordinal."""
        return tuple(t.spec for t in self.tokens if isinstance(t, SlotToken))

    def groups(self) -> dict[int, tuple[int, ...]]:
        """group id -> slot ordinals, in order of first appearance."""
        out: dict[int, list[int]] = {}
        for i, spec in enumerate(self.slot_specs()):
            out.setdefault(spec.group_id, []).append(i)
        return {g: tuple(ix) for g, ix in out.items()}

    def base_ordinal(self, group_id: int) -> int:
        """Ordinal of the group's base slot."""
        return _base_ordinal(self.slot_specs(), group_id)

    @functools.cached_property
    def compiled(self) -> CompiledSchema:
        """The schema's compiled form, built on first use and kept on the
        instance, so a lookup never hashes the schema's token tree."""
        return _compile_schema(self)

    def __getstate__(self) -> dict[str, object]:
        # The fields only: generation's draw function cannot be pickled.
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _base_ordinal(specs: Sequence[SlotSpec], group_id: int) -> int:
    """Ordinal of the group's base slot, its first bare slot."""
    for i, spec in enumerate(specs):
        if spec.group_id == group_id and spec.is_base:
            return i
    raise TemplateError(MISSING_BASE, f"group {group_id} has no bare base slot")


def normalize(sentence: str) -> tuple[str, ...]:
    """Lowercased tokens; punctuation splits off, but a hyphen or
    apostrophe between letters stays inside its word ("non-diary",
    "don't"). Typographic apostrophes are folded to plain ones."""
    text = sentence.lower().replace("’", "'")
    return tuple(_WORD_RE.findall(text))


class GroupPlan(NamedTuple):
    """One slot group: generation draws its base word, detection binds it."""
    group_id: int
    pos: PartOfSpeech
    base_ordinal: int         # the group's first bare slot
    needs_antonym: bool       # the base must have a lexical antonym


class RelationCheck(NamedTuple):
    """The fields of a slot's SlotSpec that decide which forms it accepts."""
    symbol: PartOfSpeech
    relation: Relation
    derivations: tuple[Derivation, ...]


class Binding(NamedTuple):
    """(group id, base word) per group in group order, plus each slot's realized surface."""
    bases: tuple[tuple[int, str], ...]
    realized: tuple[str, ...]


_record = tuple.__new__     # builds a NamedTuple record without its Python-level __new__


PlanPiece = str | int | tuple[int, bool, bool]     # see CompiledSchema.plan
_SLOT_PATTERN = r"(\S+(?: \S+){0,%d}?)" % (MAX_SLOT_SPAN - 1)


class CompiledSchema(NamedTuple):
    """What generation and detection need of a schema, worked out once.

    `plan` is what generation prints, in order: literal text, the ordinal of
    a slot whose fill goes there as it is, or a (slot, article, capitalised)
    triple for the fill's indefinite article or the fill, upper-cased first.

    `pattern` is the regex detection matches against a sentence's normalized
    tokens joined by single spaces. Each element is one space-separated part:
    an escaped literal token, `(?:a|an)` for an article marker, or a lazy
    group of one to MAX_SLOT_SPAN tokens per slot. Backtracking then visits
    alignments leftmost slot first, shortest capture first.

    `required` holds the pattern's literal tokens, unescaped, article
    markers excluded. The pattern matches only a sentence that has each of
    them among its tokens, so a sentence missing one need not be tried.
    """
    specs: tuple[SlotSpec, ...]
    groups: tuple[GroupPlan, ...]             # in order of first appearance
    checks: tuple[tuple[int, RelationCheck, int], ...]  # (slot, check, base slot) per non-base slot
    plan: tuple[PlanPiece, ...]
    pattern: str
    required: frozenset[str]
    rank_key: tuple[int, tuple[int, str]]     # (-literal token count, class order)


def _compile_schema(schema: Schema) -> CompiledSchema:
    pieces: list[str | int] = []
    slot_index = itertools.count()
    for t in schema.tokens:
        if isinstance(t, SlotToken):
            pieces.append(next(slot_index))
        else:
            pieces.extend(p for p in ARTICLE_MARKER_RE.split(t.text) if p)
    parts: list[str] = []
    required: set[str] = set()
    for piece in pieces:
        if isinstance(piece, int):
            parts.append(_SLOT_PATTERN)
        elif piece in ARTICLE_MARKERS:
            parts.append("(?:a|an)")
        else:
            literals = normalize(piece)
            required.update(literals)
            parts.extend(re.escape(t) for t in literals)
    specs = schema.slot_specs()
    # A bare verb antonym slot falls back to "not to <verb>"; others need an antonym.
    groups = tuple(
        GroupPlan(gid, specs[ordinals[0]].symbol, schema.base_ordinal(gid),
                  any(specs[i].relation is Relation.ANTONYM
                      and (specs[i].symbol is not PartOfSpeech.VERB or specs[i].derivations)
                      for i in ordinals))
        for gid, ordinals in schema.groups().items())
    base_of = {g.group_id: g.base_ordinal for g in groups}
    return CompiledSchema(
        specs=specs,
        groups=groups,
        checks=tuple((i, RelationCheck(s.symbol, s.relation, s.derivations), base_of[s.group_id])
                     for i, s in enumerate(specs) if i != base_of[s.group_id]),
        plan=_render_plan(pieces),
        pattern=" ".join(parts),
        required=frozenset(required),
        rank_key=(len(specs) - len(parts), class_sort_key(schema.class_id)),
    )


def _render_plan(pieces: Sequence[str | int]) -> tuple[PlanPiece, ...]:
    """The split template as generation prints it, literal runs merged. An
    article marker, and the sentence's first letter or digit, are resolved
    here where literal text decides them, a letter upper-cased only where
    `normalize` reads it the same ("ß" stays). Where a slot's fill does, a
    triple stands in: every fill is a WORD_PATTERN lexicon word, a form derived
    from one or "not to <verb>", so its first character is a letter or digit."""
    plan: list[PlanPiece] = []
    capital = True                      # no letter or digit printed yet
    for k, piece in enumerate(pieces):
        if piece in ARTICLE_MARKERS:
            # A later marker's text starts with the letter its article starts with.
            start = next((p if isinstance(p, int) else p.lstrip()[0]
                          for p in pieces[k + 1:] if isinstance(p, int) or p.strip()), "")
            upper, capital = capital or piece == "A(n)", False
            if isinstance(start, int):
                piece = (start, True, upper)
            else:
                article = indefinite_article(start) if start else "a"
                piece = article.capitalize() if upper else article
        elif isinstance(piece, int):
            piece, capital = ((piece, False, True) if capital else piece), False
        elif capital:       # [^\W_] is what str.isalnum() accepts
            upper, found = re.subn(r"[^\W_]", lambda m: m[0].upper(), piece, count=1)
            piece = upper if normalize(upper) == normalize(piece) else piece
            capital = not found
        if isinstance(piece, str) and plan and isinstance(plan[-1], str):
            plan[-1] += piece
        else:
            plan.append(piece)
    return tuple(plan)


_FLAGS = {d.value: d for d in Derivation}
_GROUP_IDS = {str(d): d for d in range(10)}

# A template is a run of slots, literal text and stray braces.
_PIECE_RE = re.compile(r"\{([^{}]*)\}|[{}]|[^{}]+")
# The slot grammar above. Flags and the group id are matched loosely and
# checked afterwards, so a bad flag is reported before a bad group id.
_SLOT_RE = re.compile(r"(~?)([NVA])('*)(?::([^#]*))?(?:#(.*))?", re.DOTALL)

# A parsed slot: SlotSpec's fields up to the group id, then the explicit #d.
_SlotFields = tuple[PartOfSpeech, Relation, int, tuple[Derivation, ...], int | None]


def _read_slot(body: str, at: int) -> _SlotFields:
    """Read one slot body, the text between its braces."""
    m = _SLOT_RE.fullmatch(body)
    if m is None:
        raise TemplateError(UNKNOWN_SYMBOL, f"bad slot {{{body}}} at offset {at}")
    tilde, symbol, primes, flags, group = m.groups()
    names = [] if flags is None else flags.split("+")
    for name in names:
        if name not in _FLAGS:
            raise TemplateError(BAD_DERIVATION_FLAG, f"bad derivation flag {name!r} at offset {at}")
    if group is not None and group not in _GROUP_IDS:
        raise TemplateError(UNKNOWN_SYMBOL, f"bad group id {group!r} at offset {at}")
    derivations = tuple(_FLAGS[name] for name in names)
    category = symbol
    for step in derivations:
        _, needs, yields = DERIVATION_RULES[step]
        if category != needs:
            raise TemplateError(
                BAD_DERIVATION_FLAG,
                f"flag {step.value!r} does not apply to {category} at offset {at}")
        category = yields
    relation = (Relation.ANTONYM if tilde
                else Relation.SYNONYM if primes else Relation.IDENTITY)
    return (PartOfSpeech(symbol), relation, len(primes), derivations,
            None if group is None else _GROUP_IDS[group])


def _group_ids(slots: list[tuple[PartOfSpeech, int | None]]) -> list[int]:
    """Group id per (symbol, explicit #d or None): the explicit id, or else
    the smallest unclaimed id per symbol, in order of first appearance."""
    claimed = {gid for _, gid in slots if gid is not None}
    implicit: dict[PartOfSpeech, int] = {}
    out = []
    for symbol, gid in slots:
        if gid is None and symbol not in implicit:
            implicit[symbol] = next(g for g in itertools.count() if g not in claimed)
            claimed.add(implicit[symbol])
        out.append(implicit[symbol] if gid is None else gid)
    return out


@functools.lru_cache(maxsize=256)
def parse_template(dsl: str) -> tuple[Token, ...]:
    """Parse template text to a token sequence.

    Rejected templates raise TemplateError: blank text, stray or unclosed braces,
    unknown slot symbols, bad derivation flags, two slots with no
    literal text between them, groups mixing symbols, groups without a
    bare base slot, and literal text glued onto a slot or article marker,
    so that a one-word fill or the marker would not read back as a word
    of its own. The first error from the left wins, then group
    conflicts, then missing bases, then glued text. Accepted texts are
    memoised in a bounded cache keyed by the text; the tokens are immutable.
    """
    if not normalize(dsl):
        raise TemplateError(EMPTY_TEMPLATE, "template has no slot and no word")
    parts: list[LiteralToken | _SlotFields] = []
    for m in _PIECE_RE.finditer(dsl):
        body, text = m.group(1), m.group()
        if text in ("{", "}"):
            raise TemplateError(UNBALANCED_BRACES, f"unbalanced {text!r} at offset {m.start()}")
        if body is None:
            parts.append(LiteralToken(text))
            continue
        if parts and not isinstance(parts[-1], LiteralToken):
            raise TemplateError(ADJACENT_SLOTS, f"adjacent slots at offset {m.start()}")
        parts.append(_read_slot(body, m.start()))

    slots = [p for p in parts if not isinstance(p, LiteralToken)]
    gids = iter(_group_ids([(symbol, explicit) for symbol, *_, explicit in slots]))
    tokens = tuple(p if isinstance(p, LiteralToken) else SlotToken(SlotSpec(*p[:-1], next(gids)))
                   for p in parts)
    specs = [t.spec for t in tokens if isinstance(t, SlotToken)]
    group_symbol: dict[int, PartOfSpeech] = {}
    for spec in specs:
        if group_symbol.setdefault(spec.group_id, spec.symbol) is not spec.symbol:
            raise TemplateError(GROUP_CONFLICT, f"group {spec.group_id} mixes slot symbols")
    for gid in group_symbol:
        _base_ordinal(specs, gid)
    # With a word per slot and "a" per marker, spaces around them must not change the tokens.
    words = ["x" if isinstance(t, SlotToken) else t.text for t in tokens]
    if (normalize(ARTICLE_MARKER_RE.sub("a", "".join(words)))
            != normalize(ARTICLE_MARKER_RE.sub(" a ", " ".join(words)))):
        raise TemplateError(GLUED_SLOT, "a slot or article marker is glued to the text beside it")
    return tokens


def render_tokens(tokens: tuple[Token, ...]) -> str:
    """Render tokens back to template text.

    Explicit #d markers are emitted on every slot when the stored group
    ids differ from what implicit assignment would produce, otherwise on
    none; parse_template(render_tokens(t)) == t for a Schema's tokens. A
    literal holding a brace or an explicit group id above 9 raises ValueError.
    """
    specs = [t.spec for t in tokens if isinstance(t, SlotToken)]
    stored = [spec.group_id for spec in specs]
    explicit = stored != _group_ids([(spec.symbol, None) for spec in specs])
    if explicit and any(g > 9 for g in stored):
        raise ValueError("group ids above 9 cannot be rendered")
    parts = []
    for t in tokens:
        if isinstance(t, LiteralToken):
            if "{" in t.text or "}" in t.text:
                raise ValueError(f"literal {t.text!r} holds a brace and cannot be rendered")
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


def render_template(schema: Schema) -> str:
    return render_tokens(schema.tokens)


def class_sort_key(class_id: str) -> tuple[int, str]:
    """Natural order for class ids: 2a < 2n < 10, unparsable ids last."""
    m = re.fullmatch(r"(\d+)([a-z]*)", class_id)
    if m is None:
        return (10 ** 9, class_id)
    return (int(m.group(1)), m.group(2))


@functools.lru_cache(maxsize=1)
def builtin_registry() -> tuple[Schema, ...]:
    """The 36 built-in schemas of the packaged classes.tsv, in catalog
    order. Built once, immutable."""
    catalog = resources.files("antinomy") / "data" / "classes.tsv"
    return load_catalog(catalog.read_text(encoding="utf-8"))


CATALOG_HEADER = (
    "# class catalog: one schema per line, classId<TAB>kind<TAB>template<TAB>label\n"
    "# detection: slot captures span 1 to 3 tokens; ranking prefers score,\n"
    "# then literal token count, then the lower classId (so 23 beats 27,\n"
    "# whose template is identical by design)\n"
)


def dump_catalog(schemas: tuple[Schema, ...]) -> str:
    """Catalog text that load_catalog reads back to `schemas`, labels
    included. Each row is read back by load_catalog after the header, as
    it stands in the text; a row that does not read back to its schema
    (a tab or line break in a field, a row read as a comment) or a
    repeated class id raises ValueError naming the class.
    A row ends at "\n", "\r\n" or "\r" only, so a field may hold any
    other line break of `str.splitlines`, such as a form feed or U+2028."""
    rows: dict[str, str] = {}
    for s in schemas:
        row = f"{s.class_id}\t{s.kind.value}\t{render_template(s)}\t{s.label}\n"
        try:
            back = [(b, b.label) for b in load_catalog(CATALOG_HEADER + row)]
        except ValueError:
            back = []
        if s.class_id in rows or back != [(s, s.label)]:
            raise ValueError(f"class {s.class_id!r} cannot be written as a catalog row")
        rows[s.class_id] = row
    return CATALOG_HEADER + "".join(rows.values())


def load_catalog(text: str) -> tuple[Schema, ...]:
    """Read a catalog file; inverse of dump_catalog up to comments.

    Rows hold 3 or 4 tab-separated fields; a missing label reads as "".
    One leading byte order mark is ignored; a repeated class id is an error.
    """
    schemas = []
    seen: set[str] = set()
    for line_no, fields in _data_rows(text):
        if len(fields) not in (3, 4):
            raise ValueError(f"catalog line {line_no}: expected 3 or 4 fields")
        class_id, kind_text, dsl = fields[:3]
        label = fields[3] if len(fields) == 4 else ""
        if class_id in seen:
            raise ValueError(f"catalog line {line_no}: duplicate class id {class_id!r}")
        seen.add(class_id)
        try:
            kind = SchemaKind(kind_text)
        except ValueError:
            raise ValueError(f"catalog line {line_no}: unknown kind {kind_text!r}") from None
        schemas.append(Schema(class_id, kind, parse_template(dsl), label))
    return tuple(schemas)
