"""Detection: anchor a schema's literal skeleton, then audit relations.

Matching is two-phase. Phase one aligns the whole normalized token
sequence against the schema: literals must appear verbatim, slots
capture one to three tokens, shortest capture first, leftmost binding
wins. Only that first alignment is scored, even when another one would
satisfy more relations (README detection rule 2). Phase two walks the
schema's compiled checks, one (slot, check, base slot) per non-base
slot, and audits each by one rule: the realized word must be in the
relation's word set (the base, or the lexicon's sorted pool of its
antonyms, or of its synonyms and the base), or for a derived slot be a
set word's derived form, or for an underived synonym slot a set word's
plural, agent-noun or gerund form, or for an antonym verb slot "not to"
+ the base. Each satisfied check records one evidence item. The
skeleton decides whether a sentence has a schema's shape; the relations
decide the score. An unknown base word leaves its relations checked but
unsatisfied, so a skeleton-only match scores 0.

Three things are worked out once, not per line:

- Dispatch. A schema cannot align with a sentence that lacks one of its
  literal tokens, or whose token count it cannot span (one token per
  literal and article marker, 1 to 3 per slot), so it is not tried. A
  registry's plan indexes each schema under its rarest literal token,
  the one the fewest of its schemas require, and one set intersection
  per line picks the schemas to test in full; a schema with no literal
  token is always tried. Schemas with one regex share it, so each regex
  runs at most once per line and its captures are read once. Any
  registry is read into a tuple, and the last plan is kept while the
  next registry holds the same schemas in the same order: `classify`
  first tests whether it was given the kept plan's own tuple, which
  costs no copy. `match_schema` builds its own one-schema plan without
  replacing the kept one.
- Records. The plan holds, per schema, the Evidence records each check
  can yield (its own kind, and SuffixInverse or NegInf where its table
  adds those forms) and its group layout, (group id, base ordinal) per
  group. Equal layouts are one tuple, so the schemas that share a regex
  and a layout share one Binding per line; compare detections with `==`.
- Relations. The forms a check accepts against a known base, named
  above, each with its evidence kind, form one table per (base,
  RelationCheck), the one definition of what a slot accepts. It is built
  on first use and kept on the lexicon while it lives; a check is one lookup.
  A base the lexicon lacks gets no table, so input words cannot grow it.

A detection scoring below the caller's floor is not built. Ranking
sorts on score, literal token count, class id and registry position,
so the order in which schemas were tried never shows. `iter_scan`
classifies a corpus one line at a time, so a caller that writes each
line's detections as they come holds one line; `scan_corpus` collects them.
"""
from __future__ import annotations

import re
from enum import Enum
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

from .lexicon import Lexicon, PartOfSpeech
from .morphology import agentive, apply_derivations, gerund, negated_infinitive, pluralize
# Detection calls no suffix inverse: these stay bound for benchmarks/tracing.py,
# which wraps them by this module's name and requires every target to exist.
from .morphology import agentive_bases, gerund_bases, plural_bases  # noqa: F401
from .schema import (MAX_SLOT_SPAN, Binding, CompiledSchema, Relation, RelationCheck, Schema,
                     _record, normalize)


class EvidenceKind(Enum):
    LEX_ANTONYM = "LexAntonym"
    LEX_SYNONYM = "LexSynonym"
    NEG_INF = "NegInf"
    SUFFIX_INVERSE = "SuffixInverse"
    IDENTITY_REPEAT = "IdentityRepeat"

    # Members are singletons compared by identity, so the identity hash agrees
    # with == and spares each record's kind-to-JSON lookup Enum's Python-level hash.
    __hash__ = object.__hash__


class Evidence(NamedTuple):
    slot: int
    kind: EvidenceKind


class Detection(NamedTuple):
    class_id: str
    binding: Binding
    score: float
    relations_checked: int
    relations_satisfied: int
    sentence_index: int
    evidence: tuple[Evidence, ...]


# Bound once: on Python 3.11, EnumType's __getattr__ makes each member read slow.
_IDENTITY, _ANTONYM, _VERB = Relation.IDENTITY, Relation.ANTONYM, PartOfSpeech.VERB
# In EvidenceKind's definition order.
_LEX_ANTONYM, _LEX_SYNONYM, _NEG_INF, _SUFFIX_INVERSE, _IDENTITY_REPEAT = EvidenceKind


def _kinds(check: RelationCheck) -> tuple[EvidenceKind, EvidenceKind | None]:
    """The evidence kinds a check's table can hold: the check's own kind,
    and the kind of the forms its table adds, if it adds any."""
    if check.derivations:
        return _SUFFIX_INVERSE, None
    if check.relation is _IDENTITY:
        return _IDENTITY_REPEAT, None
    if check.relation is _ANTONYM:
        return _LEX_ANTONYM, _NEG_INF if check.symbol is _VERB else None
    return _LEX_SYNONYM, _SUFFIX_INVERSE


def _accepted_forms(lexicon: Lexicon, base: str, check: RelationCheck
                    ) -> dict[str, EvidenceKind]:
    """The slot's accepted forms for a base with an entry, built once and
    kept on the lexicon: each word of the relation's word set (the base,
    or its sorted antonym pool, or its sorted synonym pool) with its own
    kind, or for a derived slot each word's derived form, hyphen-joined,
    as SuffixInverse. An underived synonym check adds each set word's
    plural, agent-noun and gerund form as SuffixInverse, unless it is a set
    word itself; an underived antonym verb check adds "not to <base>",
    spaces kept so only three tokens match it, as NegInf. Callers pass no
    unknown base, so input words cannot grow the memo."""
    if check.relation is _IDENTITY:
        words: Iterable[str] = (base,)
    elif check.relation is _ANTONYM:
        words = lexicon.antonym_pool(base, check.symbol)
    else:
        words = lexicon.synonym_pool(base, check.symbol)
    if check.derivations:
        words = [apply_derivations(w, check.derivations).replace(" ", "-") for w in words]
    own, added = _kinds(check)
    table = dict.fromkeys(words, own)
    if added is _NEG_INF:
        table[negated_infinitive(base)] = added
    elif added is _SUFFIX_INVERSE:
        for word in words:
            for derive in (pluralize, agentive, gerund):
                table.setdefault(derive(word), added)
    return lexicon._accepted.setdefault((base, check), table)


# A member's check: (slot, check, base slot, own kind, its Evidence, the
# added kind's Evidence or None), the records built once per plan. Each
# Evidence sits in a 1-tuple: a member's evidence is the sum of its
# satisfied checks' tuples, and a sum of one tuple is that tuple.
_Check = tuple[int, RelationCheck, int, EvidenceKind, tuple[Evidence], tuple[Evidence] | None]
# A member's group layout: (group id, base ordinal) per group, in group order.
_Layout = tuple[tuple[int, int], ...]
_GROUP_LAYOUT = attrgetter("group_id", "base_ordinal")
_RANK_KEY = attrgetter("compiled.rank_key")


class _Unit(NamedTuple):
    """The registry's schemas that share one regex, so it runs once per
    line. They share `required`, its literals, and `lengths`, the token
    counts it can match: one per literal and marker, 1 to MAX_SLOT_SPAN per
    slot. Each member holds its rank, class id, checks and group layout,
    the records a detection is built from. The plan interns layouts, so
    members with equal layouts share one tuple and sit next to each
    other: a matched unit builds one Binding per layout."""
    regex: re.Pattern[str]
    required: frozenset[str]
    lengths: range
    members: tuple[tuple[int, str, tuple[_Check, ...], _Layout], ...]


class _Plan(NamedTuple):
    """How to try a registry's schemas on a line: each unit is indexed
    under its rarest required token, the one the fewest schemas of the
    registry require, or kept in `always` when it requires none."""
    registry: tuple[Schema, ...]
    index: dict[str, tuple[_Unit, ...]]
    always: tuple[_Unit, ...]


def _check(slot: int, check: RelationCheck, base_slot: int) -> _Check:
    own, added = _kinds(check)
    return (slot, check, base_slot, own, (_record(Evidence, (slot, own)),),
            None if added is None else (_record(Evidence, (slot, added)),))


def _build_plan(registry: tuple[Schema, ...]) -> _Plan:
    shared: dict[str, list[tuple[int, str, tuple[_Check, ...], _Layout]]] = {}
    forms: dict[str, CompiledSchema] = {}
    # Equal checks and equal layouts are built once and shared.
    checks: dict[tuple[int, RelationCheck, int], _Check] = {}
    layouts: dict[_Layout, _Layout] = {}
    demand: dict[str, int] = {}
    # A schema's rank is its place by rank_key, then by registry order: the sort is stable.
    for rank, schema in enumerate(sorted(registry, key=_RANK_KEY)):
        form = schema.compiled
        pattern = form.regex.pattern
        layout = tuple(map(_GROUP_LAYOUT, form.groups))
        layout = layouts.setdefault(layout, layout)
        if pattern not in shared:
            shared[pattern], forms[pattern] = [], form
        built = []
        for triple in form.checks:
            record = checks.get(triple)
            if record is None:
                record = checks[triple] = _check(*triple)
            built.append(record)
        shared[pattern].append((rank, schema.class_id, tuple(built), layout))
        for token in form.required:
            demand[token] = demand.get(token, 0) + 1
    index: dict[str, list[_Unit]] = {}
    always: list[_Unit] = []
    for pattern, members in shared.items():
        form = forms[pattern]
        if len(members) > 1:      # put the members of one layout side by side
            by_layout: dict[_Layout, list] = {}
            for member in members:
                by_layout.setdefault(member[3], []).append(member)
            members = [member for group in by_layout.values() for member in group]
        low = len(form.specs) - form.rank_key[0]      # rank_key[0] is minus the fixed tokens
        unit = _record(_Unit, (form.regex, form.required,
                               range(low, low + (MAX_SLOT_SPAN - 1) * len(form.specs) + 1),
                               tuple(members)))
        if form.required:
            # The least demanded token, the first in sorted order on a tie.
            rarest = min(sorted(form.required), key=demand.__getitem__)
            index.setdefault(rarest, []).append(unit)
        else:
            always.append(unit)
    return _Plan(registry, {token: tuple(units) for token, units in index.items()},
                 tuple(always))


_last_plan: _Plan | None = None


def _plan_for(registry: Iterable[Schema]) -> _Plan:
    """The plan for `registry` read into a tuple: the kept plan while the
    tuple holds equal schemas in the same order, else a new plan. The kept
    plan then holds this tuple, which cannot change under it."""
    global _last_plan
    schemas, plan = tuple(registry), _last_plan
    if plan is None or plan.registry is not schemas:
        plan = _last_plan = (_Plan(schemas, plan.index, plan.always)
                             if plan is not None and plan.registry == schemas
                             else _build_plan(schemas))
    return plan


def _classify(lexicon: Lexicon, plan: _Plan, tokens: tuple[str, ...],
              sentence_index: int, min_score: float = 0.0) -> list[Detection]:
    """Per matched unit, each member's checks are one lookup each of the
    realized capture in its (base, check) table, hyphen-joined and then
    as written: only NegInf keys hold a space. A member scoring below
    min_score builds no record; the others share their layout's Binding."""
    text, present, length = " ".join(tokens), set(tokens), len(tokens)
    tables, entries = lexicon._accepted, lexicon._entries
    units = list(plan.always)
    for token in plan.index.keys() & present:
        units.extend(plan.index[token])
    ranked: list[tuple[float, int, Detection]] = []
    for unit in units:
        if length not in unit.lengths or not unit.required <= present:
            continue
        match = unit.regex.fullmatch(text)
        if match is None:
            continue
        captured = match.groups()      # at the shortest length, one token per slot
        joined = (captured if length == unit.lengths.start
                  else tuple([c.replace(" ", "-") for c in captured]))
        bound = binding = None
        for rank, class_id, checks, layout in unit.members:
            evidence: tuple[Evidence, ...] = ()
            for slot, check, base_slot, own, own_evidence, added_evidence in checks:
                base = joined[base_slot]
                table = tables.get((base, check))
                if table is None:
                    if (base, check.symbol) not in entries:
                        continue
                    table = _accepted_forms(lexicon, base, check)
                kind = table.get(joined[slot]) or table.get(captured[slot])
                if kind is not None:
                    evidence += own_evidence if kind is own else added_evidence
            checked, satisfied = len(checks), len(evidence)
            score = satisfied / checked if checked else 1.0
            if not score >= min_score:
                continue
            if layout is not bound:       # members of one layout are adjacent
                bound = layout
                binding = _record(Binding, (tuple([(group_id, joined[ordinal])
                                                   for group_id, ordinal in layout]), joined))
            ranked.append((-score, rank, _record(Detection, (
                class_id, binding, score, checked, satisfied, sentence_index, evidence))))
    # Ranks are unique, so the sort never compares detections and the
    # order the units were tried in cannot reach the result.
    if len(ranked) > 1:
        ranked.sort()
    return [item[2] for item in ranked]


def match_schema(lexicon: Lexicon, schema: Schema, sentence: str,
                 sentence_index: int = 0) -> Detection | None:
    """Match one schema against one sentence; None when its skeleton is absent, as in a blank one."""
    found = _classify(lexicon, _build_plan((schema,)), normalize(sentence), sentence_index)
    return found[0] if found else None


def classify(lexicon: Lexicon, registry: Iterable[Schema], sentence: str,
             sentence_index: int = 0, *, min_score: float = 0.0) -> list[Detection]:
    """All matching schemas scoring at or above min_score, best first; the
    floor's `>=` is applied to each score before its detection is built.

    Ranking: score, then literal token count (more anchoring text wins),
    then the natural class id order, so byte-identical patterns resolve
    to the lower id, then registry order. A sentence with no token, such
    as a blank line, matches nothing: each regex needs a character.
    """
    plan = _last_plan
    if plan is None or plan.registry is not registry:
        plan = _plan_for(registry)
    return _classify(lexicon, plan, normalize(sentence), sentence_index, min_score)


def iter_scan(lexicon: Lexicon, registry: Iterable[Schema], lines: Iterable[str],
              min_score: float = 0.5) -> Iterator[tuple[int, str, list[Detection]]]:
    """Classify each line as it is read: per line, `(index, line, kept)`,
    where `kept` holds the line's detections scoring at or above
    min_score, best first, and may be empty: `classify` applies the floor.
    The registry is read into a tuple once, so a one-shot iterable serves
    every line and each line finds the kept plan by identity."""
    registry = tuple(registry)
    for index, line in enumerate(lines):
        yield index, line, classify(lexicon, registry, line, sentence_index=index,
                                    min_score=min_score)


def scan_corpus(lexicon: Lexicon, registry: Iterable[Schema], lines: Iterable[str],
                min_score: float = 0.5) -> tuple[list[Detection], dict[str, int]]:
    """`iter_scan` collected: every kept detection, and a count table.

    The count table starts at zero for every registry class and tallies
    each line's top kept detection only, so one line increments one class.
    """
    registry = tuple(registry)
    counts = {schema.class_id: 0 for schema in registry}
    detections: list[Detection] = []
    for _, _, kept in iter_scan(lexicon, registry, lines, min_score):
        detections.extend(kept)
        if kept:
            counts[kept[0].class_id] += 1
    return detections, counts
