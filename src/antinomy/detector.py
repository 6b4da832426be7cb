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

Two things are worked out once, not per line:

- Dispatch. A schema cannot align with a sentence that lacks one of its
  literal tokens, or whose token count it cannot span (one token per
  literal and article marker, 1 to 3 per slot), so it is not tried. A
  registry's plan indexes each schema under its rarest literal token,
  the one the fewest of its schemas require, and one set intersection
  per line picks the schemas to test in full; a schema with no literal
  token is always tried. Schemas with one regex share it, so each regex
  runs at most once per line and its captures are read once. Any
  registry is read into a tuple, and the last plan is kept while the
  next registry holds the same schemas in the same order; `match_schema`
  builds its own one-schema plan without replacing the kept one.
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
    if check.relation is Relation.IDENTITY:
        words, kind = (base,), EvidenceKind.IDENTITY_REPEAT
    elif check.relation is Relation.ANTONYM:
        words, kind = lexicon.antonym_pool(base, check.symbol), EvidenceKind.LEX_ANTONYM
    else:
        words, kind = lexicon.synonym_pool(base, check.symbol), EvidenceKind.LEX_SYNONYM
    if check.derivations:
        words = [apply_derivations(w, check.derivations).replace(" ", "-") for w in words]
        kind = EvidenceKind.SUFFIX_INVERSE
    table = dict.fromkeys(words, kind)
    if kind is EvidenceKind.LEX_ANTONYM and check.symbol is PartOfSpeech.VERB:
        table[negated_infinitive(base)] = EvidenceKind.NEG_INF
    elif kind is EvidenceKind.LEX_SYNONYM:
        for word in words:
            for derive in (pluralize, agentive, gerund):
                table.setdefault(derive(word), EvidenceKind.SUFFIX_INVERSE)
    return lexicon._accepted.setdefault((base, check), table)


def _detection(lexicon: Lexicon, class_id: str, form: CompiledSchema,
               captured: tuple[str, ...], joined: tuple[str, ...], sentence_index: int,
               min_score: float) -> Detection | None:
    """Each check is one lookup of the realized capture in its (base,
    check) table, hyphen-joined and then as written: only NegInf keys hold
    a space. Below min_score no record is built: None."""
    tables, entries = lexicon._accepted, lexicon._entries
    evidence: list[Evidence] = []
    for slot, check, base_slot in form.checks:
        base = joined[base_slot]
        table = tables.get((base, check))
        if table is None:
            if (base, check.symbol) not in entries:
                continue
            table = _accepted_forms(lexicon, base, check)
        kind = table.get(joined[slot]) or table.get(captured[slot])
        if kind is not None:
            evidence.append(_record(Evidence, (slot, kind)))
    checked, satisfied = len(form.checks), len(evidence)
    score = satisfied / checked if checked else 1.0
    if not score >= min_score:
        return None
    bases = tuple([(group.group_id, joined[group.base_ordinal]) for group in form.groups])
    return _record(Detection, (class_id, _record(Binding, (bases, joined)), score, checked,
                               satisfied, sentence_index, tuple(evidence)))


class _Unit(NamedTuple):
    """The registry's schemas that share one regex, so it runs once per
    line. They share `required`, its literals, and `lengths`, the token
    counts it can match: one per literal and marker, 1 to MAX_SLOT_SPAN per slot."""
    regex: re.Pattern[str]
    required: frozenset[str]
    lengths: range
    members: tuple[tuple[int, str, CompiledSchema], ...]   # (rank, class id, form)


class _Plan(NamedTuple):
    """How to try a registry's schemas on a line: each unit is indexed
    under its rarest required token, the one the fewest schemas of the
    registry require, or kept in `always` when it requires none."""
    registry: tuple[Schema, ...]
    index: dict[str, tuple[_Unit, ...]]
    always: tuple[_Unit, ...]


def _build_plan(registry: tuple[Schema, ...]) -> _Plan:
    shared: dict[str, list[tuple[int, str, CompiledSchema]]] = {}
    demand: dict[str, int] = {}
    # A schema's rank is its place by rank_key, then by registry order: the sort is stable.
    for rank, schema in enumerate(sorted(registry, key=lambda schema: schema.compiled.rank_key)):
        form = schema.compiled
        shared.setdefault(form.regex.pattern, []).append((rank, schema.class_id, form))
        for token in form.required:
            demand[token] = demand.get(token, 0) + 1
    index: dict[str, list[_Unit]] = {}
    always: list[_Unit] = []
    for members in shared.values():
        form = members[0][2]
        low = len(form.specs) - form.rank_key[0]      # rank_key[0] is minus the fixed tokens
        unit = _Unit(form.regex, form.required,
                     range(low, low + (MAX_SLOT_SPAN - 1) * len(form.specs) + 1), tuple(members))
        if form.required:
            rarest = min(form.required, key=lambda token: (demand[token], token))
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
    text, present, length = " ".join(tokens), set(tokens), len(tokens)
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
        for rank, class_id, form in unit.members:
            if (detection := _detection(lexicon, class_id, form, captured, joined,
                                        sentence_index, min_score)) is not None:
                ranked.append((-detection.score, rank, detection))
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
    return _classify(lexicon, _plan_for(registry), normalize(sentence), sentence_index,
                     min_score)


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
