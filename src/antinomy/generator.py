"""Sentence generation: fill schema slots from a lexicon, deterministically.

All randomness flows through one SplitMix64 stream per sentence. Base
word, antonym and synonym pools are filtered and sorted once per
lexicon, and each choice point advances the stream by exactly one step,
whatever its pool's size, so equal (lexicon, schema, seed, overrides)
always yields the identical sentence. Candidate filtering happens before
sampling; a group with an empty pool raises NoCandidateError instead of
rejection loops. Each schema compiles on first use to a draw function of
straight-line code, one code object per shape of schema, that holds only
the draw and the print: it picks the words (plain functions raise for a
refused override or an empty pool) and prints them in one f-string. A batch
is made one item at a time by `iter_batch`, so a caller that writes each
item as it comes holds one sentence at a time; `generate_batch` collects
the same items into the tuples of a `BatchResult`.
"""
from __future__ import annotations

import functools
import linecache
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, NoReturn, Sequence

from .lexicon import Lexicon, PartOfSpeech
# Draw functions look these names up here as they run (see _draw_factory).
from .morphology import apply_derivations, indefinite_article, negated_infinitive  # noqa: F401
from .rng import SplitMix64, sub_seed  # noqa: F401
from .schema import (Binding, CompiledSchema, GroupPlan, PlanPiece, Relation, Schema,
                     _record)


class GenerateError(Exception):
    """Base class for generation failures."""


class NoCandidateError(GenerateError):
    """No lexicon word can fill the group under the schema's constraints."""

    def __init__(self, class_id: str, group_id: int):
        super().__init__(f"class {class_id}: no candidate word for group {group_id}")
        self.class_id = class_id
        self.group_id = group_id


class BadOverrideError(GenerateError):
    """A --slot override names a word the group cannot accept."""

    def __init__(self, group_id: int, word: str, reason: str):
        super().__init__(f"override {group_id}={word}: {reason}")
        self.group_id = group_id
        self.word = word


class GeneratedSentence(NamedTuple):
    class_id: str
    sentence: str
    seed: int
    binding: Binding


class SkippedSchema(NamedTuple):
    class_id: str
    reason: str


class BatchResult(NamedTuple):
    sentences: tuple[GeneratedSentence, ...]
    skips: tuple[SkippedSchema, ...]


def _fill(plan: Sequence[PlanPiece], realized: Sequence[str]) -> str:
    """The sentence: the render plan with the slots' fills put in, by the
    code `_render` writes for it, as a draw function does."""
    head, lines, text = _render(plan, "realized[{}]".format)
    make = _draw_factory(_source("plan", head, "realized", [*lines, f"return {text}"]))
    return make(plan)(realized)


def _pinned(lexicon: Lexicon, group: GroupPlan, word: str) -> str:
    """The lower-cased `word` if the group's pool holds it (words_with_antonyms(pos)
    if the group needs an antonym, else words(pos)); else BadOverrideError says why."""
    word, pos = word.lower(), group.pos
    if lexicon.entry(word, pos) is None:
        reason = f"not a known {pos.value} word"
    elif group.needs_antonym and not lexicon.antonyms(word, pos):
        reason = ("word has no antonym and is not a verb" if pos is not PartOfSpeech.VERB
                  else "verb has no antonym for its derived antonym slot")
    else:
        return word
    raise BadOverrideError(group.group_id, word, reason)


def _no_candidate(class_id: str, group_id: int) -> NoReturn:
    raise NoCandidateError(class_id, group_id)


def generate(lexicon: Lexicon, schema: Schema, seed: int = 0,
             overrides: Mapping[int, str] | None = None) -> GeneratedSentence:
    """Produce one sentence from the schema.

    Base words are drawn per group from the sorted candidate pool, or
    taken from `overrides` (group id -> word) when that pool holds the
    word; an override for a group the schema lacks is ignored. Antonym
    slots draw from the word's antonyms; a bare verb antonym slot falls
    back to "not to <verb>" for an antonym-less verb. Synonym-prime slots
    prefer a synonym that is neither the base nor already used by an
    earlier prime slot of the group, relaxing in that order until a pool
    is non-empty. The records are built with `tuple.__new__`, as `classify`
    builds its own, so no NamedTuple `__new__` runs per sentence. The work is
    done by the schema's draw function (see _draw_source), kept on it.
    """
    try:
        draw = schema._draw
    except AttributeError:
        form = schema.compiled
        make = _draw_factory(_draw_source(form))
        draw = schema.__dict__["_draw"] = make(schema.class_id, form.plan, form.groups, form.specs)
    return draw(lexicon, seed, overrides)


# A draw function's lines per step, before `_render`'s print the sentence: {i}
# is a group's ordinal, {k} a slot's, whose word is w{k}. It holds only the draw
# and the print: _pinned and _no_candidate raise for it. A base is a lower-case
# word with an entry under its group's symbol, so its stored pools are read by
# key, with no case folding. Candidate filtering leaves the "not to" fallback to
# bare verb slots. A group's first synonym slot finds no synonym used yet; its
# one-word pool (it holds the base) is the base alone, which the filter falls
# back to. A later one avoids the words {used} of the earlier ones.
_STEPS = {
    "group": ("pool = lexicon.{pool}(pos{i})",
              "b{i} = (_pinned(lexicon, group{i}, overrides[gid{i}]) if overrides and gid{i} in overrides",
              "      else choice(pool or _no_candidate(class_id, gid{i})))"),
    "identity": ("w{k} = b{i}",),
    "antonym": ("pool = lexicon._antonym_pools[b{i}, pos{i}]",
                "w{k} = choice(pool) if pool else negated_infinitive(b{i})"),
    "synonym": ("pool = lexicon._synonym_pools[b{i}, pos{i}]",
                "w{k} = choice(pool if len(pool) == 1 else [x for x in pool if x != b{i}] or pool)"),
    "later synonym": ("pool = lexicon._synonym_pools[b{i}, pos{i}]",
                      "fresh = [x for x in pool if x not in ({used})]",
                      "pool = [x for x in fresh if x != b{i}] or fresh or [x for x in pool if x != b{i}]",
                      "w{k} = choice(pool) if pool else b{i}"),
}


def _render(plan: Sequence[PlanPiece],
            fill: Callable[[int], str]) -> tuple[list[str], list[str], str]:
    """The one rule that prints a render plan, as code: `make` lines binding its
    `plan` argument's literal piece j to p{j}, draw lines putting articles in
    a{j}, and the sentence's f-string, where `fill(k)` names slot k's fill."""
    head, lines, parts = [], [], []
    for j, piece in enumerate(plan):
        if piece.__class__ is str:
            head.append(f"p{j} = plan[{j}]")
            parts.append(f"p{j}")
            continue
        slot, article, capitalised = (piece, False, False) if piece.__class__ is int else piece
        word = fill(slot)
        if article:
            lines.append(f"a{j} = indefinite_article({word})")
            word = f"a{j}"
        parts += [f"{word}[0].upper()", f"{word}[1:]"] if capitalised else [word]
    return head, lines, 'f"' + "".join(f"{{{part}}}" for part in parts) + '"'


def _source(params: str, head: Sequence[str], args: str, steps: Sequence[str]) -> str:
    """The source of `make(params)`: it runs `head`, then returns `draw(args)`."""
    return "".join([f"def make({params}):\n", *(f"    {line}\n" for line in head),
                    f"    def draw({args}):\n", *(f"        {line}\n" for line in steps),
                    "    return draw\n"])


def _draw_source(form: CompiledSchema) -> str:
    """The source of `make(class_id, plan, groups, specs)`, whose `draw(lexicon,
    seed, overrides)` runs `generate`'s steps for this schema in straight
    lines: a base word per group, a fill per slot, the sentence as `_render`
    prints it. Groups, slots and pieces go by ordinal; all else is an argument
    of `make`, so no schema or lexicon text enters it: one shape, one source."""
    index = {group.group_id: i for i, group in enumerate(form.groups)}
    head, steps = [], ["choice = SplitMix64(seed).choice"]
    for i, group in enumerate(form.groups):
        head.append(f"group{i} = groups[{i}]; gid{i}, pos{i} = group{i}.group_id, group{i}.pos")
        pool = "words_with_antonyms" if group.needs_antonym else "words"
        steps += [line.format(i=i, pool=pool) for line in _STEPS["group"]]
    picked: dict[int, str] = {}     # group ordinal -> the words its synonym slots picked
    for k, (_, relation, _, derivations, gid) in enumerate(form.specs):
        i, kind, used = index[gid], relation.value, ""
        if relation is Relation.SYNONYM:
            used = picked.get(i, "")
            kind, picked[i] = "later synonym" if used else "synonym", used + f"w{k}, "
        steps += [line.format(i=i, k=k, used=used) for line in _STEPS[kind]]
        if derivations:
            head.append(f"d{k} = specs[{k}].derivations")
            steps.append(f"f{k} = apply_derivations(w{k}, d{k})")
    fills = [f"f{k}" if s.derivations else f"w{k}" for k, s in enumerate(form.specs)]
    plan_head, render, text = _render(form.plan, fills.__getitem__)
    realized = "".join(f"{fill}, " for fill in fills)
    bases = "".join(f"(gid{i}, b{i}), " for i in range(len(form.groups)))
    steps += [f"realized = ({realized})", *render,
              f"return _record(GeneratedSentence, (class_id, {text}, seed,",
              f"                                   _record(Binding, (({bases}), realized))))"]
    return _source("class_id, plan, groups, specs", head + plan_head,
                   "lexicon, seed, overrides", steps)


_draw_names: dict[str, str] = {}    # source -> its file name, one per shape ever compiled


@functools.lru_cache(maxsize=256)
def _draw_factory(source: str) -> Callable[..., Callable[..., GeneratedSentence]]:
    """The `make` that `source` defines, compiled once per shape. It runs in
    this module's globals, so SplitMix64 and the morphology functions are
    looked up when a draw runs; its lines go into linecache, under one file
    name per source, so a traceback through a draw function shows them."""
    filename = _draw_names.setdefault(source, f"<antinomy draw {len(_draw_names)}>")
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace: dict[str, object] = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    return namespace["make"]


def _overrides_per_schema(lexicon: Lexicon, schemas: Sequence[Schema],
                          overrides: Mapping[int, str]) -> list[dict[int, str]]:
    """Per schema, the overrides whose group there accepts the word (see
    _pinned). An override that no schema's group accepts raises
    BadOverrideError: first one whose group no schema has, in the order
    given, then the one refused first, as its group refused it."""
    if not overrides:
        return [{} for _ in schemas]      # and compile no schema
    per_schema: list[dict[int, str]] = []
    refusals: dict[int, BadOverrideError] = {}
    for schema in schemas:
        accepted: dict[int, str] = {}
        for group in schema.compiled.groups:
            gid = group.group_id
            if gid in overrides:
                try:
                    accepted[gid] = _pinned(lexicon, group, overrides[gid])
                except BadOverrideError as err:
                    refusals.setdefault(gid, err)
        per_schema.append(accepted)
    taken = {gid for accepted in per_schema for gid in accepted}
    for gid in [g for g in overrides if g not in refusals] + list(refusals):
        if gid not in taken:
            raise refusals.get(gid) or BadOverrideError(
                gid, overrides[gid].lower(), f"no selected class has group {gid}")
    return per_schema


def iter_batch(lexicon: Lexicon, schemas: Iterable[Schema], seed: int, count: int,
               overrides: Mapping[int, str] | None = None
               ) -> Iterator[GeneratedSentence | SkippedSchema]:
    """Generate `count` sentences per schema, one at a time.

    Iteration is schema-major: item (schema i, repetition r) uses
    sub_seed(seed, i*count + r), so a skipped schema never shifts the
    seeds of later items. A schema whose pool comes up empty yields one
    SkippedSchema in place of its remaining sentences. An override
    applies to each group whose candidate pool holds its word; the other
    schemas draw as usual. The overrides are judged by this call, before
    the first item is made: one that no selected group accepts raises
    BadOverrideError here, also when count is 0.
    """
    schemas = tuple(schemas)
    per_schema = _overrides_per_schema(lexicon, schemas, overrides or {})
    return _batch_items(lexicon, schemas, per_schema, seed, count)


def _batch_items(lexicon: Lexicon, schemas: Sequence[Schema],
                 per_schema: Sequence[Mapping[int, str]], seed: int,
                 count: int) -> Iterator[GeneratedSentence | SkippedSchema]:
    for i, (schema, schema_overrides) in enumerate(zip(schemas, per_schema)):
        for rep in range(count):
            try:
                sentence = generate(lexicon, schema, sub_seed(seed, i * count + rep),
                                    schema_overrides)
            except NoCandidateError as err:
                yield SkippedSchema(schema.class_id, str(err))
                break
            yield sentence


def generate_batch(lexicon: Lexicon, schemas: Iterable[Schema], seed: int,
                   count: int, overrides: Mapping[int, str] | None = None) -> BatchResult:
    """`iter_batch` collected: its sentences and its skips, each in order."""
    items = list(iter_batch(lexicon, schemas, seed, count, overrides))
    return BatchResult(tuple(s for s in items if isinstance(s, GeneratedSentence)),
                       tuple(s for s in items if isinstance(s, SkippedSchema)))
