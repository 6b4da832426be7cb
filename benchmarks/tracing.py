"""In-memory span tracer for the per-layer run.

The tracer replaces the names each antinomy module bound at import (a
module function such as `antinomy.detector.apply_derivations`, or a
method on a class such as `Lexicon.antonyms`) with wrappers that record
one span per call: name, start, end and the enclosing span. Nothing
under `src/` changes; `patched` restores every original on exit. A
target the program no longer has is skipped, so the benchmark keeps
running across refactors.

A span's name is `<layer>.<function>`; the layer is the antinomy module
that defines the function. Self time is a span's duration minus the part
of it that its child spans cover.
"""
from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

# (module holding the binding, attribute path, span name)
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("antinomy.cli", "scan_corpus", "detector.scan_corpus"),
    ("antinomy.cli", "generate_batch", "generator.generate_batch"),
    ("antinomy.cli", "parse_lexicon", "lexicon.parse_lexicon"),
    ("antinomy.cli", "builtin_registry", "schema.builtin_registry"),
    ("antinomy.generator", "generate", "generator.generate"),
    ("antinomy.generator", "sub_seed", "rng.sub_seed"),
    ("antinomy.generator", "apply_derivations", "morphology.apply_derivations"),
    ("antinomy.generator", "indefinite_article", "morphology.indefinite_article"),
    ("antinomy.generator", "negated_infinitive", "morphology.negated_infinitive"),
    ("antinomy.detector", "classify", "detector.classify"),
    ("antinomy.detector", "normalize", "detector.normalize"),
    ("antinomy.detector", "apply_derivations", "morphology.apply_derivations"),
    ("antinomy.detector", "plural_bases", "morphology.plural_bases"),
    ("antinomy.detector", "agentive_bases", "morphology.agentive_bases"),
    ("antinomy.detector", "gerund_bases", "morphology.gerund_bases"),
    ("antinomy.lexicon", "Lexicon.words", "lexicon.words"),
    ("antinomy.lexicon", "Lexicon.entry", "lexicon.entry"),
    ("antinomy.lexicon", "Lexicon.synonyms", "lexicon.synonyms"),
    ("antinomy.lexicon", "Lexicon.antonyms", "lexicon.antonyms"),
    ("antinomy.schema", "Schema.slot_specs", "schema.slot_specs"),
    ("antinomy.schema", "Schema.groups", "schema.groups"),
    ("antinomy.schema", "Schema.base_ordinal", "schema.base_ordinal"),
    ("antinomy.rng", "SplitMix64.next_u64", "rng.next_u64"),
    ("antinomy.rng", "SplitMix64.choice", "rng.choice"),
)

LAYERS = ("cli", "detector", "generator", "schema", "lexicon", "morphology", "rng")


class Tracer:
    """Spans in flat arrays: name index, parent index (-1 for a root),
    start and end in perf_counter seconds."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _open(self, name: str) -> int:
        ix = len(self.start)
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_ix.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(ix)
        self.start.append(perf_counter())
        return ix

    def _close(self, ix: int) -> None:
        self.end[ix] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        ix = self._open(name)
        try:
            yield
        finally:
            self._close(ix)

    def wrap(self, fn: Callable, name: str,
             observe: Callable[[tuple, object], None] | None = None) -> Callable:
        """`fn` recording one span per call; `observe(args, result)` sees
        each returned value outside the timed span."""
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            ix = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(ix)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def dump(self, path) -> None:
        """Write every span as `index parent name start end`, tab separated."""
        with open(path, "w", encoding="utf-8") as out:
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t{self.names[self.name_ix[i]]}\t"
                          f"{self.start[i]!r}\t{self.end[i]!r}\n")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr


@contextmanager
def patched(tracer: Tracer,
            observers: dict[str, Callable] | None = None) -> Iterator[list[str]]:
    """Install wrappers for every target that exists; yield the span
    names installed; restore the original bindings on exit."""
    observers = observers or {}
    saved: list[tuple[object, str, object]] = []
    installed: list[str] = []
    try:
        for module_name, path, name in TARGETS:
            owner, attr = _resolve(module_name, path)
            if owner is None or attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, observers.get(name)))
            installed.append(name)
        yield installed
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    each child clipped to its parent."""
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))
    out = [end[i] - start[i] for i in range(len(start))]
    for p, spans in children.items():
        lo, hi = start[p], end[p]
        covered, reach = 0.0, lo
        for s, e in sorted(spans):
            s, e = max(s, reach), min(e, hi)
            if e > s:
                covered += e - s
                reach = e
        out[p] -= covered
    return out


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per function `<name>.calls` and `<name>.self_s`, per layer
    `<layer>.self_s`, plus `trace.wall_s` (root spans), `trace.self_sum_s`
    (all self times, which must equal the wall) and `trace.spans`."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls = [0] * len(tracer.names)
    fn_self = [0.0] * len(tracer.names)
    for i, s in enumerate(selfs):
        calls[tracer.name_ix[i]] += 1
        fn_self[tracer.name_ix[i]] += s
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name_id, name in enumerate(tracer.names):
        out[f"{name}.calls"] = calls[name_id]
        out[f"{name}.self_s"] = fn_self[name_id]
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + fn_self[name_id]
    out["trace.wall_s"] = sum(tracer.end[i] - tracer.start[i]
                              for i, p in enumerate(tracer.parent) if p < 0)
    out["trace.self_sum_s"] = sum(selfs)
    out["trace.spans"] = len(selfs)
    return out
