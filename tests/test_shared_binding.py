"""Detections that share a Binding. The dispatch plan builds one Binding
per group layout of a matched regex, shared by the detections of every
schema with that regex and layout. Schemas with one regex can still
differ in layout: `{N} x {N}.` has one group, `{N} x {V}.` two, and
`{N#3} x {N'#3}.` one under another id. Each order of such schemas, at
each floor, must classify as the oracle loop does, which builds every
record afresh."""
from __future__ import annotations

import itertools

import pytest

from antinomy import Schema, SchemaKind, classify, parse_template
from conftest import lex
from oracles import reference_classify

TEMPLATES = (
    ("u", "{N} x {N}."),          # ((0, 0),)
    ("u", "{N} x {V}."),          # ((0, 0), (1, 1))
    ("u", "{N#3} x {N'#3}."),     # ((3, 0),)
    ("u", "{V#3} x {~V#3}."),     # ((3, 0),), NegInf where the verb has no antonym
    ("v", "{N} x {~N}."),         # ((0, 0),), under another class id
)
LINES = ("Love x love.", "Love x hate.", "Love x affection.", "Speak x not to speak.",
         "Big love x love.", "Love x hate x love.", "Love x nothing here.")
LEXICON = ("love\tN\taffection\thate\naffection\tN\tlove\t\nhate\tN\t\tlove\n"
           "love\tV\t\thate\nhate\tV\t\tlove\nspeak\tV\t\t\n")


@pytest.mark.parametrize("floor", [0.0, 0.5, 1.0])
def test_one_regex_with_several_layouts_matches_the_oracle(floor):
    lexicon = lex(LEXICON)
    schemas = [Schema(class_id, SchemaKind.PARADOX, parse_template(dsl))
               for class_id, dsl in TEMPLATES]
    assert len({schema.compiled.pattern for schema in schemas}) == 1
    assert len({tuple((g.group_id, g.base_ordinal) for g in schema.compiled.groups)
                for schema in schemas}) == 3
    scores = set()
    for order in itertools.permutations(schemas):
        for index, line in enumerate(LINES):
            expected = [d for d in reference_classify(lexicon, order, line, index)
                        if d.score >= floor]
            found = classify(lexicon, order, line, index, min_score=floor)
            assert found == expected, (order, line)
            # One regex, one alignment: equal bindings are one object.
            assert len({id(d.binding) for d in found}) == len({d.binding for d in found})
            scores.update(d.score for d in found)
    assert scores == {0.0, 1.0} if floor == 0.0 else {1.0}
