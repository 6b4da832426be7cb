"""The result records' API: field names and order, read-only fields, repr.

Every record except `Schema` is a named tuple. These pins hold each one
to the field names, field order and repr text it had as a frozen
dataclass, so callers that build records positionally or by keyword,
or read their repr, see no change.
"""
import copy
import pickle

import pytest

from antinomy import (BatchResult, Binding, DanglingReference, Detection,
                      DuplicateEntry, Evidence, EvidenceKind, GeneratedSentence,
                      LexEntry, LiteralToken, MalformedLine, PartOfSpeech,
                      Relation, SelfReferenceDropped, SkippedSchema, SlotSpec,
                      SlotToken, SymmetryRepair, ValidationReport,
                      builtin_registry, classify, generate, generate_batch, iter_batch,
                      parse_lexicon)

A = PartOfSpeech.ATTRIBUTE
_SPEC = SlotSpec(A, Relation.IDENTITY, 0, (), 0)
_BINDING = Binding(((0, "hot"),), ("hot", "cold"))
_FORM = builtin_registry()[0].compiled

# (record, its field names in order)
RECORDS = [
    (Evidence(1, EvidenceKind.LEX_ANTONYM), ("slot", "kind")),
    (Detection("1", _BINDING, 1.0, 1, 1, 0, ()),
     ("class_id", "binding", "score", "relations_checked", "relations_satisfied",
      "sentence_index", "evidence")),
    (_BINDING, ("bases", "realized")),
    (GeneratedSentence("1", "Hot without cold.", 7, _BINDING),
     ("class_id", "sentence", "seed", "binding")),
    (SkippedSchema("1", "none"), ("class_id", "reason")),
    (BatchResult((), ()), ("sentences", "skips")),
    (LexEntry("hot", A, frozenset(), frozenset({"cold"})),
     ("surface", "pos", "synonyms", "antonyms")),
    (MalformedLine(3, "bad pos 'X'"), ("line_no", "reason")),
    (DuplicateEntry("hot", A, 2), ("surface", "pos", "line_no")),
    (DanglingReference("hot", "warm"), ("from_word", "to_word")),
    (SymmetryRepair("cold", A, "hot"), ("surface", "pos", "antonym")),
    (SelfReferenceDropped("big", A, 4), ("surface", "pos", "line_no")),
    (ValidationReport(), ("defects", "repairs")),
    (_SPEC, ("symbol", "relation", "prime", "derivations", "group_id")),
    (LiteralToken("All is "), ("text",)),
    (SlotToken(_SPEC), ("spec",)),
    (_FORM.groups[0], ("group_id", "pos", "base_ordinal", "needs_antonym")),
    (_FORM, ("specs", "groups", "checks", "plan", "pattern", "required", "rank_key")),
]
_IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record,fields", RECORDS, ids=_IDS)
def test_record_fields_in_order(record, fields):
    assert type(record)._fields == fields


@pytest.mark.parametrize("record,fields", RECORDS, ids=_IDS)
def test_record_fields_are_read_only(record, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("record,text", [
    (Evidence(1, EvidenceKind.LEX_ANTONYM),
     "Evidence(slot=1, kind=<EvidenceKind.LEX_ANTONYM: 'LexAntonym'>)"),
    (SkippedSchema("1", "none"), "SkippedSchema(class_id='1', reason='none')"),
    (DuplicateEntry("hot", A, 2),
     "DuplicateEntry(surface='hot', pos=<PartOfSpeech.ATTRIBUTE: 'A'>, line_no=2)"),
    (SlotToken(_SPEC),
     "SlotToken(spec=SlotSpec(symbol=<PartOfSpeech.ATTRIBUTE: 'A'>, "
     "relation=<Relation.IDENTITY: 'identity'>, prime=0, derivations=(), group_id=0))"),
], ids=["detector", "generator", "lexicon", "schema"])
def test_record_repr(record, text):
    assert repr(record) == text


def test_records_are_tuples():
    evidence = Evidence(1, EvidenceKind.LEX_ANTONYM)
    slot, kind = evidence
    assert evidence == (1, EvidenceKind.LEX_ANTONYM)
    assert (slot, kind) == (evidence.slot, evidence.kind)


def test_same_shape_defect_and_repair_keep_their_types():
    # DuplicateEntry and SelfReferenceDropped hold the same field types,
    # so equal values compare equal; they never share a tuple.
    report = parse_lexicon("big\tA\t\tbig\nbig\tA\t\t\n")
    assert isinstance(report, ValidationReport)
    assert [type(d) for d in report.defects] == [DuplicateEntry]
    assert [type(r) for r in report.repairs] == [SelfReferenceDropped]
    assert str(report) == ("line 2: duplicate entry big/A\n"
                           "repair: line 1: dropped self-antonym of big/A")


def test_result_records_hash_and_hold_no_mutable_field(demo_lexicon, registry):
    batch = generate_batch(demo_lexicon, registry, seed=1, count=1)
    again = generate_batch(demo_lexicon, registry, seed=1, count=1)
    assert hash(batch) == hash(again)
    for sentence, same in zip(batch.sentences, again.sentences):
        assert hash(sentence) == hash(same)
        detection = classify(demo_lexicon, registry, sentence.sentence)[0]
        assert hash(detection) == hash(classify(demo_lexicon, registry, sentence.sentence)[0])
        with pytest.raises(TypeError):
            detection.binding.bases[0] = (0, "zzz")


def test_bases_are_pairs_in_the_schemas_group_order(demo_lexicon, registry):
    for sentence in generate_batch(demo_lexicon, registry, seed=1, count=1).sentences:
        schema = next(s for s in registry if s.class_id == sentence.class_id)
        group_ids = tuple(g.group_id for g in schema.compiled.groups)
        detection = classify(demo_lexicon, [schema], sentence.sentence)[0]
        for binding in (sentence.binding, detection.binding):
            assert tuple(g for g, _ in binding.bases) == group_ids
        assert detection.binding.bases == sentence.binding.bases


def test_binding_is_one_class_under_each_import_path():
    from antinomy import generator, schema
    assert Binding is generator.Binding is schema.Binding


def test_records_built_as_bare_tuples_act_as_constructed_ones(demo_lexicon, registry):
    # generate and classify build their records with tuple.__new__, which
    # skips the NamedTuple's own __new__; such a record must still be a
    # full instance of its class.
    sentences = [generate(demo_lexicon, schema, 5) for schema in registry]
    sentences += [s for s in iter_batch(demo_lexicon, registry, 5, 1)
                  if isinstance(s, GeneratedSentence)]
    detections = [d for s in sentences for d in classify(demo_lexicon, registry, s.sentence)]
    records = (sentences + [s.binding for s in sentences]
               + detections + [d.binding for d in detections]
               + [e for d in detections for e in d.evidence])
    seen = {type(r) for r in records}
    assert seen == {GeneratedSentence, Binding, Detection, Evidence}
    for record in records:
        cls = type(record)
        assert record == cls(*record)
        assert record._replace() == record and type(record._replace()) is cls
        assert record._asdict() == dict(zip(cls._fields, record))
        for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(copied) is cls and copied == record
    first = sentences[0]
    changed = first._replace(seed=first.seed + 1)
    assert type(changed) is GeneratedSentence and changed.seed == first.seed + 1
