"""Differential test: the CLI's direct JSON line encoders against the
`json.dumps` of a fresh dict that they replaced, which is kept here as
the reference. Every string the encoders meet is drawn from arbitrary
text, so quotes, backslashes, control characters, lone surrogates and
characters beyond the BMP all reach the escaper."""
from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from antinomy import (Binding, Detection, Evidence, EvidenceKind, GeneratedSentence,
                      generate_batch, scan_corpus)
from antinomy.cli import _detection_record, _generated_record


def reference_record(fields: dict[str, object], binding: Binding) -> str:
    """One JSON line: `fields`, to which the binding is added last."""
    fields["binding"] = {
        "bases": {str(g): w for g, w in sorted(binding.bases)},
        "realized": list(binding.realized),
    }
    return json.dumps(fields)


def reference_generated(s: GeneratedSentence) -> str:
    return reference_record({"class": s.class_id, "sentence": s.sentence, "seed": s.seed},
                            s.binding)


def reference_detection(d: Detection) -> str:
    return reference_record(
        {"line": d.sentence_index, "class": d.class_id, "score": d.score,
         "evidence": [{"slot": e.slot, "kind": e.kind.value} for e in d.evidence]},
        d.binding)


_TRICKY = ('"\\/\x00\x08\t\n\x0c\r\x1f\x7f\x85\u2028\u2029\ufeff'
           '\ud800\udbff\udc00\udfff\U0001f600\U0010ffff')
texts = st.text(st.one_of(st.characters(), st.characters(categories=["Cs"]),
                          st.sampled_from(_TRICKY)))

# 0-10 groups with distinct ids, drawn in any order, so the encoder's sort shows.
bindings = st.builds(
    Binding,
    st.lists(st.tuples(st.integers(0, 2 ** 31), texts), max_size=10,
             unique_by=lambda base: base[0]).map(tuple),
    st.lists(texts, max_size=10).map(tuple))

scores = st.one_of(
    st.sampled_from([0.0, 1.0, 1 / 3, 2 / 3]),
    st.integers(1, 12).flatmap(lambda d: st.integers(0, d).map(lambda n: n / d)))

generated = st.builds(GeneratedSentence, texts, texts, st.integers(0, 2 ** 64 - 1), bindings)

detections = st.builds(
    Detection, texts, bindings, scores, st.integers(0, 99), st.integers(0, 99),
    st.integers(0, 2 ** 63),
    st.lists(st.builds(Evidence, st.integers(0, 2 ** 31), st.sampled_from(EvidenceKind)))
    .map(tuple))


@settings(max_examples=200, deadline=None)
@given(generated)
def test_generated_record_equals_json_dumps(sentence):
    assert _generated_record(sentence) == reference_generated(sentence)


@settings(max_examples=200, deadline=None)
@given(detections)
def test_detection_record_equals_json_dumps(detection):
    assert _detection_record(detection) == reference_detection(detection)


def test_every_evidence_kind_at_the_score_edges():
    binding = Binding(((2, "b"), (0, "a\u00e9"), (10, "c")), ("x", "\U0001f600"))
    evidence = tuple(Evidence(slot, kind) for slot, kind in enumerate(EvidenceKind))
    for score in (0.0, 1.0, 1 / 3, 2 / 3):
        d = Detection("27", binding, score, 3, 1, 5, evidence)
        assert _detection_record(d) == reference_detection(d)
    assert '"bases": {"0": "a\\u00e9", "2": "b", "10": "c"}' in _detection_record(d)


def test_real_records_equal_json_dumps(demo_lexicon, registry):
    sentences = generate_batch(demo_lexicon, list(registry), 7, 3).sentences
    assert list(map(_generated_record, sentences)) == list(map(reference_generated, sentences))
    detections, _ = scan_corpus(demo_lexicon, registry, [s.sentence for s in sentences], 0.0)
    assert detections
    assert list(map(_detection_record, detections)) == list(map(reference_detection, detections))
